//! Release-only acceptance gates for the batched ordering pipeline: the
//! E11 knee must move at least 5x (past 8000 updates/s) at equal
//! pre-knee tail latency, and the pre-order dissemination cost that
//! saturated the unbatched run must shrink below 15% of charged
//! simulated time at the old knee rate.
//!
//! Gated out of debug builds: a batched ramp through 19200 updates/s is
//! minutes of debug wall-clock. `ci/check.sh` runs this suite in
//! release.
#![cfg(not(debug_assertions))]

use bench::registry::GOLDEN_SEED;
use bench::saturation::{e11_default_rates, e11_saturation, e11_saturation_with, SaturationOpts};

/// The before/after contract: the unbatched ramp knees at its pinned
/// rate, the batched ramp knees at >= 5x that (and >= 8000 updates/s),
/// and at every shared pre-knee rate the batched p99 stays in the same
/// regime as the unbatched one (within 25% — the batch delay may add up
/// to 5 ms to a tail member, never a regime change).
#[test]
fn batched_knee_moves_at_least_5x_at_equal_preknee_p99() {
    let unbatched = e11_saturation(GOLDEN_SEED, &e11_default_rates());
    let unbatched_knee =
        unbatched.steps[unbatched.knee_index().expect("unbatched ramp has a knee")].offered_per_s;

    // The full batched ramp is ~90 s of release wall-clock; the reduced
    // ramp keeps the same base step, two shared pre-knee rates, the
    // highest flat rate, and the knee.
    let batched = e11_saturation_with(
        GOLDEN_SEED,
        &[400, 800, 1600, 9600, 19200],
        SaturationOpts::batched(),
    );
    assert!(
        batched.is_flat_then_knee(),
        "batched ramp keeps the paper's shape"
    );
    let batched_knee =
        batched.steps[batched.knee_index().expect("batched ramp has a knee")].offered_per_s;

    assert!(
        batched_knee >= 5 * unbatched_knee && batched_knee >= 8000,
        "knee moved {unbatched_knee} -> {batched_knee}, below the 5x / 8000-per-s bar"
    );
    for b in &batched.steps {
        if b.offered_per_s >= unbatched_knee {
            continue;
        }
        let l = unbatched
            .steps
            .iter()
            .find(|s| s.offered_per_s == b.offered_per_s)
            .expect("shared pre-knee rate");
        assert!(
            4 * b.p99_us <= 5 * l.p99_us.max(1),
            "batched p99 {} vs unbatched {} at {}/s: pre-knee tail regressed",
            b.p99_us,
            l.p99_us,
            b.offered_per_s
        );
    }
}

/// At the unbatched knee rate (1600 updates/s), pre-order dissemination
/// — every batch_* stack — must charge less than 15% of the step's
/// simulated time with batching on. Unbatched, the batches of one
/// (`prime;preorder;batch_request`) charge 42.8% there.
#[test]
fn batched_dissemination_cost_under_15_percent_at_old_knee() {
    obs::prof::set_enabled(true);
    let run = e11_saturation_with(GOLDEN_SEED, &[1600], SaturationOpts::batched());
    obs::prof::set_enabled(false);
    let _ = obs::prof::take();

    let prof = run.steps[0].prof.as_ref().expect("profiling was enabled");
    let total = prof.total_time_us().max(1);
    let dissemination: u64 = prof
        .rows()
        .filter(|(stack, _)| stack.starts_with("prime;preorder;batch_"))
        .map(|(_, cost)| cost.time_us)
        .sum();
    assert!(
        dissemination * 100 < total * 15,
        "dissemination charged {dissemination} of {total} us ({}%), expected < 15%",
        dissemination * 100 / total
    );
}
