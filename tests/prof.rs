//! `obs::prof` contract tests: folded-stack assembly is a pure fold over
//! the charge multiset (any event interleaving produces byte-identical
//! output), and per-run attribution telescopes exactly — the rows sum to
//! the simulated time the run consumed, with nothing double-counted and
//! nothing dropped.

use obs::prof::{CryptoOp, PhaseCost, Profile};
use proptest::prelude::*;

/// One profiler charge.
#[derive(Clone, Debug)]
struct Charge {
    stack: &'static str,
    cost: PhaseCost,
}

const STACKS: &[&str] = &[
    "prime;preorder;batch_request",
    "prime;preorder;po_aru",
    "prime;order;pre_prepare",
    "prime;order;commit",
    "prime;catchup;checkpoint",
    "prime;timer",
    "spines;hop",
    "scada;apply",
    "idle",
];

/// Decodes a proptest-drawn `(stack index, time, bytes, packed)` tuple
/// into a charge; the packed word carries the crypto/event counts.
fn decode(raw: &(usize, u64, u64, u64)) -> Charge {
    let (idx, time_us, bytes, packed) = *raw;
    Charge {
        stack: STACKS[idx],
        cost: PhaseCost {
            time_us,
            bytes,
            sign: packed & 0x3,
            verify: (packed >> 2) & 0x3,
            hmac: (packed >> 4) & 0x3,
            events: (packed >> 6) & 0x7,
        },
    }
}

/// The strategy behind [`decode`].
fn raw_charges() -> impl Strategy<Value = Vec<(usize, u64, u64, u64)>> {
    proptest::collection::vec(
        (
            0usize..STACKS.len(),
            0u64..10_000,
            0u64..4_096,
            any::<u64>(),
        ),
        0..64,
    )
}

proptest! {
    /// The folded output (and the whole profile) is independent of the
    /// order charges arrive in: simulated-event interleaving cannot
    /// change what the profiler reports.
    #[test]
    fn folded_output_is_interleaving_independent(
        raw in raw_charges(),
        seed in any::<u64>(),
    ) {
        let charges: Vec<Charge> = raw.iter().map(decode).collect();
        let mut in_order = Profile::new();
        for c in &charges {
            in_order.charge(c.stack, c.cost);
        }
        // A deterministic shuffle driven by the proptest seed.
        let mut shuffled = charges.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut reordered = Profile::new();
        for c in &shuffled {
            reordered.charge(c.stack, c.cost);
        }
        prop_assert_eq!(&in_order, &reordered);
        prop_assert_eq!(in_order.folded(), reordered.folded());
    }

    /// Splitting a charge stream across two profiles and merging equals
    /// charging everything into one — the distributive law run_step's
    /// per-step capture relies on.
    #[test]
    fn merge_distributes_over_charge(
        raw in raw_charges(),
        split in 0usize..64,
    ) {
        let charges: Vec<Charge> = raw.iter().map(decode).collect();
        let split = split.min(charges.len());
        let mut whole = Profile::new();
        for c in &charges {
            whole.charge(c.stack, c.cost);
        }
        let (mut a, mut b) = (Profile::new(), Profile::new());
        for c in &charges[..split] {
            a.charge(c.stack, c.cost);
        }
        for c in &charges[split..] {
            b.charge(c.stack, c.cost);
        }
        a.merge(&b);
        prop_assert_eq!(whole.folded(), a.folded());
    }
}

/// A real profiled run telescopes exactly: the attribution rows of a
/// 1-step E11 ramp sum to precisely the simulated time the step's
/// cluster consumed, and the rendered table says so.
#[test]
fn profiled_e11_step_telescopes_to_simulated_time() {
    obs::prof::set_enabled(true);
    let run = bench::saturation::e11_saturation(42, &[50]);
    obs::prof::set_enabled(false);
    let total = obs::prof::take();
    let step = &run.steps[0];
    let prof = step.prof.as_ref().expect("profiler was on");
    assert!(!prof.folded().is_empty());
    assert_eq!(
        prof.total_time_us(),
        step.sim_elapsed_us,
        "rows sum exactly to the step's simulated time"
    );
    // The per-step capture also left the charges in the thread total.
    assert_eq!(total.total_time_us(), step.sim_elapsed_us);
    let table = obs::report::attribution_markdown(prof, Some(step.sim_elapsed_us));
    assert!(table.contains("telescoping: exact"), "table: {table}");
}

/// Crypto charges land in the op they name.
#[test]
fn crypto_ops_accumulate_separately() {
    let mut p = Profile::new();
    for (op, n) in [
        (CryptoOp::Sign, 3),
        (CryptoOp::Verify, 5),
        (CryptoOp::Hmac, 7),
    ] {
        let mut cost = PhaseCost::default();
        match op {
            CryptoOp::Sign => cost.sign = n,
            CryptoOp::Verify => cost.verify = n,
            CryptoOp::Hmac => cost.hmac = n,
        }
        p.charge("spines;hop", cost);
    }
    let total = p.total();
    assert_eq!((total.sign, total.verify, total.hmac), (3, 5, 7));
}
