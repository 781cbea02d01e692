//! E16 closed-loop intrusion response: the feedback policy must beat the
//! blind periodic baseline on time-in-compromised-state and reaction time
//! without giving up availability, and the comparison must be honest —
//! a deliberately over-budget outage trips the invariant checker under
//! *both* policies (the closed loop cannot mask genuine failures).
//!
//! The full campaigns are release-only (a debug-build campaign pair is
//! minutes of wall clock); `ci/check.sh` runs them in release. The
//! negative control stays in the debug budget: no MANA training, a 10 s
//! horizon.

use bench::response_experiment::{e16_beyond_budget, Policy};
#[cfg(not(debug_assertions))]
use bench::response_experiment::{e16_campaign, CampaignRun, Shape};

/// The e16 campaign contract, uniform across shapes and seeds: strictly
/// less ground-truth compromised time, every window reacted to, reaction
/// p99 no worse, availability (invariants + longest stall) no worse.
#[cfg(not(debug_assertions))]
fn assert_feedback_beats_periodic(run: &CampaignRun) {
    let (p, f) = (&run.periodic, &run.feedback);
    assert!(
        f.compromised_us < p.compromised_us,
        "{}: feedback must shrink time-in-compromised-state ({} vs {})",
        run.id,
        f.compromised_us,
        p.compromised_us
    );
    assert_eq!(
        f.missed, 0,
        "{}: feedback missed {} compromise window(s)",
        run.id, f.missed
    );
    assert!(
        f.reacted >= 1 && f.reacted >= p.reacted,
        "{}: feedback reacted to {} windows, periodic {}",
        run.id,
        f.reacted,
        p.reacted
    );
    assert!(
        f.reaction_p99_us() <= p.reaction_p99_us(),
        "{}: feedback reaction p99 {}us worse than periodic {}us",
        run.id,
        f.reaction_p99_us(),
        p.reaction_p99_us()
    );
    assert!(p.all_green, "{}: periodic baseline went RED", run.id);
    assert!(f.all_green, "{}: feedback policy went RED", run.id);
    assert!(
        f.longest_stall_us <= p.longest_stall_us,
        "{}: feedback stalled longer ({}us) than periodic ({}us)",
        run.id,
        f.longest_stall_us,
        p.longest_stall_us
    );
    // Targeted response is also cheaper: fewer node bounces than blind
    // round-robin rejuvenation.
    assert!(
        f.recoveries < p.recoveries,
        "{}: feedback used {} recoveries vs periodic {}",
        run.id,
        f.recoveries,
        p.recoveries
    );
    assert!(
        f.transitions > 0,
        "{}: feedback journaled no degraded-mode transitions",
        run.id
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn implant_flood_feedback_beats_periodic_and_throttles() {
    for seed in [42, 1111] {
        let run = e16_campaign(seed, Shape::ImplantFlood, 1);
        assert_feedback_beats_periodic(&run);
        // The proxy-attributed flood stage must engage the throttle
        // actuator, and the rate cap must actually suppress updates.
        assert!(
            run.feedback.throttles >= 1,
            "seed {seed}: proxy flood never throttled"
        );
        assert!(
            run.feedback.updates_throttled > 0,
            "seed {seed}: throttle engaged but suppressed no updates"
        );
        assert_eq!(run.periodic.throttles, 0, "periodic has no throttle path");
    }
}

#[cfg(not(debug_assertions))]
#[test]
fn double_compromise_feedback_beats_periodic() {
    for seed in [42, 1111] {
        let run = e16_campaign(seed, Shape::DoubleCompromise, 1);
        assert_feedback_beats_periodic(&run);
        // Two sequential implants: the budget guard forces them to be
        // handled one at a time (k = 1), and both must be caught.
        assert_eq!(run.feedback.reacted, 2, "seed {seed}: both implants caught");
    }
}

/// Each policy's actuation counts at seed 42, one wave: recoveries are the
/// campaign's takedowns and throttles the controller's throttle actuations.
#[cfg(not(debug_assertions))]
#[test]
fn actuation_counts_are_pinned_at_seed_42() {
    for (shape, periodic, feedback) in [
        (Shape::ImplantFlood, (8, 0), (1, 1)),
        (Shape::DoubleCompromise, (9, 0), (2, 0)),
    ] {
        let run = e16_campaign(42, shape, 1);
        for (p, want) in [(&run.periodic, periodic), (&run.feedback, feedback)] {
            assert_eq!(
                (p.recoveries, p.throttles),
                want,
                "{} {}: (recoveries, throttles)",
                run.id,
                p.policy
            );
        }
    }
}

/// Same seed, same shape, two fresh harness runs: the journals (and hence
/// every actuation, transition, and anomaly score) must be byte-identical.
#[cfg(not(debug_assertions))]
#[test]
fn campaign_is_deterministic_across_runs() {
    let a = e16_campaign(42, Shape::ImplantFlood, 1);
    let b = e16_campaign(42, Shape::ImplantFlood, 1);
    for (x, y) in [(&a.periodic, &b.periodic), (&a.feedback, &b.feedback)] {
        assert_eq!(x.meta.journal_digest, y.meta.journal_digest);
        assert_eq!(x.meta.sim_events, y.meta.sim_events);
        assert_eq!(x.compromised_us, y.compromised_us);
        assert_eq!(x.reaction_us, y.reaction_us);
    }
}

/// Negative control: an over-budget crash plan (f + 2 replicas down) must
/// trip bounded-delay under BOTH policies. If the feedback loop ever made
/// this pass, the E16 "all green" columns would be vacuous.
#[test]
fn over_budget_outage_trips_checker_under_both_policies() {
    for policy in [Policy::Periodic, Policy::Feedback] {
        let reports = e16_beyond_budget(42, policy);
        let bounded_delay = reports
            .iter()
            .find(|r| r.name.contains("bounded-delay"))
            .expect("bounded-delay invariant reported");
        assert!(
            bounded_delay.violations > 0,
            "{:?}: over-budget outage must trip bounded-delay, got {:?}",
            policy,
            reports
        );
    }
}
