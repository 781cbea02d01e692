//! The chaos engine's own contract (E12 tentpole): within-budget fault
//! schedules never trip the invariant checker, deliberately over-budget
//! schedules provably do, and the E12 soak is deterministic.

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker};
use chaos::plan::ChaosPlan;
use prime::types::Config as PrimeConfig;
use proptest::prelude::*;
use simnet::time::SimDuration;

use bench::chaos_experiment::{chaos_rig, e12_chaos_soak, e12_chaos_soak_with};

/// Acceptance: `e12 --seed 42` injects at least five distinct fault
/// kinds and every invariant stays green.
#[test]
fn e12_soak_seed_42_is_green_with_at_least_five_fault_kinds() {
    let run = e12_chaos_soak(42, 1, 12);
    assert!(
        run.distinct_kinds >= 5,
        "expected >= 5 distinct fault kinds, got {} ({:?})",
        run.distinct_kinds,
        run.injected
    );
    assert!(run.total_injected >= 5);
    assert!(
        run.all_green,
        "invariant violations under a within-budget plan: {:?}",
        run.invariants
    );
    assert!(
        !run.reconvergence_us.is_empty(),
        "heals should have exercised reconvergence"
    );
    assert!(run.min_executed > 0);
}

/// The soak is deterministic: the same seed reproduces the same journal
/// digest, event count, and injection counts.
#[test]
fn e12_soak_is_deterministic() {
    let a = e12_chaos_soak(7, 1, 12);
    let b = e12_chaos_soak(7, 1, 12);
    assert_eq!(a.meta.journal_digest, b.meta.journal_digest);
    assert_eq!(a.meta.sim_events, b.meta.sim_events);
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.reconvergence_us, b.reconvergence_us);
}

/// The batched configuration (Merkle-batched dissemination, pipelined
/// sequencing, chunked state transfer) must ride through the same chaos
/// schedule as the stock soak: batches survive crash + restart and
/// catch-up without duplicating or dropping member updates — the
/// agreement and dedup invariants would trip on either. And the batched
/// soak must be exactly as deterministic as the legacy one.
#[test]
fn e12_soak_stays_green_with_batching_and_chunked_transfer() {
    let mut cfg = PrimeConfig::plant().with_batching(16, 4);
    cfg.transfer_chunk = 64;
    let run = e12_chaos_soak_with(42, 1, 12, cfg);
    assert!(
        run.distinct_kinds >= 5,
        "expected >= 5 distinct fault kinds, got {} ({:?})",
        run.distinct_kinds,
        run.injected
    );
    assert!(
        run.all_green,
        "invariant violations with batching armed: {:?}",
        run.invariants
    );
    assert!(run.min_executed > 0);
    let again = e12_chaos_soak_with(42, 1, 12, cfg);
    assert_eq!(run.meta.journal_digest, again.meta.journal_digest);
    assert_eq!(run.meta.sim_events, again.meta.sim_events);
}

/// Negative control: `f + 2` simultaneous crashes (3 of 6 replicas) leave
/// fewer than an ordering quorum alive. With the checker told to treat
/// the system as within budget, the bounded-delay invariant MUST trip —
/// proving the checker detects real liveness loss rather than
/// vacuously passing.
#[test]
fn beyond_budget_crashes_trip_the_bounded_delay_invariant() {
    let (mut d, prime_cfg) = chaos_rig(42, PrimeConfig::plant(), None);
    let horizon = SimDuration::from_secs(12);
    let plan = ChaosPlan::beyond_budget_crashes(prime_cfg.f, horizon);
    let mut cfg = CheckerConfig::for_prime(&prime_cfg);
    cfg.assume_within_budget = true;
    let mut checker = InvariantChecker::new(cfg, &d);
    let mut driver = ChaosDriver::new(plan);
    driver.run_soak(&mut d, &mut checker, horizon, SimDuration::from_millis(100));
    let bounded_delay = &checker.reports()[2];
    assert_eq!(bounded_delay.name, "bounded-delay");
    assert!(
        bounded_delay.violations > 0,
        "f + 2 crashes must stall ordering past the delay bound"
    );
}

/// Negative control: an even, never-healing split of the internal network
/// leaves no side with a quorum, so the bounded-delay invariant must trip.
#[test]
fn beyond_budget_partition_trips_the_bounded_delay_invariant() {
    let (mut d, prime_cfg) = chaos_rig(42, PrimeConfig::plant(), None);
    let horizon = SimDuration::from_secs(12);
    let plan = ChaosPlan::beyond_budget_partition(prime_cfg.n(), horizon);
    let mut cfg = CheckerConfig::for_prime(&prime_cfg);
    cfg.assume_within_budget = true;
    let mut checker = InvariantChecker::new(cfg, &d);
    let mut driver = ChaosDriver::new(plan);
    driver.run_soak(&mut d, &mut checker, horizon, SimDuration::from_millis(100));
    let bounded_delay = &checker.reports()[2];
    assert!(
        bounded_delay.violations > 0,
        "an even split must stall ordering past the delay bound"
    );
}

/// Flight-recorder regression: run the E12 soak with HealthSnapshot
/// records armed, heal everything, quiesce — then read the journal back.
/// After the heal the recorder must show the system recovered: every
/// replica's final snapshot has its PO queue drained (the backlog built
/// up during fault windows is gone), is not stuck catching up, and its
/// view has stopped moving; every daemon's final link snapshot shows an
/// empty forwarding queue.
#[test]
fn e12_health_snapshots_show_recovery_after_heal() {
    obs::prof::set_health_every(5);
    let (mut d, prime_cfg) = chaos_rig(42, PrimeConfig::plant(), None);
    let horizon = SimDuration::from_secs(10);
    let plan = ChaosPlan::within_budget(42, prime_cfg.n(), prime_cfg.ordering_quorum(), horizon);
    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let mut driver = ChaosDriver::new(plan);
    let step = SimDuration::from_millis(100);
    driver.run_soak(&mut d, &mut checker, horizon, step);
    driver.heal_all(&mut d, &mut checker);
    driver.run_quiesce(&mut d, &mut checker, SimDuration::from_secs(8), step);
    obs::prof::set_health_every(0);

    let mut replica_tail: std::collections::BTreeMap<u32, Vec<(u64, u64, u32, bool)>> =
        std::collections::BTreeMap::new();
    let mut link_tail: std::collections::BTreeMap<(u32, u8), u32> =
        std::collections::BTreeMap::new();
    for r in d.obs.journal_records() {
        match r.event {
            obs::Event::ReplicaHealth {
                replica,
                view,
                po_queue,
                catching_up,
                ..
            } => replica_tail.entry(replica).or_default().push((
                r.at_us,
                view,
                po_queue,
                catching_up,
            )),
            obs::Event::LinkHealth {
                daemon,
                link,
                depth,
            } => {
                link_tail.insert((daemon, link), depth);
            }
            _ => {}
        }
    }
    assert_eq!(
        replica_tail.len() as u32,
        prime_cfg.n(),
        "every replica journals health snapshots"
    );
    assert!(!link_tail.is_empty(), "link snapshots were journaled");
    for (replica, snaps) in &replica_tail {
        assert!(snaps.len() >= 2, "replica {replica} snapshotted repeatedly");
        let (_, last_view, last_po, last_catching) = *snaps.last().unwrap();
        let (_, prev_view, _, _) = snaps[snaps.len() - 2];
        assert!(
            !last_catching,
            "replica {replica} still catching up after heal + quiesce"
        );
        assert!(
            last_po <= 2,
            "replica {replica} PO queue not drained after heal: {last_po}"
        );
        assert_eq!(
            last_view, prev_view,
            "replica {replica} view still moving at end of quiescence"
        );
    }
    for ((daemon, link), depth) in &link_tail {
        assert_eq!(
            *depth, 0,
            "daemon {daemon} link {link} forwarding queue not empty after quiesce"
        );
    }
}

proptest! {
    /// Property: for ANY seed, a within-budget plan actually respects the
    /// budget — disruptive fault windows (partition, crash, byz-flip,
    /// recovery, flap) never overlap, partitions only ever isolate a
    /// minority, and every window closes inside the horizon so the
    /// quiescence tail starts from a fully healed network.
    #[test]
    fn within_budget_plans_respect_the_budget(seed in any::<u64>()) {
        use chaos::plan::{Fault, FaultKind, ScheduledFault};
        let n = 6u32;
        let quorum = 4u32;
        let horizon = SimDuration::from_secs(30);
        let plan = ChaosPlan::within_budget(seed, n, quorum, horizon);
        prop_assert!(!plan.faults.is_empty());
        let disruptive: Vec<&ScheduledFault> = plan
            .faults
            .iter()
            .filter(|f| {
                matches!(
                    f.fault.kind(),
                    FaultKind::Partition
                        | FaultKind::NodeCrash
                        | FaultKind::ByzFlip
                        | FaultKind::Recovery
                        | FaultKind::LinkFlap
                )
            })
            .collect();
        for pair in disruptive.windows(2) {
            prop_assert!(
                (pair[0].at + pair[0].duration).as_micros() <= pair[1].at.as_micros(),
                "seed {}: disruptive windows overlap: {:?} vs {:?}",
                seed,
                pair[0],
                pair[1]
            );
        }
        for f in &plan.faults {
            prop_assert!(
                (f.at + f.duration).as_micros() <= horizon.as_micros(),
                "seed {}: window extends past horizon: {:?}",
                seed,
                f
            );
            if let Fault::Partition { isolated } = &f.fault {
                prop_assert!(
                    n - isolated.len() as u32 >= quorum,
                    "seed {}: partition isolates a majority: {:?}",
                    seed,
                    isolated
                );
            }
        }
    }
}

/// Property at the soak level: within-budget schedules keep every
/// invariant green on seeds the plan generator was never tuned against.
/// (A handful of full soaks — each one simulates ~19 seconds of plant
/// operation — backing the 64-case plan-level property above.)
#[test]
fn within_budget_soaks_never_trip_the_checker() {
    for seed in [7u64, 99, 555, 90210] {
        let run = e12_chaos_soak(seed, 1, 10);
        assert!(
            run.all_green,
            "seed {seed} tripped invariants: {:?}",
            run.invariants
        );
    }
}
