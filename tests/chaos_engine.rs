//! Faults, three ways. The chaos engine's own contract (E12): within-budget
//! fault schedules never trip the invariant checker, deliberately
//! over-budget schedules provably do, faults made by hand count like
//! planned ones, and the E12 soak is deterministic. Prime alone under
//! random fault schedules: updates interleaved with crashes and proactive
//! recoveries, always within the tolerance bounds (at most `f` Byzantine
//! plus `k` recovering at once), must never break agreement or halt
//! execution. And whole deployments under scripted faults: a leader crash,
//! interception of one replica, lossy links, and a breach beyond the budget
//! that only a system reset recovers from.

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker};
use chaos::plan::ChaosPlan;
use plc::topology::Scenario;
use prime::byzantine::ByzMode;
use prime::harness::Cluster;
use prime::replica::Timing;
use prime::types::{Config as PrimeConfig, ReplicaId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redteam::attacker::{AttackStep, Attacker};
use simnet::link::LinkSpec;
use simnet::sim::{InterfaceSpec, NodeSpec, Simulation};
use simnet::switch::SwitchMode;
use simnet::time::SimDuration;
use simnet::types::IpAddr;
use spire::config::SpireConfig;
use spire::deploy::Deployment;
use spire::hardening::HardeningProfile;

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

/// The batched configuration (Merkle-batched dissemination, a four-deep
/// ordering window) must ride through the same chaos schedule as the
/// stock soak: batches survive crash + restart and catch-up without
/// duplicating or dropping member updates — the agreement and dedup
/// invariants would trip on either. And the batched soak must be exactly
/// as deterministic as the stock one.
#[test]
fn e12_soak_stays_green_with_batching() {
    let cfg = PrimeConfig::plant().with_batching(16, 4);
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
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(42, prime_cfg, None);
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
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(42, prime_cfg, None);
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

/// The checker reads who is down from the deployment, so replicas taken
/// down by hand, not by the driver, count against the budget: three of six
/// down leaves fewer up than the ordering quorum of four, which is over
/// budget, so the delay invariant stays disarmed and reports no stall.
#[test]
fn replicas_taken_down_by_hand_count_against_the_budget() {
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(42, prime_cfg, None);
    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let mut driver = ChaosDriver::new(ChaosPlan::default());
    for r in 0..3 {
        d.take_replica_down(r);
    }
    let step = SimDuration::from_millis(100);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(8), step);
    let bounded_delay = &checker.reports()[2];
    assert_eq!(bounded_delay.name, "bounded-delay");
    assert_eq!(
        (bounded_delay.checks, bounded_delay.violations),
        (0, 0),
        "an over-budget outage must leave the delay invariant disarmed"
    );
}

/// A replica restored by hand owes a catch-up like one the driver heals:
/// the checker sees it come back and records its reconvergence.
#[test]
fn a_replica_restored_by_hand_reconverges() {
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(42, prime_cfg, None);
    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let mut driver = ChaosDriver::new(ChaosPlan::default());
    let step = SimDuration::from_millis(100);
    d.take_replica_down(3);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(1), step);
    d.restore_replica(3);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(8), step);
    assert_eq!(
        checker.reconvergence_us.len(),
        1,
        "one restore, one catch-up: {:?}",
        checker.reconvergence_us
    );
    assert!(checker.all_green(), "{:?}", checker.reports());
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
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(42, prime_cfg, None);
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

// ---- Prime alone: random fault schedules against a `Cluster` ----

fn cluster_timing() -> Timing {
    Timing {
        aru_interval: SimDuration::from_millis(10),
        pp_interval: SimDuration::from_millis(10),
        suspect_timeout: SimDuration::from_millis(600),
        checkpoint_interval: 15,
        catchup_timeout: SimDuration::from_millis(250),
    }
}

/// One chaos run: random ops against a plant-config cluster.
fn chaos_run(seed: u64) {
    let config = PrimeConfig::plant(); // f = 1, k = 1, n = 6
    let mut c = Cluster::new(config, 2);
    c.set_timing(cluster_timing());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut crashed: Option<u32> = None;
    let mut submitted = 0u64;

    for _round in 0..40 {
        match rng.gen_range(0..10) {
            // Mostly: submit updates.
            0..=5 => {
                let client = rng.gen_range(0..2);
                submitted += 1;
                c.submit(client, format!("chaos{submitted}=v"));
            }
            // Crash one replica (the single tolerated intrusion).
            6 if crashed.is_none() => {
                let victim = rng.gen_range(0..6u32);
                c.replicas[victim as usize].byz = ByzMode::Crashed;
                crashed = Some(victim);
            }
            // Heal the crash (attacker evicted / machine replaced).
            7 => {
                if let Some(victim) = crashed.take() {
                    c.replicas[victim as usize].byz = ByzMode::Correct;
                    // A healed replica lost its state: recover it.
                    c.recover_replica(ReplicaId(victim));
                }
            }
            // Proactive recovery of a random healthy replica.
            8 => {
                let candidate = rng.gen_range(0..6u32);
                if crashed != Some(candidate) {
                    c.recover_replica(ReplicaId(candidate));
                }
            }
            // Let time pass.
            _ => {}
        }
        c.run_for(SimDuration::from_millis(rng.gen_range(50..300)));
    }
    // Heal everything and quiesce.
    if let Some(victim) = crashed.take() {
        c.replicas[victim as usize].byz = ByzMode::Correct;
        c.recover_replica(ReplicaId(victim));
    }
    c.run_for(SimDuration::from_secs(6));

    // Agreement: identical execution prefixes and state digests.
    let executed = c.assert_consistent();
    assert!(executed > 0, "seed {seed}: nothing executed");
    // Liveness: every submitted update executed at every replica.
    assert_eq!(
        c.min_executed(),
        submitted,
        "seed {seed}: not all updates executed (submitted {submitted})"
    );
}

#[test]
fn chaos_seed_1() {
    chaos_run(1);
}

#[test]
fn chaos_seed_2() {
    chaos_run(2);
}

#[test]
fn chaos_seed_3() {
    chaos_run(3);
}

#[test]
fn chaos_seed_4() {
    chaos_run(4);
}

#[test]
fn chaos_with_delaying_leader() {
    // The Prime-specific attack mixed into chaos: the view-0 leader delays
    // massively; the cluster must depose it and stay consistent.
    let mut c = Cluster::new(PrimeConfig::plant(), 1);
    c.set_timing(cluster_timing());
    c.replicas[0].byz = ByzMode::DelayLeader(SimDuration::from_secs(60));
    let mut rng = StdRng::seed_from_u64(77);
    let mut submitted = 0;
    for _ in 0..20 {
        submitted += 1;
        c.submit(0, format!("d{submitted}=v"));
        c.run_for(SimDuration::from_millis(rng.gen_range(50..200)));
    }
    c.run_for(SimDuration::from_secs(5));
    assert!(c.replicas[1].view() >= 1, "delaying leader deposed");
    assert_eq!(c.min_executed(), submitted);
    c.assert_consistent();
}

// ---- Whole deployments under scripted faults ----

/// Fast timing with an 800 ms suspicion timeout, for the scripted-fault
/// deployments and the lossy cluster below.
fn scripted_timing() -> Timing {
    Timing {
        aru_interval: SimDuration::from_millis(10),
        pp_interval: SimDuration::from_millis(10),
        suspect_timeout: SimDuration::from_millis(800),
        checkpoint_interval: 20,
        catchup_timeout: SimDuration::from_millis(300),
    }
}

fn cycling_deployment(seed: u64) -> Deployment {
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(400),
            0,
        );
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.set_timing(scripted_timing());
    d
}

#[test]
fn leader_crash_in_full_deployment_triggers_view_change_and_service_continues() {
    let mut d = cycling_deployment(7001);
    d.run_for(SimDuration::from_secs(3));
    let frames_before = d.obs.counter_value("hmi.0.frames_applied");
    assert!(frames_before > 0);
    // A healthy leader means no view changes so far.
    assert_eq!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::ViewChange { .. })),
        0,
        "no view changes before the fault"
    );

    // Replica 0 leads view 0; kill its whole node (host + daemons).
    d.take_replica_down(0);
    d.run_for(SimDuration::from_secs(6));

    // The remaining replicas suspected the silent leader and moved on.
    for i in 1..4 {
        assert!(
            d.replica(i).replica.view() >= 1,
            "replica {i} still in view 0"
        );
    }
    // Every surviving replica journaled its view installation.
    let view_changes = d
        .obs
        .journal_count(|e| matches!(e, obs::Event::ViewChange { .. }));
    assert!(
        view_changes >= 3,
        "3 surviving replicas journal view changes, got {view_changes}"
    );
    for i in 1..4 {
        assert!(
            d.obs.journal_count(
                |e| matches!(e, obs::Event::ViewChange { replica, .. } if *replica == i)
            ) >= 1,
            "replica {i} journaled its view change"
        );
    }
    // The crash itself was journaled as a recovery start.
    assert_eq!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::RecoveryStart { replica: 0 })),
        1
    );
    let frames_after = d.obs.counter_value("hmi.0.frames_applied");
    assert!(
        frames_after > frames_before,
        "display updates resumed after the view change"
    );
}

#[test]
fn fault_free_run_journals_no_view_changes() {
    let mut d = cycling_deployment(7005);
    d.run_for(SimDuration::from_secs(8));
    assert!(
        d.obs.counter_value("hmi.0.frames_applied") > 0,
        "service live"
    );
    assert_eq!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::ViewChange { .. })),
        0,
        "a stable leader never causes view changes"
    );
    assert_eq!(
        d.obs.journal_count(|e| matches!(
            e,
            obs::Event::RecoveryStart { .. } | obs::Event::RecoveryEnd { .. }
        )),
        0,
        "no recoveries scheduled in a plain run"
    );
    // But the journal is not empty: vote-gated frame emissions are there.
    assert!(
        d.obs
            .journal_count(|e| matches!(e, obs::Event::FrameEmit { .. }))
            > 0,
        "frame emissions journaled"
    );
}

#[test]
fn vote_gating_survives_interception_of_one_replica() {
    // Weaken exactly the ARP layer so the attacker can steer ONE replica's
    // external traffic through itself; f+1 voting means the HMI and proxy
    // still act correctly on the remaining replicas' matching messages.
    let profile = HardeningProfile::without("static_arp");
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::RedTeamDistribution)
        .with_cycle(
            Scenario::RedTeamDistribution,
            SimDuration::from_millis(400),
            0,
        );
    let mut d = Deployment::build(cfg, profile, 7002);
    d.set_timing(scripted_timing());
    d.run_for(SimDuration::from_secs(3));
    let frames_before = d.obs.counter_value("hmi.0.frames_applied");

    // Poison the HMI's view of replica 0: its frames now go to the
    // attacker (who drops them).
    let t0 = d.now();
    let mut attacker = Attacker::new();
    attacker.schedule(
        t0 + SimDuration::from_millis(100),
        AttackStep::ArpPoison {
            victim: d.cfg.hmi_ip(0),
            claim_ip: d.cfg.replica_external_ip(0),
            count: 30,
        },
    );
    let mut spec = NodeSpec::new(
        "mitm",
        vec![InterfaceSpec::dynamic(IpAddr::new(10, 20, 0, 66))],
        Box::new(attacker),
    );
    spec.promiscuous = true;
    let node = d.attach_external_attacker(spec);
    d.run_for(SimDuration::from_secs(5));

    assert_eq!(
        d.sim
            .arp_entry(d.hmi_nodes[0], 0, d.cfg.replica_external_ip(0)),
        Some(d.sim.mac_of(node, 0)),
        "the HMI sends replica 0's frames to the attacker"
    );
    // Display still advances and still shows the truth: 3 of 4 replicas
    // supply matching frames, and f+1 = 2 suffice.
    let frames_after = d.obs.counter_value("hmi.0.frames_applied");
    assert!(
        frames_after > frames_before,
        "vote gating masked the interception"
    );
}

/// Ten updates through a cluster that loses each message with
/// probability 5 % (loss stream `seed`), then a minute of quiet. Returns
/// how far the slowest reachable replica got; agreement is asserted.
fn lossy_cluster_min_executed(config: PrimeConfig, seed: u64) -> u64 {
    let mut c = Cluster::new(config, 1);
    c.set_timing(scripted_timing());
    c.set_loss(0.05, seed);
    for i in 0..10 {
        c.submit(0, format!("lossy{i}=1"));
        c.run_for(SimDuration::from_millis(80));
    }
    c.run_for(SimDuration::from_secs(LOSSY_QUIET_S));
    c.assert_consistent();
    let lost = c.obs.journal_count(|e| {
        matches!(
            e,
            obs::Event::PacketDrop {
                kind: obs::event::DropKind::Loss,
                ..
            }
        )
    });
    assert!(lost > 0, "seed {seed}: the loss model dropped nothing");
    c.min_executed()
}

/// Simulated seconds a lossy cluster gets to finish after the last update.
const LOSSY_QUIET_S: u64 = 60;

#[test]
fn prime_converges_over_lossy_links() {
    // 5% loss on every message: Prime's periodic ARU gossip, leader
    // re-proposals and catch-up carry both configurations through at
    // this loss seed. Not at every seed: see the sweep below.
    for config in [PrimeConfig::red_team(), PrimeConfig::plant()] {
        assert_eq!(lossy_cluster_min_executed(config, LOSSY_SEED), 10);
    }
    // A replica that catches up here installs its peers' dedup table with
    // their state, and executes no update they suppressed as a duplicate.
    assert_eq!(lossy_cluster_min_executed(PrimeConfig::plant(), 36), 10);
}

/// A loss seed at which both configurations converge.
const LOSSY_SEED: u64 = 4;

#[test]
#[ignore = "stalls: red_team at loss seeds 3 18 19 21 26 30 36 38 39, plant at 1 2 24 33 34 38 \
            (ROADMAP item 2)"]
fn prime_converges_over_lossy_links_at_every_seed() {
    let mut failed = Vec::new();
    for (name, config) in [
        ("red_team", PrimeConfig::red_team()),
        ("plant", PrimeConfig::plant()),
    ] {
        for seed in 1..=40 {
            let run = std::panic::catch_unwind(|| lossy_cluster_min_executed(config, seed));
            match run {
                Ok(10) => {}
                Ok(executed) => {
                    failed.push(format!("{name} seed {seed}: stalled at {executed}/10"))
                }
                Err(_) => failed.push(format!("{name} seed {seed}: agreement violated")),
            }
        }
    }
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn simnet_link_loss_counted_and_tolerated() {
    struct Pinger {
        peer: IpAddr,
        pongs: u32,
        sent: u32,
    }
    impl simnet::process::Process for Pinger {
        fn on_start(&mut self, ctx: &mut simnet::process::Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_timer(&mut self, ctx: &mut simnet::process::Context<'_>, _t: u64) {
            if self.sent < 200 {
                self.sent += 1;
                let pkt = simnet::packet::Packet {
                    src_ip: ctx.ip(0),
                    dst_ip: self.peer,
                    src_port: simnet::types::Port(1),
                    dst_port: simnet::types::Port(0),
                    kind: simnet::packet::TransportKind::Ping,
                    payload: bytes::Bytes::new(),
                    trace: None,
                };
                ctx.send(0, pkt);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
        fn on_packet(
            &mut self,
            _ctx: &mut simnet::process::Context<'_>,
            pkt: simnet::packet::Packet,
        ) {
            if pkt.kind == simnet::packet::TransportKind::Pong {
                self.pongs += 1;
            }
        }
    }
    struct Silent;
    impl simnet::process::Process for Silent {}

    let mut sim = Simulation::new(99);
    let a = sim.add_node(NodeSpec::new(
        "a",
        vec![InterfaceSpec::dynamic(IpAddr::new(10, 0, 0, 1))],
        Box::new(Pinger {
            peer: IpAddr::new(10, 0, 0, 2),
            pongs: 0,
            sent: 0,
        }),
    ));
    let b = sim.add_node(NodeSpec::new(
        "b",
        vec![InterfaceSpec::dynamic(IpAddr::new(10, 0, 0, 2))],
        Box::new(Silent),
    ));
    let sw = sim.add_switch(2, SwitchMode::Learning);
    let lossy = LinkSpec {
        loss: 0.2,
        ..LinkSpec::lan()
    };
    sim.connect(a, 0, sw, 0, lossy);
    sim.connect(b, 0, sw, 1, LinkSpec::lan());
    sim.run_for(SimDuration::from_secs(5));

    let p = sim.process_ref::<Pinger>(a).expect("pinger");
    assert_eq!(p.sent, 200);
    // With 20% loss each way some pongs are missing, but most arrive.
    assert!(p.pongs < 200, "some loss observed");
    assert!(p.pongs > 100, "most pings survived, got {}", p.pongs);
    assert!(sim.obs().counter_value("net.frames_dropped") > 0);
}

#[test]
fn breach_then_system_reset_repopulates_state_from_field() {
    // E6 continuation (§III-A): three of four replicas crash with state
    // loss — beyond f = 1, so no catch-up quorum exists and the system
    // cannot recover from replicas. The automatic reset restarts ALL
    // replicas in a fresh era; normal field polling repopulates state.
    let mut d = cycling_deployment(7004);
    d.run_for(SimDuration::from_secs(3));
    for i in 0..3 {
        d.take_replica_down(i);
    }
    d.run_for(SimDuration::from_secs(2));
    d.system_reset();
    d.run_for(SimDuration::from_secs(8));
    let execs: Vec<u64> = (0..4).map(|i| d.replica(i).replica.exec_seq()).collect();
    assert!(
        execs.iter().all(|&e| e > 0),
        "all replicas executing again: {execs:?}"
    );
    // The fresh era's state reflects the field truth (polls repopulated it).
    let plc_positions = d.plc(0).positions();
    let shown = d.hmi(0).hmi.positions("jhu").map(|p| p.to_vec());
    assert_eq!(
        shown,
        Some(plc_positions),
        "display matches physical ground truth"
    );
}
