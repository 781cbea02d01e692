//! Regional scale-out integration suite (E14 tentpole): a 10-substation
//! deployment soaked with WAN-trunk flaps and a compromised substation
//! proxy must keep every invariant green, drain its queues after the
//! heal, and reproduce bit-identically from the same seed. Release
//! builds additionally run the full device-count sweep and check the
//! issue's acceptance bars: aggregation ratio >= 5x at the largest
//! point and sub-linear reaction degradation across 10 -> 1000 devices.

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker};
use chaos::plan::ChaosPlan;
use prime::types::Config as PrimeConfig;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;
use spire::site::SubstationTopology;

const DEVICES_PER: u32 = 2;
/// The substation proxy flipped to lying mode mid-soak. Not station 0:
/// the checker's HMI-truth invariant follows s0d0, which must stay
/// honest to prove the blast radius is local.
const COMPROMISED_STATION: u32 = 3;

/// The soak deployment: `stations` substations x 2 devices feeding the
/// batched ordering pipeline (the same configuration the E14 sweep
/// arms).
fn regional_deployment(stations: u32, seed: u64) -> (Deployment, PrimeConfig) {
    let prime = PrimeConfig::plant().with_batching(32, 4);
    let cfg = SpireConfig::regional(prime, SubstationTopology::new(stations, DEVICES_PER));
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.set_timing(fast_timing());
    (d, prime)
}

struct SoakOutcome {
    journal_digest: itcrypto::sha256::Digest,
    sim_events: u64,
    all_green: bool,
    reports: Vec<chaos::invariants::InvariantReport>,
    min_executed: u64,
    flaps_injected: u64,
}

/// Warm up, flip one proxy to compromised, run the regional flap
/// schedule with the continuous checker sampling, heal, quiesce. Health
/// snapshots are armed so the flight recorder captures the post-heal
/// queue state.
fn regional_soak(
    seed: u64,
    stations: u32,
    horizon: SimDuration,
    quiesce: SimDuration,
) -> (SoakOutcome, Deployment) {
    obs::prof::set_health_every(5);
    let (mut d, prime) = regional_deployment(stations, seed);
    d.run_for(SimDuration::from_secs(1));
    d.substation_proxy_mut(COMPROMISED_STATION)
        .set_compromised(true);
    let plan = ChaosPlan::regional(seed, stations, horizon);
    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime), &d);
    let mut driver = ChaosDriver::new(plan);
    let step = SimDuration::from_millis(100);
    driver.run_soak(&mut d, &mut checker, horizon, step);
    driver.heal_all(&mut d, &mut checker);
    driver.run_quiesce(&mut d, &mut checker, quiesce, step);
    obs::prof::set_health_every(0);
    let outcome = SoakOutcome {
        journal_digest: d.obs.journal_digest(),
        sim_events: d.sim.events_processed(),
        all_green: checker.all_green(),
        reports: checker.reports(),
        min_executed: d.min_executed(),
        flaps_injected: driver.total_injected(),
    };
    (outcome, d)
}

/// The headline soak: trunk flaps on a 10-substation grid plus one
/// lying proxy never trip agreement, HMI truth, bounded delay, or
/// reconvergence — substation loss is outside the replica fault budget,
/// so the core must ride straight through it — and after heal +
/// quiescence every queue in the regional pipeline is drained.
/// (Debug builds shorten the fault window to stay inside the
/// `cargo test -q` time budget; release runs the full schedule.)
#[test]
fn regional_soak_with_flaps_and_compromised_proxy_stays_green_and_drains() {
    let (horizon, quiesce) = if cfg!(debug_assertions) {
        (SimDuration::from_secs(6), SimDuration::from_secs(4))
    } else {
        (SimDuration::from_secs(10), SimDuration::from_secs(6))
    };
    let (outcome, d) = regional_soak(42, 10, horizon, quiesce);
    assert!(
        outcome.flaps_injected >= 3,
        "the schedule should actually flap trunks, injected {}",
        outcome.flaps_injected
    );
    assert!(
        outcome.all_green,
        "invariant violations during the regional soak: {:?}",
        outcome.reports
    );
    let agreement = &outcome.reports[0];
    assert_eq!(agreement.name, "agreement");
    assert!(agreement.checks > 0, "agreement was actually sampled");
    let bounded_delay = &outcome.reports[2];
    assert_eq!(bounded_delay.name, "bounded-delay");
    assert!(bounded_delay.checks > 0, "bounded-delay armed during soak");
    assert!(
        outcome.min_executed > 0,
        "replicas kept ordering substation reports"
    );

    // The compromised proxy lied about its own bank only: the checker's
    // honest station (s0d0) matched ground truth throughout (HMI-truth
    // green above), while station 3's view diverged from the field.
    let lied = d
        .hmi(0)
        .hmi
        .positions(&format!("s{COMPROMISED_STATION}d0"))
        .expect("compromised station still renders");
    let truth = d
        .plc(d.cfg.device_index(COMPROMISED_STATION, 0))
        .positions();
    assert_ne!(
        lied, truth,
        "compromised proxy's misreports reached the HMI"
    );

    // Queue drain, from the flight recorder's final health snapshots:
    // replica PO queues are empty-ish and catch-up is done, daemon
    // forwarding queues are empty, and no substation proxy is sitting
    // on an unactuated command.
    let mut replica_tail: std::collections::BTreeMap<u32, (u32, bool)> =
        std::collections::BTreeMap::new();
    let mut link_tail: std::collections::BTreeMap<(u32, u8), u32> =
        std::collections::BTreeMap::new();
    for r in d.obs.journal_records() {
        match r.event {
            obs::Event::ReplicaHealth {
                replica,
                po_queue,
                catching_up,
                ..
            } => {
                replica_tail.insert(replica, (po_queue, catching_up));
            }
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
        PrimeConfig::plant().n(),
        "every replica journaled health snapshots"
    );
    for (replica, (po_queue, catching_up)) in &replica_tail {
        assert!(
            *po_queue <= 2,
            "replica {replica} PO queue not drained after quiesce: {po_queue}"
        );
        assert!(
            !catching_up,
            "replica {replica} still catching up after quiesce"
        );
    }
    for ((daemon, link), depth) in &link_tail {
        assert_eq!(
            *depth, 0,
            "daemon {daemon} link {link} forwarding queue not empty after quiesce"
        );
    }
    for s in 0..10 {
        assert_eq!(
            d.substation_proxy(s).stats.commands_pending,
            0,
            "station {s} left a command un-actuated"
        );
    }
}

/// The soak is deterministic: the same seed reproduces the same journal
/// digest and event count, flaps and lying proxy included. A smaller
/// grid and shorter window keep the double run cheap — determinism does
/// not need duration.
#[test]
fn regional_soak_is_deterministic() {
    let horizon = SimDuration::from_secs(4);
    let quiesce = SimDuration::from_secs(3);
    let (a, _) = regional_soak(7, 4, horizon, quiesce);
    let (b, _) = regional_soak(7, 4, horizon, quiesce);
    assert_eq!(a.journal_digest, b.journal_digest, "journal digest drifted");
    assert_eq!(a.sim_events, b.sim_events, "event count drifted");
    assert_eq!(a.flaps_injected, b.flaps_injected);
}

/// The issue's acceptance bars on the full 10 -> 1000 device sweep:
/// at 100 substations x 10 devices the proxy tier coalesces >= 5
/// device polls into each ordered report, and the median reaction time
/// degrades sub-linearly in total device count. Release-only: the
/// largest point alone simulates ~10 s of a 1000-device grid.
#[cfg(not(debug_assertions))]
#[test]
fn e14_full_sweep_meets_aggregation_and_degradation_bars() {
    let run = bench::regional_experiment::e14_regional(42, &[(1, 10), (100, 10)], 3);
    assert!(
        run.peak_aggregation_ratio() >= 5.0,
        "aggregation ratio at the largest point below the 5x bar: {}",
        run.peak_aggregation_ratio()
    );
    assert!(
        run.degradation_sub_linear(),
        "median reaction degraded super-linearly across the sweep"
    );
    let largest = run.points.last().expect("sweep has points");
    assert_eq!(largest.total_devices, 1000);
    assert!(
        largest.ordered_updates_per_s() < 2_000.0,
        "ordered-update volume should scale with substations, not devices: {}",
        largest.ordered_updates_per_s()
    );
    assert!(
        largest.stages.is_some(),
        "stage breakdown captured at the largest point"
    );
}
