//! Determinism and fidelity of the observability layer: the same seed
//! must produce a byte-identical event journal (and therefore the same
//! digest), different seeds must not, the registry must agree with the
//! stats structs it mirrors, and a correct run refuses no signature.

use bench::plant_experiments::{e4_plant_deployment, e5_reaction_time};
use plc::topology::Scenario;
use prime::types::Config as PrimeConfig;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::Deployment;
use spire::hardening::HardeningProfile;

#[test]
fn e4_same_seed_yields_identical_journal_digest() {
    let a = e4_plant_deployment(4242, 1, 6);
    let b = e4_plant_deployment(4242, 1, 6);
    assert!(a.obs.journal_len > 0, "the run journaled events");
    assert_eq!(
        a.obs.journal_digest, b.obs.journal_digest,
        "same seed, same journal digest"
    );
    // Not just the digest: the entire metrics snapshot is reproducible.
    assert_eq!(a.obs, b.obs, "same seed, same counters and journal");
    assert_eq!(a.hmi_frames, b.hmi_frames);
    assert_eq!(a.view_changes, b.view_changes);
}

#[test]
fn e4_different_seeds_yield_different_digests() {
    let a = e4_plant_deployment(4242, 1, 6);
    let b = e4_plant_deployment(4243, 1, 6);
    assert_ne!(
        a.obs.journal_digest, b.obs.journal_digest,
        "different seeds perturb event timing, changing the journal"
    );
}

/// A correct run refuses no Prime envelope: a signing or encoding
/// regression shows as refusals here, not as a silent stall. The plant
/// run reinstalls replicas, so their successors' counts are read too.
#[test]
fn a_correct_run_refuses_no_prime_envelope() {
    let run = e4_plant_deployment(4242, 1, 6);
    assert!(run.recoveries >= 1, "a replica was reinstalled");
    let refused: Vec<_> = run
        .obs
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("prime.r") && name.ends_with(".bad_sigs"))
        .collect();
    assert_eq!(refused.len(), 6, "every replica counts its refusals");
    for (name, value) in refused {
        assert_eq!(*value, 0, "{name}");
    }
}

/// What you observe is what runs: the profiler charges the same event
/// loop an unprofiled run goes through, so turning it on changes nothing
/// the run leaves behind.
#[test]
fn profiling_a_run_does_not_change_it() {
    // A one-second day plus E4's five-second tail.
    let plain = e4_plant_deployment(4242, 1, 1);
    obs::prof::set_enabled(true);
    let (profiled, profile) = obs::prof::capture(|| e4_plant_deployment(4242, 1, 1));
    obs::prof::set_enabled(false);
    assert_eq!(
        profile.total_time_us(),
        6_000_000,
        "the profiler charged every simulated microsecond of the run"
    );
    assert_eq!(plain.obs.journal_digest, profiled.obs.journal_digest);
    assert_eq!(plain.obs.journal_len, profiled.obs.journal_len);
    assert_eq!(plain.meta.sim_events, profiled.meta.sim_events);
}

#[test]
fn e5_same_seed_yields_identical_span_trees_and_digest() {
    // E5 runs with span tracing enabled, so this pins determinism of
    // the whole tracing pipeline: id allocation, packet-borne context
    // propagation, and journaled start/end records.
    let a = e5_reaction_time(4242, 4);
    let b = e5_reaction_time(4242, 4);
    assert_eq!(
        a.obs.journal_digest, b.obs.journal_digest,
        "same seed, same journal digest with tracing enabled"
    );
    let ta = obs::trace::assemble(&a.obs.journal);
    let tb = obs::trace::assemble(&b.obs.journal);
    assert_eq!(ta.orphan_ends, 0, "every journaled end had a start");
    assert!(!ta.traces.is_empty(), "the measured flips produced traces");
    assert_eq!(ta, tb, "same seed, identical assembled span trees");
    assert_eq!(a.spire_stages, b.spire_stages);
    assert_eq!(a.commercial_stages, b.commercial_stages);
}

#[test]
fn e5_different_seeds_yield_different_digests() {
    let a = e5_reaction_time(4242, 4);
    let b = e5_reaction_time(4243, 4);
    assert_ne!(
        a.obs.journal_digest, b.obs.journal_digest,
        "different seeds perturb span timing, changing the journal"
    );
}

#[test]
fn proxy_and_network_stats_read_the_registry_counts() {
    let cfg = SpireConfig::minimal(PrimeConfig::red_team(), Scenario::PlantSubset);
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 515);
    d.run_for(SimDuration::from_secs(5));

    for p in 0..d.cfg.proxies.len() as u32 {
        assert_eq!(
            d.obs.counter_value(&format!("proxy.{p}.updates_sent")),
            d.proxy(p).stats.updates_sent,
            "proxy {p} updates_sent mirrored"
        );
    }
    // Network counters flow through the same registry.
    assert!(d.sim.obs().same_hub(&d.obs), "one registry per deployment");
    assert!(
        d.obs.counter_value("net.frames_delivered") > 0,
        "traffic flowed"
    );
    // The report renders every registered counter plus the digest line.
    let report = d.obs.report();
    assert!(
        report.render().contains("journal:"),
        "render ends with the journal line"
    );
}
