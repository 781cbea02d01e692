//! Cross-crate integration tests: every experiment reproduces the
//! paper's qualitative outcome (see EXPERIMENTS.md for the full mapping).

use std::collections::BTreeSet;

use bench::figures::{fig1_conventional, fig2_spire, fig4_hmi};
use bench::mana_experiment::e7_mana_detection;
use bench::plant_experiments::{e4_plant_deployment, e5_reaction_time};
use bench::recovery_experiments::{e6_ground_truth, e8_recovery_ablation, e9_diversity_ablation};
use bench::redteam_experiments::{
    e1_commercial_attacks, e2_spire_network_attacks, e3_replica_excursion,
};
use bench::saturation::{e11_default_rates, e11_saturation};
use redteam::report::AttackOutcome;
use simnet::capture::TapId;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;

#[test]
fn e1_commercial_system_falls() {
    let report = e1_commercial_attacks(101).report;
    // Every §IV-B attack on the commercial system succeeded.
    assert!(report.rows.len() >= 4, "all four attack stages ran");
    for row in &report.rows {
        assert_eq!(
            row.outcome,
            AttackOutcome::Succeeded,
            "commercial system resisted '{}' — it must not",
            row.attack
        );
    }
    assert!(!report.target_held("commercial"));
}

#[test]
fn e2_spire_withstands_network_attacks() {
    let result = e2_spire_network_attacks(202);
    assert!(
        result.report.target_held("spire"),
        "{}",
        result.report.render()
    );
    // "They had no visibility into the system": the scan saw nothing.
    let scan = &result.report.rows[0];
    assert_eq!(scan.outcome, AttackOutcome::NoVisibility);
    // Poisoning bounced off static ARP tables.
    assert!(
        result.arp_rejections > 0,
        "poison attempts were rejected, not ignored"
    );
    // The breaker cycle never stopped.
    assert!(result.frames_after > result.frames_before);
}

#[test]
fn e3_excursion_never_disrupts_service() {
    let report = e3_replica_excursion(303).report;
    assert!(report.spire_survived(), "{report:#?}");
    assert_eq!(report.stages.len(), 5);
    assert!(report.stages[1].evidence.contains("auth failures"));
    assert!(report.stages[2].evidence.contains("dirtycow failed"));
}

#[test]
fn e4_compressed_day_of_plant_operation() {
    // One compressed day with proactive recoveries; full E4 runs in the bench.
    let run = e4_plant_deployment(404, 1, 30);
    assert!(
        run.recoveries >= 2,
        "proactive recoveries happened: {run:?}"
    );
    assert!(run.min_executed > 0, "all replicas executed updates");
    assert!(run.hmi_frames > 0, "displays stayed live");
    assert!(run.replicas_consistent, "replica state digests agree");
}

#[test]
fn e5_spire_meets_timing_and_beats_commercial() {
    let r = e5_reaction_time(505, 8);
    assert_eq!(r.spire.samples, 8, "every flip measured");
    assert_eq!(r.commercial.samples, 8);
    assert_eq!(r.spire.missed, 0, "no missed display updates");
    assert_eq!(r.commercial.missed, 0);
    assert!(
        r.spire_meets_requirement(),
        "spire median {} > requirement",
        r.spire.median
    );
    assert!(
        r.spire_faster(),
        "spire {} vs commercial {}",
        r.spire.median,
        r.commercial.median
    );
}

#[test]
fn e5_prime_ordering_dominates_the_reaction_path() {
    // The span-level attribution pins WHERE Spire's reaction time goes:
    // Prime's ordering pipeline (queueing for the next pre-prepare plus
    // the three-phase agreement), not the Spines overlay and not the
    // field devices, is the dominant stage — the cost of intrusion
    // tolerance is the ordering latency, exactly as the paper argues.
    let r = e5_reaction_time(505, 8);
    let spire = r.spire_stages.as_ref().expect("spire path traced");
    assert_eq!(spire.chains, 8, "every flip produced a complete chain");
    let prime = spire.p50_share_us(|s| {
        matches!(
            s,
            obs::Stage::PrimeQueue
                | obs::Stage::PrimePrePrepare
                | obs::Stage::PrimePrepare
                | obs::Stage::PrimeCommit
                | obs::Stage::PrimeExecute
        )
    });
    let detect = spire.p50_share_us(|s| s == obs::Stage::Detect);
    let network = spire.p50_share_us(|s| {
        matches!(
            s,
            obs::Stage::Publish | obs::Stage::SpinesHop | obs::Stage::Deliver
        )
    });
    assert!(
        prime > detect,
        "ordering {prime} us dominates detection {detect} us"
    );
    assert!(
        prime > 10 * network.max(1),
        "ordering {prime} us dwarfs network transit {network} us"
    );
    // The shares are an exact decomposition of the recorded median.
    assert_eq!(spire.p50_sum_us(), spire.p50_total_us);
    let p50 = r.spire.median.as_micros() as u64;
    assert!(
        spire.p50_total_us.abs_diff(p50) <= 1,
        "chain total {} us vs recorded median {} us",
        spire.p50_total_us,
        p50
    );
    // The commercial path has no ordering stage at all: its latency is
    // pure detection (the slow serial poll loop).
    let comm = r
        .commercial_stages
        .as_ref()
        .expect("commercial path traced");
    let comm_detect = comm.p50_share_us(|s| s == obs::Stage::Detect);
    assert!(
        comm_detect * 2 > comm.p50_total_us,
        "commercial latency is detection-bound: {comm_detect} of {}",
        comm.p50_total_us
    );
}

#[test]
fn e6_ground_truth_recovery_after_breach() {
    let run = e6_ground_truth(606);
    assert!(!run.replica_recovery_possible, "1 intact replica < f+1 = 2");
    assert!(
        run.field_rebuild_correct,
        "state rebuilt from field devices matches reality"
    );
}

#[test]
fn e7_mana_detects_the_red_team() {
    let run = e7_mana_detection(707);
    assert!(run.training_windows > 50, "baseline trained");
    assert!(
        run.clean_flag_rate < 0.05,
        "clean traffic mostly unflagged: {}",
        run.clean_flag_rate
    );
    assert!(run.detected_scan, "port scan detected");
    assert!(run.detected_arp, "arp poisoning detected");
    assert!(run.detected_flood, "dos flood detected");
}

#[test]
fn e8_six_replicas_survive_recovery_plus_intrusion_four_do_not() {
    let arms = e8_recovery_ablation(808);
    assert_eq!(arms.len(), 2);
    let four = &arms[0];
    let six = &arms[1];
    assert_eq!(four.n, 4);
    assert_eq!(six.n, 6);
    assert!(
        !four.stayed_live,
        "3f+1 must stall under intrusion + recovery: {four:?}"
    );
    assert!(six.stayed_live, "3f+2k+1 must stay live: {six:?}");
}

#[test]
fn e9_defense_ordering_holds() {
    let rows = e9_diversity_ablation(909, 5);
    // For the 8-hour attacker: identical breaches immediately; diversity
    // delays; diversity + recovery survives.
    let find = |defense: &str, hours: f64| {
        rows.iter()
            .find(|r| r.defense == defense && r.exploit_hours == hours)
            .expect("row exists")
            .clone()
    };
    let ident = find("identical replicas", 8.0);
    let divers = find("diversity only", 8.0);
    let full = find("diversity + recovery (30 min cycle)", 8.0);
    assert_eq!(ident.breach_fraction, 1.0);
    assert_eq!(divers.breach_fraction, 1.0);
    assert!(full.breach_fraction < 0.5, "recovery holds: {full:?}");
    let i = ident.median_breach_hours.expect("identical breaches");
    let d = divers.median_breach_hours.expect("diversity-only breaches");
    assert!(d > i, "diversity bought time: {d} vs {i}");
}

#[test]
fn e11_latency_flat_then_knee() {
    // The paper's qualitative performance claim: bounded-delay ordering
    // keeps latency flat as offered load grows, until the fabric
    // saturates and queueing takes over (the knee).
    for seed in [42, 1111] {
        let run = e11_saturation(seed, &e11_default_rates());
        assert!(
            run.is_flat_then_knee(),
            "seed {seed}:\n{}",
            bench::saturation::render_saturation(&run)
        );
    }
}

#[test]
fn e7b_roc_curves_separate_attacks_from_baseline() {
    let run = bench::mana_experiment::e7_roc(717);
    assert!(run.windows > 30, "10 s of 250 ms windows: {run:?}");
    assert!(run.attack_windows >= 3, "attack intervals labeled: {run:?}");
    assert!(run.auc_gaussian > 0.9, "gaussian AUC {}", run.auc_gaussian);
    assert!(run.auc_kmeans > 0.9, "k-means AUC {}", run.auc_kmeans);
}

#[test]
fn figures_render_expected_content() {
    let f1 = fig1_conventional(61);
    assert!(f1.contains("primary master"));
    assert!(
        f1.contains("true"),
        "commercial HMI shows closed breakers: {f1}"
    );

    let f2 = fig2_spire(62);
    assert!(f2.contains("6 SCADA-master replicas"));
    assert!(f2.contains("internal switch: true"));

    let f4 = fig4_hmi(63);
    assert!(f4.contains("B10-1"));
    assert!(f4.contains("Building 4"));
}

#[test]
fn plant_scale_deployment_all_seventeen_plcs() {
    // The full §V roster: plant subset + 10 distribution + 6 generation
    // PLCs, three HMIs, six replicas — everything polls and orders.
    let cfg = SpireConfig::plant();
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 7003);
    d.set_timing(fast_timing());
    d.run_for(SimDuration::from_secs(4));
    assert_eq!(d.cfg.proxies.len(), 17);
    for p in 0..17 {
        assert!(
            d.proxy(p).stats.updates_sent >= 1,
            "proxy {p} reported status"
        );
    }
    assert!(
        d.min_executed() >= 17,
        "every scenario's status ordered at least once"
    );
    // All three HMI locations display.
    for h in 0..3 {
        assert!(
            d.obs.counter_value(&format!("hmi.{h}.frames_applied")) >= 1,
            "hmi {h} live"
        );
    }
    // The plant's key set is fixed: every up replica holds exactly the
    // configured scenarios, and running on adds none.
    let configured: BTreeSet<String> = d.cfg.proxies.iter().map(|p| p.scenario.tag()).collect();
    assert_eq!(configured.len(), 17);
    let held = |d: &Deployment| -> Vec<BTreeSet<String>> {
        (0..d.cfg.prime.n())
            .filter(|&r| d.replica_up(r))
            .map(|r| {
                let state = d.replica(r).replica.app().state();
                state.scenario_tags().map(str::to_string).collect()
            })
            .collect()
    };
    let before = held(&d);
    d.run_for(SimDuration::from_secs(4));
    let after = held(&d);
    assert_eq!((before.len(), after.len()), (6, 6), "every replica up");
    for (when, sets) in [("at 4 s", before), ("4 s later", after)] {
        for tags in sets {
            assert_eq!(tags, configured, "{when}");
        }
    }
}

#[test]
fn the_plant_deployment_keeps_no_capture_until_a_reader_attaches_one() {
    // E4's shape: the plant configuration with five proxies.
    let mut cfg = SpireConfig::plant();
    cfg.proxies.truncate(5);
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), 42);
    d.set_timing(fast_timing());
    d.run_for(SimDuration::from_secs(5));
    // The first tap on the simulation: the build attached none.
    let tap = d.sim.add_tap(d.external_switch);
    assert_eq!(tap, TapId(0));
    let attached = d.now();
    d.run_for(SimDuration::from_secs(1));
    let records = d.sim.drain_tap(tap);
    assert!(!records.is_empty(), "the operations switch carried traffic");
    assert!(records.iter().all(|r| r.time >= attached));
}
