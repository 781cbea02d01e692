//! Experiments E6, E8, E9: ground-truth recovery, the 3f+2k+1 ablation,
//! and the diversity/recovery race.

use crate::registry::RunMeta;
use diversity::economics::{race, RaceConfig, RaceOutcome};
use diversity::variant::BinaryHardening;
use plc::topology::Scenario;
use prime::byzantine::ByzMode;
use prime::harness::Cluster;
use prime::types::{Config as PrimeConfig, ReplicaId};
use scada::ground_truth::{assess, rebuild_from_field};
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;

/// E6 result.
#[derive(Clone, Debug)]
pub struct GroundTruthRun {
    /// Replicas crashed in the breach.
    pub crashed: u32,
    /// Replicas left with intact state.
    pub intact: u32,
    /// The `f+1` bound needed for replica-based recovery.
    pub needed_for_replica_recovery: u32,
    /// Whether replica-based recovery was safe.
    pub replica_recovery_possible: bool,
    /// Whether the rebuilt state matched the true field positions.
    pub field_rebuild_correct: bool,
    /// Determinism capture of the deployment (digest + event count).
    pub meta: RunMeta,
}

/// E6 — assumption breach and ground-truth recovery: crash five of six
/// replicas (beyond any BFT bound), show that replica-based recovery is
/// impossible, then rebuild the master state by polling the field devices.
pub fn e6_ground_truth(seed: u64) -> GroundTruthRun {
    let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::RedTeamDistribution).with_cycle(
        Scenario::RedTeamDistribution,
        SimDuration::from_millis(500),
        6,
    );
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.set_timing(fast_timing());
    // Run a workload so there is real state (breakers moved).
    d.run_for(SimDuration::from_secs(6));

    // The breach: 5 of 6 replicas crash and lose their state.
    let crashed = 5u32;
    for i in 0..crashed {
        d.take_replica_down(i);
    }

    let intact = 6 - crashed;
    let assessment = assess(PrimeConfig::plant(), intact);

    // Ground-truth rebuild: poll every field device through its proxy.
    let field_polls: Vec<(String, Vec<bool>)> = (0..d.cfg.proxies.len() as u32)
        .map(|p| (d.proxy(p).scenario().tag(), d.plc(p).positions()))
        .collect();
    let rebuilt = rebuild_from_field(&field_polls);
    let field_rebuild_correct = field_polls
        .iter()
        .all(|(tag, positions)| rebuilt.scenario(tag).map(|s| &s.positions) == Some(positions));

    GroundTruthRun {
        crashed,
        intact,
        needed_for_replica_recovery: assessment.needed,
        replica_recovery_possible: assessment.recoverable_from_replicas,
        field_rebuild_correct,
        meta: RunMeta::capture("e6.deployment", &d.obs, &d.sim),
    }
}

/// One arm of the E8 ablation.
#[derive(Clone, Debug)]
pub struct RecoveryArm {
    /// The configuration label.
    pub label: String,
    /// Replica count.
    pub n: u32,
    /// Updates executed (minimum over healthy replicas) during the window.
    pub executed_during_window: u64,
    /// Whether ordering continued while one replica was crashed *and* one
    /// was recovering.
    pub stayed_live: bool,
}

/// E8 — why six replicas: 3f+1 vs 3f+2k+1 under one intrusion plus one
/// concurrent proactive recovery.
pub fn e8_recovery_ablation(_seed: u64) -> Vec<RecoveryArm> {
    let mut arms = Vec::new();
    for (label, config) in [
        (
            "3f+1 (n=4, no recovery margin)".to_string(),
            PrimeConfig::new(1, 0),
        ),
        ("3f+2k+1 (n=6, k=1)".to_string(), PrimeConfig::plant()),
    ] {
        let mut c = Cluster::new(config, 1);
        c.set_timing(fast_timing());
        // Warm up.
        for i in 0..5 {
            c.submit(0, format!("warm{i}=1"));
        }
        c.run_for(SimDuration::from_secs(1));
        // One intrusion (crash) + one replica into proactive recovery.
        c.replicas[1].byz = ByzMode::Crashed;
        let n = config.n();
        c.partitioned.insert(n - 1); // recovering: down, state wiped below
        c.recover_replica(ReplicaId(n - 1));
        let before = c.min_executed();
        for i in 0..10 {
            c.submit(0, format!("window{i}=1"));
            c.run_for(SimDuration::from_millis(100));
        }
        c.run_for(SimDuration::from_secs(2));
        let after = c.min_executed();
        arms.push(RecoveryArm {
            label,
            n,
            executed_during_window: after.saturating_sub(before),
            stayed_live: after.saturating_sub(before) >= 10,
        });
    }
    arms
}

/// One row of the E9 diversity table.
#[derive(Clone, Debug)]
pub struct DiversityRow {
    /// Defense configuration.
    pub defense: String,
    /// Mean attacker hours per exploit.
    pub exploit_hours: f64,
    /// Median time-to-breach over the trials (None = survived horizon).
    pub median_breach_hours: Option<f64>,
    /// Fraction of trials breached within the two-week horizon.
    pub breach_fraction: f64,
}

/// E9 — the diversity/recovery race: identical vs. diversified vs.
/// diversified + proactive recovery, across attacker skill levels.
pub fn e9_diversity_ablation(seed: u64, trials: u64) -> Vec<DiversityRow> {
    let mut rows = Vec::new();
    let horizon = SimDuration::from_secs(14 * 24 * 3600);
    for &exploit_hours in &[2.0f64, 8.0, 24.0] {
        for (defense, diversity, recovery) in [
            ("identical replicas", false, None),
            ("diversity only", true, None),
            (
                "diversity + recovery (30 min cycle)",
                true,
                Some((SimDuration::from_secs(1800), SimDuration::from_secs(300), 1)),
            ),
        ] {
            let cfg = RaceConfig {
                n: 6,
                f: 1,
                diversity,
                recovery,
                exploit_hours_mean: exploit_hours,
                hardening: BinaryHardening::deployed_2017(),
                horizon,
            };
            let outcomes: Vec<RaceOutcome> = (0..trials).map(|t| race(cfg, seed + t)).collect();
            let mut breach_hours: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.breach_at.map(|t| t.as_secs_f64() / 3600.0))
                .collect();
            breach_hours.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let breach_fraction = breach_hours.len() as f64 / trials as f64;
            // The median exists only when more than half the trials
            // breached; otherwise the median outcome is "survived".
            let median_breach_hours = if breach_hours.len() as u64 * 2 > trials {
                Some(breach_hours[breach_hours.len() / 2])
            } else {
                None
            };
            rows.push(DiversityRow {
                defense: defense.to_string(),
                exploit_hours,
                median_breach_hours,
                breach_fraction,
            });
        }
    }
    rows
}

/// Renders the E9 table.
pub fn render_diversity(rows: &[DiversityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>14} {:>20} {:>16}\n",
        "defense", "exploit-hours", "median-breach (h)", "breach-fraction"
    ));
    out.push_str(&format!("{}\n", "-".repeat(92)));
    for r in rows {
        out.push_str(&format!(
            "{:<38} {:>14.1} {:>20} {:>16.2}\n",
            r.defense,
            r.exploit_hours,
            r.median_breach_hours
                .map_or("> horizon".to_string(), |h| format!("{h:.1}")),
            r.breach_fraction
        ));
    }
    out
}
