//! Experiment E13: wide-area site failover — each paper configuration
//! (`6@1`, `3+3`, `2+2+1+1`) runs the plant workload while the chaos
//! engine severs and heals an entire site mid-run (see EXPERIMENTS.md,
//! "E13").
//!
//! Per configuration the run measures ordering continuity (executed
//! counts before / during / after the sever), E5-style reaction-time
//! medians in the same three windows, reconvergence latency after the
//! heal, and the invariant checker's verdicts. `3+3` and `2+2+1+1` must
//! stay live through the sever (via a degraded epoch and the native
//! quorum respectively); `6@1` must go dark and the bounded-delay
//! invariant must say so.

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker, InvariantReport};
use chaos::plan::ChaosPlan;
use prime::types::{Config as PrimeConfig, Membership};
use simnet::time::SimDuration;
use spire::deploy::Deployment;
use spire::latency::{measure_flips, summarize};
use spire::site::{SiteTopology, SurvivalMode};

use crate::chaos_experiment::{chaos_rig, render_reconvergence};
use crate::json::{self, Json};
use crate::registry::RunMeta;

/// One configuration's failover leg.
#[derive(Clone, Debug)]
pub struct SiteFailoverLeg {
    /// Experiment id of this leg (`e13a` / `e13b` / `e13c`).
    pub id: &'static str,
    /// Configuration label (`6@1`, `3+3`, `2+2+1+1`).
    pub config: String,
    /// Name of the severed site.
    pub severed_site: String,
    /// Survival-mode verdict of the management plane.
    pub survival: String,
    /// Members of the degraded epoch, when one was installed.
    pub degraded_members: Vec<u32>,
    /// Minimum executed count across all replicas before the sever.
    pub exec_before: u64,
    /// Minimum executed count across the survivors at the end of the
    /// sever window (all replicas when no survivor remains).
    pub exec_during: u64,
    /// Minimum executed count across all replicas after heal + quiesce.
    pub exec_after: u64,
    /// Whether ordering kept advancing while the site was severed.
    pub ordering_live_during: bool,
    /// Whether this leg is *expected* to lose liveness under the sever.
    pub expect_liveness_loss: bool,
    /// Whether the bounded-delay invariant's verdict matched the
    /// expectation (fired iff liveness loss was expected).
    pub liveness_verdict_correct: bool,
    /// Median reaction time (µs) before the sever.
    pub reaction_before_us: Option<u64>,
    /// Median reaction time (µs) while severed (`None` when the HMI
    /// never updated — the `6@1` outcome).
    pub reaction_during_us: Option<u64>,
    /// Median reaction time (µs) after heal + reconvergence.
    pub reaction_after_us: Option<u64>,
    /// Catch-up latencies (µs) the checker recorded after the heal.
    pub reconvergence_us: Vec<u64>,
    /// Per-invariant verdicts for the whole leg.
    pub invariants: Vec<InvariantReport>,
    /// Determinism capture (journal digest + event count).
    pub meta: RunMeta,
}

/// The full E13 run: one leg per paper configuration.
#[derive(Clone, Debug)]
pub struct SiteFailoverRun {
    /// The legs, in `6@1`, `3+3`, `2+2+1+1` order.
    pub legs: Vec<SiteFailoverLeg>,
}

impl SiteFailoverRun {
    /// The paper's headline: every multi-site configuration rode through
    /// the sever, the single-site configuration correctly reported loss.
    pub fn all_verdicts_correct(&self) -> bool {
        self.legs.iter().all(|l| l.liveness_verdict_correct)
    }
}

/// E5's measurement device, chaos-aware: flips breaker 1 of proxy 0's
/// PLC and times the HMI-0 box transition; when each flip's window closes
/// the invariant checker samples (reading the new ground truth, and
/// keeping bounded-delay armed).
fn measure_reactions(
    d: &mut Deployment,
    mut checker: Option<&mut InvariantChecker>,
    window: SimDuration,
) -> Option<u64> {
    let tag = d.proxy(0).scenario().tag();
    let samples = measure_flips(d, tag, 0, 1, 0, 3, window, |d| {
        if let Some(c) = checker.as_deref_mut() {
            c.observe(d);
        }
    });
    // No completed flip is the expected `6@1` outcome under the sever.
    samples
        .iter()
        .any(|s| s.reaction().is_some())
        .then(|| summarize(&samples).median.as_micros())
}

/// Runs one configuration's leg: builds the multi-site plant deployment,
/// measures reactions, severs `site` through the chaos engine, measures
/// under the sever, heals, quiesces, measures again.
fn e13_leg(
    id: &'static str,
    seed: u64,
    topology: SiteTopology,
    site: usize,
    expect_liveness_loss: bool,
) -> SiteFailoverLeg {
    let config = topology.label();
    let severed_site = topology.sites[site].name.clone();
    let survivors = topology.survivors_after_losing(site);

    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(seed, prime_cfg, Some(topology));
    // The seed-derived phase that makes distinct seeds produce distinct
    // event streams on the lossless-LAN legs.
    d.run_for(SimDuration::from_micros(seed % 1_000));

    let window = SimDuration::from_secs(1);
    let reaction_before_us = measure_reactions(&mut d, None, window);
    let all = Membership::full(&prime_cfg);
    // Under the sever, progress is the survivors' (6@1 has none left).
    let watched = if survivors.is_empty() {
        all.members()
    } else {
        &survivors
    };
    let exec_before = d.min_executed_among(all.members());

    let mut checker_cfg = CheckerConfig::for_prime(&prime_cfg);
    // The `6@1` leg severs every replica: the static budget would disarm
    // the delay invariant (as it should for an over-budget fault), but
    // this leg's *point* is that the stall is detected — so the checker
    // runs in negative-test mode, exactly like E12's negative controls.
    checker_cfg.assume_within_budget = expect_liveness_loss;
    let mut checker = InvariantChecker::new(checker_cfg, &d);
    // One fault: sever the site 200 ms in, heal explicitly after the
    // during-window measurements (the plan duration is just "longer than
    // the soak" so `heal_all` is what heals it).
    let plan = ChaosPlan::site_failover(
        site as u32,
        SimDuration::from_millis(200),
        SimDuration::from_secs(600),
    );
    let mut driver = ChaosDriver::new(plan);
    let step = SimDuration::from_millis(100);
    driver.run_soak(&mut d, &mut checker, SimDuration::from_secs(2), step);
    // Liveness baseline *under* the sever (exec_before predates it by the
    // 200 ms injection delay, which would count pre-sever orderings).
    let exec_at_soak_end = d.min_executed_among(watched);

    let reaction_during_us = measure_reactions(&mut d, Some(&mut checker), window);
    let exec_during = d.min_executed_among(watched);
    let survival = d.site_survival(site).expect("multi-site deployment");

    driver.heal_all(&mut d, &mut checker);
    driver.run_quiesce(&mut d, &mut checker, SimDuration::from_secs(10), step);
    let reaction_after_us = measure_reactions(&mut d, Some(&mut checker), window);
    let exec_after = d.min_executed_among(all.members());

    let invariants = checker.reports();
    let delay_violations = invariants[2].violations;
    let liveness_verdict_correct = if expect_liveness_loss {
        delay_violations > 0
    } else {
        delay_violations == 0
    };
    let (survival_name, degraded_members) = match &survival {
        SurvivalMode::NativeQuorum => ("native-quorum".to_string(), Vec::new()),
        SurvivalMode::DegradedEpoch(m) => ("degraded-epoch".to_string(), m.members().to_vec()),
        SurvivalMode::Lost => ("lost".to_string(), Vec::new()),
    };
    SiteFailoverLeg {
        id,
        config,
        severed_site,
        survival: survival_name,
        degraded_members,
        exec_before,
        exec_during,
        exec_after,
        ordering_live_during: exec_during > exec_at_soak_end,
        expect_liveness_loss,
        liveness_verdict_correct,
        reaction_before_us,
        reaction_during_us,
        reaction_after_us,
        reconvergence_us: checker.reconvergence_us.clone(),
        invariants,
        meta: RunMeta::capture(&format!("{id}.failover"), &d.obs, &d.sim),
    }
}

/// One E13 leg by fingerprint id (`e13a` = `6@1`, `e13b` = `3+3`,
/// `e13c` = `2+2+1+1`), so the golden digests pin each configuration
/// separately.
///
/// # Panics
/// Panics on an unknown leg id.
pub fn e13_leg_by_id(id: &str, seed: u64) -> SiteFailoverLeg {
    match id {
        // 6@1: the only site is site 0; losing it loses everything.
        "e13a" => e13_leg("e13a", seed, SiteTopology::six_at_one(), 0, true),
        // 3+3: losing cc-b leaves 3 of 6 — a degraded epoch carries on.
        "e13b" => e13_leg("e13b", seed, SiteTopology::three_plus_three(), 1, false),
        // 2+2+1+1: losing cc-b leaves 4 of 6 — the native quorum holds.
        "e13c" => e13_leg("e13c", seed, SiteTopology::two_two_one_one(), 1, false),
        other => panic!("unknown e13 leg: {other}"),
    }
}

/// E13 — site failover across all three paper configurations.
pub fn e13_site_failover(seed: u64) -> SiteFailoverRun {
    SiteFailoverRun {
        legs: vec![
            e13_leg_by_id("e13a", seed),
            e13_leg_by_id("e13b", seed),
            e13_leg_by_id("e13c", seed),
        ],
    }
}

fn fmt_us(v: Option<u64>) -> String {
    match v {
        Some(us) => format!("{:.1}ms", us as f64 / 1e3),
        None => "-".to_string(),
    }
}

/// Renders one leg's verdict block.
pub fn render_leg(leg: &SiteFailoverLeg) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} config {:<9} severed {:<5} survival {}{}\n",
        leg.id,
        leg.config,
        leg.severed_site,
        leg.survival,
        if leg.degraded_members.is_empty() {
            String::new()
        } else {
            format!(" {:?}", leg.degraded_members)
        }
    ));
    out.push_str(&format!(
        "  executed: before {}  during {}  after {}   ordering live during sever: {}\n",
        leg.exec_before, leg.exec_during, leg.exec_after, leg.ordering_live_during
    ));
    out.push_str(&format!(
        "  reaction median: before {}  during {}  after {}\n",
        fmt_us(leg.reaction_before_us),
        fmt_us(leg.reaction_during_us),
        fmt_us(leg.reaction_after_us)
    ));
    out.push_str("  invariants:\n");
    for inv in &leg.invariants {
        let expected_red = leg.expect_liveness_loss && inv.name == "bounded-delay";
        out.push_str(&format!(
            "    {:<18} checks {:>5}   violations {:>3}   {}\n",
            inv.name,
            inv.checks,
            inv.violations,
            if inv.violations == 0 {
                "GREEN"
            } else if expected_red {
                "RED (expected)"
            } else {
                "RED"
            }
        ));
    }
    out.push_str(&render_reconvergence(
        &leg.reconvergence_us,
        "no catch-up required",
    ));
    out.push_str(&format!(
        "  liveness verdict correct: {}\n",
        leg.liveness_verdict_correct
    ));
    out
}

/// Renders the full E13 table.
pub fn render_site_failover(run: &SiteFailoverRun) -> String {
    let mut out = String::from("e13 site failover (sever + heal one full site per config)\n\n");
    for leg in &run.legs {
        out.push_str(&render_leg(leg));
        out.push('\n');
    }
    out.push_str(&format!(
        "all verdicts correct: {}\n",
        run.all_verdicts_correct()
    ));
    out
}

/// E13 results as JSON (for `spire-sim e13 --json`).
pub fn site_failover_json(run: &SiteFailoverRun) -> Json {
    let legs = run.legs.iter().map(|l| {
        Json::Obj(vec![
            ("id", l.id.into()),
            ("config", l.config.as_str().into()),
            ("severed_site", l.severed_site.as_str().into()),
            ("survival", l.survival.as_str().into()),
            (
                "degraded_members",
                l.degraded_members.iter().copied().collect(),
            ),
            ("exec_before", l.exec_before.into()),
            ("exec_during", l.exec_during.into()),
            ("exec_after", l.exec_after.into()),
            ("ordering_live_during", l.ordering_live_during.into()),
            ("expect_liveness_loss", l.expect_liveness_loss.into()),
            (
                "liveness_verdict_correct",
                l.liveness_verdict_correct.into(),
            ),
            ("reaction_before_us", l.reaction_before_us.into()),
            ("reaction_during_us", l.reaction_during_us.into()),
            ("reaction_after_us", l.reaction_after_us.into()),
            (
                "reconvergence_us",
                l.reconvergence_us.iter().copied().collect(),
            ),
            ("invariants", json::invariants(&l.invariants)),
            ("journal_digest", l.meta.journal_digest.as_str().into()),
        ])
    });
    Json::Obj(vec![
        ("schema", "spire-e13-v1".into()),
        ("all_verdicts_correct", run.all_verdicts_correct().into()),
        ("legs", legs.collect()),
    ])
}
