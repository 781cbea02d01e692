//! Experiments E4 and E5: the power-plant test deployment (§V).

use crate::registry::RunMeta;
use diversity::recovery::RecoveryScheduler;
use plc::topology::Scenario;
use prime::application::Application;
use prime::types::Config as PrimeConfig;
use redteam::lab::CommercialLab;
use scada::commercial::CommercialHmi;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;
use spire::latency::{measure_spire, summarize, LatencySummary, Sample};

/// E4 result: six (compressed) days of continuous plant operation.
#[derive(Clone, Debug)]
pub struct PlantRun {
    /// Simulated seconds per "deployment day" (time compression factor).
    pub seconds_per_day: u64,
    /// Days simulated.
    pub days: u64,
    /// Proactive recoveries completed.
    pub recoveries: u64,
    /// Minimum executed update count across healthy replicas at the end.
    pub min_executed: u64,
    /// HMI frames applied across all three HMIs.
    pub hmi_frames: u64,
    /// View changes observed (0 = leader never faltered).
    pub view_changes: u64,
    /// Longest interval between consecutive HMI-0 display updates.
    pub longest_display_gap: SimDuration,
    /// Whether all healthy replicas ended with identical state digests.
    pub replicas_consistent: bool,
    /// Full metrics/journal snapshot of the run.
    pub obs: obs::ObsReport,
    /// Determinism capture of the deployment (digest + event count).
    pub meta: RunMeta,
}

/// E4 — the plant deployment: 6 replicas (f=1, k=1), the full 17-PLC
/// scenario set, breaker cycle running, periodic proactive recovery, six
/// compressed days of continuous operation.
///
/// Time compression: one deployment "day" is `seconds_per_day` simulated
/// seconds (the event patterns — polls, cycle flips, recoveries — keep
/// their relative cadence; see EXPERIMENTS.md).
pub fn e4_plant_deployment(seed: u64, days: u64, seconds_per_day: u64) -> PlantRun {
    e4_plant_deployment_traced(seed, days, seconds_per_day, false, false)
}

/// [`e4_plant_deployment`] with the journal optionally echoed live to
/// stdout (`spire-sim e4 --trace`) and causal span tracing optionally
/// enabled (`--trace-export`; every cycle command then journals its
/// span tree).
pub fn e4_plant_deployment_traced(
    seed: u64,
    days: u64,
    seconds_per_day: u64,
    trace: bool,
    span_tracing: bool,
) -> PlantRun {
    // Full plant configuration but with the emulated fleet reduced to two
    // distribution and two generation PLCs so six days stay tractable; the
    // real + emulated mix is preserved.
    let mut cfg = SpireConfig::plant();
    cfg.proxies.truncate(5);
    cfg.hmis = 3;
    // The deployment's LAN links are lossless with fixed latency, so the
    // seed must enter through the workload: a seed-derived sub-millisecond
    // phase on the cycle period makes distinct seeds produce distinct
    // event streams (and journal digests) while identical seeds reproduce
    // byte-identically.
    let period = SimDuration::from_micros(700_000 + seed % 1_000);
    let cfg = cfg.with_cycle(Scenario::PlantSubset, period, 0);
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.obs.set_trace(trace);
    d.obs.set_tracing(span_tracing);
    d.set_timing(fast_timing());
    // One proactive recovery per simulated "day-sixth", k = 1, downtime 2 s.
    let day = SimDuration::from_secs(seconds_per_day);
    let interval = SimDuration::from_secs((seconds_per_day / 6).max(4));
    let mut scheduler = RecoveryScheduler::new(6, 1, interval, SimDuration::from_secs(2));
    d.run_with_recovery(day.saturating_mul(days), &mut scheduler);
    d.run_for(SimDuration::from_secs(5));

    let min_executed = (0..6)
        .map(|i| d.replica(i).replica.exec_seq())
        .min()
        .unwrap_or(0);
    let hmi_frames: u64 = (0..3)
        .map(|h| d.obs.counter_value(&format!("hmi.{h}.frames_applied")))
        .sum();
    let view_changes =
        d.obs
            .journal_count(|e| matches!(e, obs::Event::ViewChange { .. })) as u64;
    let digests: Vec<_> = (0..6)
        .map(|i| {
            (
                d.replica(i).replica.exec_seq(),
                d.replica(i).replica.app().digest(),
            )
        })
        .collect();
    let max_exec = digests.iter().map(|(e, _)| *e).max().unwrap_or(0);
    let at_head: Vec<_> = digests.iter().filter(|(e, _)| *e == max_exec).collect();
    let replicas_consistent = at_head.windows(2).all(|w| w[0].1 == w[1].1);

    // Longest gap between display updates on HMI 0.
    let log = &d.hmi(0).hmi.update_log;
    let mut longest = SimDuration::ZERO;
    for w in log.windows(2) {
        let gap = w[1].0.since(w[0].0);
        if gap > longest {
            longest = gap;
        }
    }
    PlantRun {
        seconds_per_day,
        days,
        recoveries: scheduler.completed,
        min_executed,
        hmi_frames,
        view_changes,
        longest_display_gap: longest,
        replicas_consistent,
        meta: RunMeta::capture("e4.deployment", &d.obs, &d.sim),
        obs: d.obs.report(),
    }
}

/// E5 result: Spire vs. commercial reaction-time distributions.
#[derive(Clone, Debug)]
pub struct ReactionTimes {
    /// Spire's distribution.
    pub spire: LatencySummary,
    /// The commercial system's distribution.
    pub commercial: LatencySummary,
    /// The plant's timing requirement used for the verdict (200 ms, a
    /// typical HMI-refresh requirement; the paper gives no number).
    pub requirement: SimDuration,
    /// Metrics snapshot of the Spire-side run, including the
    /// `e5.spire.reaction_us` and `e5.commercial.reaction_us` histograms
    /// and the journaled span trees of every measured flip.
    pub obs: obs::ObsReport,
    /// Per-stage attribution of Spire's reaction path (detect →
    /// publish → overlay → Prime ordering → deliver → render), from
    /// the causal traces of the measured flips.
    pub spire_stages: Option<obs::trace::StageBreakdown>,
    /// Per-stage attribution of the commercial reaction path (detect →
    /// poll → render).
    pub commercial_stages: Option<obs::trace::StageBreakdown>,
    /// Determinism captures: the Spire deployment and the commercial lab.
    pub meta: Vec<RunMeta>,
}

impl ReactionTimes {
    /// Whether Spire met the requirement (the paper's reported outcome).
    pub fn spire_meets_requirement(&self) -> bool {
        self.spire.median <= self.requirement
    }

    /// Whether Spire beat the commercial system (the paper's headline).
    pub fn spire_faster(&self) -> bool {
        self.spire.median < self.commercial.median
    }
}

/// E5 — the measurement device: flip a breaker, time the HMI update, for
/// both systems.
pub fn e5_reaction_time(seed: u64, flips: usize) -> ReactionTimes {
    e5_reaction_time_traced(seed, flips, false)
}

/// [`e5_reaction_time`] with the journal optionally echoed live to
/// stdout (`spire-sim e5 --trace`).
///
/// Causal span tracing is always on for E5: each flip's trace follows
/// the breaker change from the PLC through the proxy, the external
/// overlay, Prime's ordering rounds, and the HMI vote to the rendered
/// display, and the per-stage p50 shares are asserted to telescope to
/// the measured end-to-end reaction.
pub fn e5_reaction_time_traced(seed: u64, flips: usize, trace: bool) -> ReactionTimes {
    // Spire side: fast polling, plant subset.
    let cfg = SpireConfig::minimal(PrimeConfig::plant(), Scenario::PlantSubset);
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.obs.set_trace(trace);
    d.obs.set_tracing(true);
    d.set_timing(fast_timing());
    // The §V measurement used a dedicated fast poll; 20 ms keeps the
    // proxy's detection latency small relative to ordering.
    d.proxy_mut(0)
        .set_poll_interval(SimDuration::from_millis(20));
    d.proxy_mut(0).verbose_updates = true;
    // As in E4, the seed must enter through the workload: a seed-derived
    // sub-millisecond phase shifts every flip relative to the 20 ms poll
    // schedule, so distinct seeds produce distinct detect latencies (and
    // journal digests) while identical seeds reproduce exactly.
    let phase = SimDuration::from_micros(seed % 1_000);
    d.run_for(SimDuration::from_secs(3));
    d.run_for(phase);
    let spire_samples = measure_spire(&mut d, 0, 1, 0, flips, SimDuration::from_secs(1));

    // Commercial side: same topology PLC, primary-backup master pair.
    let mut lab = CommercialLab::build(seed + 7, false);
    lab.obs.set_trace(trace);
    lab.obs.set_tracing(true);
    lab.sim.run_for(SimDuration::from_secs(2));
    lab.sim.run_for(phase);
    let mut commercial_samples: Vec<Sample> = Vec::new();
    let mut state = true;
    for i in 0..flips {
        // Same deterministic phase jitter as the Spire side.
        lab.sim
            .run_for(SimDuration::from_micros((i as u64 * 7_919) % 100_000));
        state = !state;
        let flipped_at = lab.sim.now();
        let before = lab
            .sim
            .process_ref::<CommercialHmi>(lab.hmi)
            .expect("hmi")
            .box_transitions
            .len();
        lab.sim
            .process_mut::<plc::emulator::PlcEmulator>(lab.plc)
            .expect("plc")
            .force_breaker(0, state, flipped_at);
        lab.sim.run_for(SimDuration::from_secs(1));
        let hmi = lab.sim.process_ref::<CommercialHmi>(lab.hmi).expect("hmi");
        let displayed_at = hmi
            .box_transitions
            .get(before..)
            .and_then(|new| new.iter().find(|&&(_, closed)| closed == state))
            .map(|&(t, _)| t);
        let sample = Sample {
            flipped_at,
            displayed_at,
        };
        if let Some(reaction) = sample.reaction() {
            d.obs
                .histogram("e5.commercial.reaction_us")
                .record(reaction.as_micros());
        }
        commercial_samples.push(sample);
    }

    let spire = summarize(&spire_samples);
    let commercial = summarize(&commercial_samples);
    let spire_stages = obs::trace::stage_breakdown(&d.obs.journal_records(), obs::Stage::Detect);
    let commercial_stages =
        obs::trace::stage_breakdown(&lab.obs.journal_records(), obs::Stage::Detect);
    // The stage shares must telescope: each column sums to its chain's
    // end-to-end total, and when every flip completed, the p50 chain is
    // the median flip, so its total matches the measured median.
    for (summary, stages) in [(&spire, &spire_stages), (&commercial, &commercial_stages)] {
        let Some(b) = stages else { continue };
        assert_eq!(b.p50_sum_us(), b.p50_total_us, "stage shares telescope");
        if summary.missed == 0 && b.chains == summary.samples as u64 {
            assert!(
                b.p50_total_us.abs_diff(summary.median.as_micros()) <= 1,
                "p50 chain total {}us != median reaction {}us",
                b.p50_total_us,
                summary.median.as_micros(),
            );
        }
    }
    ReactionTimes {
        spire,
        commercial,
        requirement: SimDuration::from_millis(200),
        meta: vec![
            RunMeta::capture("e5.spire", &d.obs, &d.sim),
            RunMeta::capture("e5.commercial", &lab.obs, &lab.sim),
        ],
        obs: d.obs.report(),
        spire_stages,
        commercial_stages,
    }
}

/// Renders E5 as the measured table, with the per-stage reaction-path
/// attribution of each system when tracing captured it.
pub fn render_reaction(r: &ReactionTimes) -> String {
    let mut out = format!(
        "system      samples  missed  min      median   mean     max\n\
         spire       {:>7}  {:>6}  {:>7}  {:>7}  {:>7}  {:>7}\n\
         commercial  {:>7}  {:>6}  {:>7}  {:>7}  {:>7}  {:>7}\n\
         requirement: median <= {}   spire meets: {}   spire faster: {}\n",
        r.spire.samples,
        r.spire.missed,
        r.spire.min.to_string(),
        r.spire.median.to_string(),
        r.spire.mean.to_string(),
        r.spire.max.to_string(),
        r.commercial.samples,
        r.commercial.missed,
        r.commercial.min.to_string(),
        r.commercial.median.to_string(),
        r.commercial.mean.to_string(),
        r.commercial.max.to_string(),
        r.requirement,
        r.spire_meets_requirement(),
        r.spire_faster(),
    );
    for (label, stages) in [
        ("spire", &r.spire_stages),
        ("commercial", &r.commercial_stages),
    ] {
        let Some(b) = stages else { continue };
        out.push_str(&format!("\n{label} reaction path ({} chains):\n", b.chains));
        render_stages(&mut out, b);
    }
    out
}

/// Appends a reaction-path table: each stage's count and p50/p99 share,
/// and the totals the shares telescope to.
pub(crate) fn render_stages(out: &mut String, b: &obs::trace::StageBreakdown) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  {:<18} {:>6} {:>9} {:>9}",
        "stage", "count", "p50_us", "p99_us"
    );
    for row in &b.rows {
        let _ = writeln!(
            out,
            "  {:<18} {:>6} {:>9} {:>9}",
            row.stage.name(),
            row.count,
            row.p50_us,
            row.p99_us
        );
    }
    let _ = writeln!(
        out,
        "  {:<18} {:>6} {:>9} {:>9}",
        "total", "", b.p50_total_us, b.p99_total_us
    );
}
