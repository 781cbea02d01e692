//! Experiment E14: regional-grid scale-out — the device-count sweep.
//!
//! A regional utility is not one plant: it is tens of substations, each
//! with its own PLC/RTU bank, feeding one replicated SCADA master over
//! the wide-area overlay. The scaling question is whether the ordered
//! Prime stream grows with *devices* (hopeless — 1000 devices at a 10 Hz
//! poll cadence is 10,000 ordered updates/s) or with *substations*
//! (viable — each substation proxy coalesces a full bank sweep into one
//! signed [`SubstationReport`]).
//!
//! E14 sweeps total device count 10 → 100 → 1000 at a fixed 10-device
//! bank per substation and measures, per point:
//!
//! * ordered updates/s executed by the replicas (the Prime load);
//! * the aggregation ratio: device polls per ordered substation report;
//! * E5-style end-to-end reaction times (physical flip at substation 0's
//!   first device → HMI box transition), with the per-stage attribution
//!   of the reaction path from causal traces;
//!
//! and asserts the paper-level scaling claim: median reaction time must
//! degrade *sub-linearly* in total device count.
//!
//! [`SubstationReport`]: scada::updates::ScadaUpdate::SubstationReport

use prime::types::Config as PrimeConfig;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;
use spire::latency::{measure_flips, summarize, LatencySummary};
use spire::site::SubstationTopology;

use crate::json::Json;
use crate::plant_experiments::render_stages;
use crate::registry::RunMeta;

/// One sweep point: a full regional deployment at a given scale.
#[derive(Clone, Debug)]
pub struct RegionalPoint {
    /// Substations deployed.
    pub substations: u32,
    /// Devices per substation bank.
    pub devices_per: u32,
    /// Total field devices (`substations * devices_per`).
    pub total_devices: u32,
    /// Ordered updates executed (minimum across replicas) during the
    /// measurement window.
    pub ordered_updates: u64,
    /// Length of the measurement window.
    pub window: SimDuration,
    /// Device poll round-trips completed during the window (all banks).
    pub device_polls: u64,
    /// Coalesced substation reports sent during the window.
    pub reports_sent: u64,
    /// Aggregation ratio: device polls per substation report. The whole
    /// point of the hierarchy — at a 10-device bank this approaches 10.
    pub aggregation_ratio: f64,
    /// End-to-end reaction distribution (flip → HMI box transition).
    pub reaction: LatencySummary,
    /// Per-stage reaction-path attribution (detect → publish → overlay →
    /// ordering → deliver → render) from the causal traces.
    pub stages: Option<obs::trace::StageBreakdown>,
    /// Determinism capture (journal digest + event count).
    pub meta: RunMeta,
}

impl RegionalPoint {
    /// Ordered updates per simulated second over the window.
    pub fn ordered_updates_per_s(&self) -> f64 {
        self.ordered_updates as f64 / (self.window.as_micros() as f64 / 1e6)
    }
}

/// The full E14 sweep.
#[derive(Clone, Debug)]
pub struct RegionalSweep {
    /// Points in ascending device-count order.
    pub points: Vec<RegionalPoint>,
}

impl RegionalSweep {
    /// The scaling verdict: between the smallest and the largest point,
    /// the median reaction time must grow by a smaller factor than the
    /// device count does (sub-linear degradation).
    pub fn degradation_sub_linear(&self) -> bool {
        let (Some(first), Some(last)) = (self.points.first(), self.points.last()) else {
            return true;
        };
        if last.total_devices <= first.total_devices {
            return true;
        }
        let device_ratio = last.total_devices as f64 / first.total_devices as f64;
        let base_us = first.reaction.median.as_micros().max(1) as f64;
        let reaction_ratio = last.reaction.median.as_micros() as f64 / base_us;
        reaction_ratio < device_ratio
    }

    /// Aggregation ratio at the largest (last) sweep point.
    pub fn peak_aggregation_ratio(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.aggregation_ratio)
    }
}

/// The default sweep: 10 → 100 → 1000 total devices at a fixed
/// 10-device bank per substation.
pub fn e14_default_points() -> Vec<(u32, u32)> {
    vec![(1, 10), (10, 10), (100, 10)]
}

/// E14 — runs one regional deployment per `(substations, devices_per)`
/// point and asserts sub-linear reaction degradation across the sweep.
///
/// # Panics
///
/// Panics when the sweep spans distinct device counts and the median
/// reaction degraded linearly (or worse) in device count.
pub fn e14_regional(seed: u64, points: &[(u32, u32)], flips: usize) -> RegionalSweep {
    let points = points
        .iter()
        .map(|&(s, d)| e14_point(seed, s, d, flips))
        .collect();
    let sweep = RegionalSweep { points };
    assert!(
        sweep.degradation_sub_linear(),
        "median reaction degraded at least linearly in device count"
    );
    sweep
}

fn e14_point(seed: u64, substations: u32, devices_per: u32, flips: usize) -> RegionalPoint {
    let topo = SubstationTopology::new(substations, devices_per);
    // 100 substations reporting every 100 ms is ~1000 ordered updates/s —
    // beyond the knee of batches of one. The regional configuration rides
    // on E11's extension: Merkle batches of up to 32 updates plus
    // pipelined sequencing.
    let prime = PrimeConfig::plant().with_batching(32, 4);
    let cfg = SpireConfig::regional(prime, topo);
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    // Causal tracing is always on for E14: each measured flip's trace
    // follows the change through the sweep, the coalesced report, the
    // overlay, Prime's ordering and the HMI vote to the rendered box.
    d.obs.set_tracing(true);
    d.set_timing(fast_timing());
    // Warm up (ARP, overlay discovery, first sweeps and orderings), then
    // the seed-derived sub-millisecond phase: it shifts every flip
    // relative to the 100 ms sweep schedule so distinct seeds produce
    // distinct detect latencies while identical seeds reproduce exactly.
    d.run_for(SimDuration::from_secs(3));
    d.run_for(SimDuration::from_micros(seed % 1_000));

    let exec_before = d.min_executed();
    let (polls_before, reports_before) = bank_stats(&d, substations);
    let window_start = d.now();

    // The measurement device watches substation 0's first device.
    let sensor_tag = topo.device_scenario(0, 0).tag();
    let period = SimDuration::from_secs(1);
    let samples = measure_flips(&mut d, sensor_tag, 0, 0, 0, flips, period, |_| {});

    let window = d.now().since(window_start);
    let ordered_updates = d.min_executed().saturating_sub(exec_before);
    let (polls_after, reports_after) = bank_stats(&d, substations);
    let device_polls = polls_after - polls_before;
    let reports_sent = reports_after - reports_before;
    let aggregation_ratio = device_polls as f64 / reports_sent.max(1) as f64;
    let stages = obs::trace::stage_breakdown(&d.obs.journal_records(), obs::Stage::Detect);
    RegionalPoint {
        substations,
        devices_per,
        total_devices: topo.total_devices(),
        ordered_updates,
        window,
        device_polls,
        reports_sent,
        aggregation_ratio,
        reaction: summarize(&samples),
        stages,
        meta: RunMeta::capture(&format!("e14.{}", topo.label()), &d.obs, &d.sim),
    }
}

fn bank_stats(d: &Deployment, substations: u32) -> (u64, u64) {
    let mut polls = 0;
    let mut reports = 0;
    for s in 0..substations {
        let stats = d.substation_proxy(s).stats;
        polls += stats.device_polls;
        reports += stats.reports_sent;
    }
    (polls, reports)
}

/// Renders the E14 sweep table, with the per-stage reaction-path
/// attribution of the largest point when tracing captured it.
pub fn render_regional(run: &RegionalSweep) -> String {
    let mut out = String::from(
        "e14 regional scale-out (substation banks coalesced into one ordered report per sweep)\n\n",
    );
    out.push_str(
        "config    devices  ordered/s  agg-ratio  reaction p50   mean      max      missed\n",
    );
    for p in &run.points {
        out.push_str(&format!(
            "{:<9} {:>7} {:>10.1} {:>10.1}  {:>12} {:>8} {:>8} {:>7}\n",
            format!("{}x{}", p.substations, p.devices_per),
            p.total_devices,
            p.ordered_updates_per_s(),
            p.aggregation_ratio,
            p.reaction.median.to_string(),
            p.reaction.mean.to_string(),
            p.reaction.max.to_string(),
            p.reaction.missed,
        ));
    }
    if let Some(b) = run.points.last().and_then(|p| p.stages.as_ref()) {
        out.push_str(&format!(
            "\nreaction path at the largest point ({} chains):\n",
            b.chains
        ));
        render_stages(&mut out, b);
    }
    out.push_str(&format!(
        "\nreaction degradation sub-linear in device count: {}\n",
        run.degradation_sub_linear()
    ));
    out
}

/// E14 results as JSON (for `spire-sim e14 --json`).
pub fn regional_json(run: &RegionalSweep) -> Json {
    let points = run.points.iter().map(|p| {
        Json::Obj(vec![
            ("substations", p.substations.into()),
            ("devices_per", p.devices_per.into()),
            ("total_devices", p.total_devices.into()),
            ("ordered_updates", p.ordered_updates.into()),
            ("window_us", p.window.as_micros().into()),
            (
                "ordered_updates_per_s",
                Json::Fixed(p.ordered_updates_per_s(), 1),
            ),
            ("device_polls", p.device_polls.into()),
            ("reports_sent", p.reports_sent.into()),
            ("aggregation_ratio", Json::Fixed(p.aggregation_ratio, 2)),
            ("reaction_median_us", p.reaction.median.as_micros().into()),
            ("reaction_mean_us", p.reaction.mean.as_micros().into()),
            ("reaction_max_us", p.reaction.max.as_micros().into()),
            ("reaction_missed", p.reaction.missed.into()),
            ("journal_digest", p.meta.journal_digest.as_str().into()),
        ])
    });
    Json::Obj(vec![
        ("schema", "spire-e14-v1".into()),
        (
            "degradation_sub_linear",
            run.degradation_sub_linear().into(),
        ),
        (
            "peak_aggregation_ratio",
            Json::Fixed(run.peak_aggregation_ratio(), 2),
        ),
        ("points", points.collect()),
    ])
}
