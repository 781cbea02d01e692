//! Experiment E11 — ordering saturation: ramp the client update rate
//! against a 6-replica (f=1, k=1) Prime cluster and find where bounded
//! delay ends.
//!
//! The paper's performance claim (§V) is qualitative: Prime delivers
//! bounded-delay ordering, so latency stays flat as load grows — until
//! the system saturates and queueing takes over. The deployment's LAN
//! fabric in `prime::harness::Cluster` is infinitely fast by default, so
//! this experiment enables its finite outbound-capacity model
//! ([`Cluster::set_out_cost`]): every message a replica sends occupies
//! its NIC for a fixed serialization cost, and once the offered load's
//! message volume exceeds what the NIC drains, departures queue and
//! end-to-end latency grows without bound — the knee.

use prime::harness::Cluster;
use prime::replica::Timing;
use prime::types::Config as PrimeConfig;
use simnet::time::{SimDuration, SimTime};

use crate::json::Json;

/// Per-message NIC serialization cost for the capacity model. With n=6,
/// each submitted update costs every replica a 5-message PoRequest
/// broadcast (~750 us of lane time), plus the fixed ARU/PrePrepare/
/// Prepare/Commit cadence, so the lane saturates between 800 and 1600
/// updates/s — inside the default ramp.
const OUT_COST: SimDuration = SimDuration::from_micros(150);

/// Offered-load window per step.
const WINDOW: SimDuration = SimDuration::from_secs(2);

/// Drain time after the window so every accepted update executes.
const SETTLE: SimDuration = SimDuration::from_secs(3);

/// Protocol knobs for a saturation ramp variant: the legacy per-update
/// dissemination path, or Merkle-batched dissemination with pipelined
/// sequencing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaturationOpts {
    /// `Config::batch_max` (0 = legacy per-update PoRequests).
    pub batch_max: u32,
    /// `Config::pipeline` (1 = serialized ordering).
    pub pipeline: u32,
}

impl SaturationOpts {
    /// The unbatched reference configuration (the seed repo's E11).
    pub fn legacy() -> Self {
        SaturationOpts {
            batch_max: 0,
            pipeline: 1,
        }
    }

    /// The batched configuration benchmarked in EXPERIMENTS.md: up to 16
    /// updates per Merkle batch, 4 sequences in flight.
    pub fn batched() -> Self {
        SaturationOpts {
            batch_max: 16,
            pipeline: 4,
        }
    }
}

fn e11_timing() -> Timing {
    Timing {
        aru_interval: SimDuration::from_millis(10),
        pp_interval: SimDuration::from_millis(10),
        // Far beyond window + settle: overload must show up as queueing,
        // not as a view change blaming the (correct) leader.
        suspect_timeout: SimDuration::from_secs(30),
        checkpoint_interval: 50,
        catchup_timeout: SimDuration::from_secs(10),
    }
}

/// One step of the saturation ramp.
#[derive(Clone, Debug)]
pub struct SaturationStep {
    /// Offered client updates per second.
    pub offered_per_s: u64,
    /// Updates submitted during the window.
    pub submitted: u64,
    /// Updates executed by replica 0 (all of them, after the drain).
    pub executed: u64,
    /// Executed updates divided by first-submit→last-execute span.
    pub ordered_per_s: f64,
    /// Median submit→execute latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
    /// Simulated time the step consumed (warm-up + window + settle).
    pub sim_elapsed_us: u64,
    /// Per-step cost attribution, present when the profiler is enabled.
    pub prof: Option<obs::prof::Profile>,
}

/// The full E11 ramp at one seed.
#[derive(Clone, Debug)]
pub struct SaturationRun {
    /// The seed the ramp ran at.
    pub seed: u64,
    /// The protocol variant the ramp ran with.
    pub opts: SaturationOpts,
    /// One step per offered rate, in ramp order.
    pub steps: Vec<SaturationStep>,
}

impl SaturationRun {
    /// Index of the first step whose median latency exceeds 3x the
    /// first step's median — where bounded delay ends.
    pub fn knee_index(&self) -> Option<usize> {
        let base = self.steps.first()?.p50_us.max(1);
        self.steps.iter().position(|s| s.p50_us > 3 * base)
    }

    /// The paper's qualitative shape: pre-knee steps stay flat (median
    /// within 2x of the base step) while ordering keeps up with the
    /// offered load; then a knee exists where latency takes off.
    pub fn is_flat_then_knee(&self) -> bool {
        let Some(k) = self.knee_index() else {
            return false;
        };
        if k == 0 {
            return false;
        }
        let base = self.steps[0].p50_us.max(1);
        self.steps[..k]
            .iter()
            .all(|s| s.p50_us <= 2 * base && s.ordered_per_s >= 0.9 * s.offered_per_s as f64)
    }
}

/// The default offered-load ramp (updates per second).
pub fn e11_default_rates() -> Vec<u64> {
    vec![50, 100, 200, 400, 800, 1600]
}

/// The extended ramp for the batched configuration: the legacy rates
/// continued past the old knee (1600/s unbatched) far enough that the
/// batched knee lands inside the sweep.
pub fn e11_batched_rates() -> Vec<u64> {
    vec![50, 100, 200, 400, 800, 1600, 3200, 6400, 9600, 19200, 25600]
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn run_step(seed: u64, rate: u64, opts: SaturationOpts) -> SaturationStep {
    if obs::prof::enabled() {
        // Carve this step's charges out of the thread-wide profile so the
        // attribution report can telescope each step against its own
        // simulated time (the cluster clock starts at zero).
        let (mut step, prof) = obs::prof::capture(|| run_step_inner(seed, rate, opts));
        step.prof = Some(prof);
        step
    } else {
        run_step_inner(seed, rate, opts)
    }
}

fn run_step_inner(seed: u64, rate: u64, opts: SaturationOpts) -> SaturationStep {
    // Fresh cluster per step so steps are independent and any order of
    // rates reproduces the same numbers.
    let cfg = if opts.batch_max > 0 || opts.pipeline > 1 {
        PrimeConfig::plant().with_batching(opts.batch_max, opts.pipeline)
    } else {
        PrimeConfig::plant()
    };
    let mut c = Cluster::new(cfg, 1);
    c.set_timing(e11_timing());
    c.set_out_cost(OUT_COST);
    // Warm up past the first ARU exchange; the seed enters as a
    // sub-millisecond phase against the 10 ms protocol cadence (the
    // cluster fabric is otherwise deterministic).
    c.run_for(SimDuration::from_millis(50) + SimDuration::from_micros(seed % 1_000));

    let gap = SimDuration::from_micros(1_000_000 / rate);
    let submitted = (rate * WINDOW.as_micros() / 1_000_000).max(1);
    let mut submit_at: Vec<SimTime> = Vec::with_capacity(submitted as usize);
    for i in 0..submitted {
        submit_at.push(c.now());
        c.submit(0, format!("s{seed}k{i}=1"));
        c.run_for(gap);
    }
    c.run_for(SETTLE);

    // Latency per update from replica 0's execution log; client_seq is
    // 1-based and dense, so it indexes the submit-time vector directly.
    let mut latencies: Vec<u64> = Vec::with_capacity(submitted as usize);
    let mut last_exec = SimTime::ZERO;
    for (j, &(_, client, client_seq)) in c.exec_logs[0].iter().enumerate() {
        if client != 0 || client_seq == 0 || client_seq > submitted {
            continue;
        }
        let at = c.exec_times[0][j];
        latencies.push(at.since(submit_at[(client_seq - 1) as usize]).as_micros());
        if at > last_exec {
            last_exec = at;
        }
    }
    latencies.sort_unstable();
    let executed = latencies.len() as u64;
    let span = if executed > 0 {
        last_exec.since(submit_at[0]).as_secs_f64()
    } else {
        WINDOW.as_secs_f64()
    };
    SaturationStep {
        offered_per_s: rate,
        submitted,
        executed,
        ordered_per_s: executed as f64 / span.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        max_us: percentile(&latencies, 1.0),
        sim_elapsed_us: c.now().as_micros(),
        prof: None,
    }
}

/// E11 — run the ramp: one fresh 6-replica cluster per offered rate, a
/// fixed submission window, then a drain; report throughput and latency
/// percentiles per step. Runs the legacy (unbatched) configuration.
pub fn e11_saturation(seed: u64, rates: &[u64]) -> SaturationRun {
    e11_saturation_with(seed, rates, SaturationOpts::legacy())
}

/// E11 with explicit protocol knobs (`spire-sim e11 --batch N --pipeline K`).
pub fn e11_saturation_with(seed: u64, rates: &[u64], opts: SaturationOpts) -> SaturationRun {
    SaturationRun {
        seed,
        opts,
        steps: rates.iter().map(|&r| run_step(seed, r, opts)).collect(),
    }
}

/// Renders the ramp as a table with the knee called out.
pub fn render_saturation(run: &SaturationRun) -> String {
    use std::fmt::Write as _;
    let mut out = format!("E11 ordering saturation (seed {})\n", run.seed);
    if run.opts.batch_max > 0 || run.opts.pipeline > 1 {
        let _ = writeln!(
            out,
            "batching: batch_max={} pipeline={}",
            run.opts.batch_max, run.opts.pipeline
        );
    }
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "offered/s", "ordered/s", "executed", "p50_us", "p90_us", "p99_us", "max_us"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for s in &run.steps {
        let _ = writeln!(
            out,
            "{:>10} {:>10.0} {:>10} {:>9} {:>9} {:>9} {:>9}",
            s.offered_per_s, s.ordered_per_s, s.executed, s.p50_us, s.p90_us, s.p99_us, s.max_us
        );
    }
    match run.knee_index() {
        Some(k) => {
            let _ = writeln!(
                out,
                "knee at {} updates/s (flat-then-knee: {})",
                run.steps[k].offered_per_s,
                run.is_flat_then_knee()
            );
        }
        None => {
            let _ = writeln!(out, "no knee within the ramp");
        }
    }
    out
}

/// Collapses a step profile into protocol-level aggregates and returns
/// the dominant one (preorder/order/catchup/execute) by charged
/// simulated time. Timer cadence and idle are excluded: at saturation
/// the question is which protocol stage eats the lane, not how long the
/// cluster sat between events.
fn dominant_protocol_phase(prof: &obs::prof::Profile) -> Option<(&'static str, u64)> {
    let mut groups: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for (stack, cost) in prof.rows() {
        let group = if stack.starts_with("prime;preorder") {
            "prime;preorder"
        } else if stack.starts_with("prime;order") {
            "prime;order"
        } else if stack.starts_with("prime;catchup") {
            "prime;catchup"
        } else if stack.starts_with("prime;execute") {
            "prime;execute"
        } else {
            continue;
        };
        *groups.entry(group).or_default() += cost.time_us;
    }
    groups.into_iter().max_by_key(|&(_, t)| t)
}

/// Renders the per-step cost attribution for a profiled ramp
/// (`spire-sim e11 --prof`): one markdown table per step, each with an
/// exact telescoping verdict against that step's simulated time, plus a
/// knee-attribution summary naming the protocol phase that dominates at
/// and past the knee.
pub fn saturation_attribution(run: &SaturationRun) -> String {
    use std::fmt::Write as _;
    let mut out = format!("## E11 cost attribution (seed {})\n", run.seed);
    let knee = run.knee_index();
    for (i, s) in run.steps.iter().enumerate() {
        let Some(prof) = &s.prof else { continue };
        let marker = match knee {
            Some(k) if i == k => " — knee",
            Some(k) if i > k => " — past knee",
            _ => "",
        };
        let _ = writeln!(out, "\n### {} updates/s{marker}\n", s.offered_per_s);
        out.push_str(&obs::report::attribution_markdown(
            prof,
            Some(s.sim_elapsed_us),
        ));
        if let Some((group, t)) = dominant_protocol_phase(prof) {
            let _ = writeln!(out, "dominant protocol phase: {group} ({t} us)");
        }
    }
    out.push('\n');
    match knee {
        Some(k) => {
            let mut agg = obs::prof::Profile::new();
            for s in &run.steps[k..] {
                if let Some(p) = &s.prof {
                    agg.merge(p);
                }
            }
            match dominant_protocol_phase(&agg) {
                Some((group, t)) => {
                    let _ = writeln!(
                        out,
                        "knee attribution: at and past the knee ({} updates/s), \
                         {group} dominates protocol cost with {t} us of charged \
                         simulated time",
                        run.steps[k].offered_per_s
                    );
                }
                None => {
                    let _ = writeln!(out, "knee attribution: no profiled steps at the knee");
                }
            }
        }
        None => {
            let _ = writeln!(
                out,
                "no knee within the ramp; attribution reflects pre-saturation cost"
            );
        }
    }
    out
}

/// Serializes the ramp as JSON (`spire-sim e11 --json FILE`).
pub fn saturation_json(run: &SaturationRun) -> Json {
    let steps = run.steps.iter().map(|s| {
        Json::Obj(vec![
            ("offered_per_s", s.offered_per_s.into()),
            ("ordered_per_s", Json::Fixed(s.ordered_per_s, 1)),
            ("executed", s.executed.into()),
            ("p50_us", s.p50_us.into()),
            ("p90_us", s.p90_us.into()),
            ("p99_us", s.p99_us.into()),
            ("max_us", s.max_us.into()),
        ])
    });
    let knee = run.knee_index().map(|k| run.steps[k].offered_per_s);
    Json::Obj(vec![
        ("schema", "spire-e11-v2".into()),
        ("seed", run.seed.into()),
        ("batch_max", run.opts.batch_max.into()),
        ("pipeline", run.opts.pipeline.into()),
        ("knee_offered_per_s", knee.into()),
        ("flat_then_knee", run.is_flat_then_knee().into()),
        ("steps", steps.collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_step_runs_and_orders_everything() {
        let s = run_step(1, 50, SaturationOpts::legacy());
        assert_eq!(s.submitted, 100);
        assert_eq!(s.executed, s.submitted, "drain executes every update");
        assert!(s.p50_us > 0 && s.p50_us <= s.p99_us && s.p99_us <= s.max_us);
    }

    #[test]
    fn batched_step_orders_everything_with_comparable_latency() {
        let legacy = run_step(1, 50, SaturationOpts::legacy());
        let batched = run_step(1, 50, SaturationOpts::batched());
        assert_eq!(batched.submitted, 100);
        assert_eq!(
            batched.executed, batched.submitted,
            "no member lost to batching"
        );
        // Pre-knee the batch rate-limiter flushes singletons immediately,
        // so tail latency stays in the same regime as the legacy path.
        assert!(
            batched.p99_us <= 2 * legacy.p99_us.max(1),
            "batched p99 {} vs legacy p99 {}",
            batched.p99_us,
            legacy.p99_us
        );
    }

    #[test]
    fn profiled_step_telescopes_exactly() {
        obs::prof::set_enabled(true);
        let s = run_step(7, 50, SaturationOpts::legacy());
        obs::prof::set_enabled(false);
        let _ = obs::prof::take();
        let prof = s.prof.clone().expect("profiling was enabled");
        assert!(!prof.folded().is_empty(), "folded output has rows");
        assert_eq!(
            prof.total_time_us(),
            s.sim_elapsed_us,
            "attribution rows telescope exactly to the step's simulated time"
        );
        let report = saturation_attribution(&SaturationRun {
            seed: 7,
            opts: SaturationOpts::legacy(),
            steps: vec![s],
        });
        assert!(report.contains("telescoping: exact"), "report: {report}");
        assert!(
            report.contains("dominant protocol phase"),
            "report: {report}"
        );
    }

    #[test]
    fn unprofiled_step_carries_no_profile() {
        let s = run_step(1, 50, SaturationOpts::legacy());
        assert!(s.prof.is_none());
        assert!(s.sim_elapsed_us > 0);
    }

    #[test]
    fn batched_profiled_step_telescopes_exactly() {
        obs::prof::set_enabled(true);
        let s = run_step(7, 50, SaturationOpts::batched());
        obs::prof::set_enabled(false);
        let _ = obs::prof::take();
        let prof = s.prof.clone().expect("profiling was enabled");
        assert_eq!(
            prof.total_time_us(),
            s.sim_elapsed_us,
            "batched stacks (batch_request/batch_member) stay inside the telescope"
        );
    }

    #[test]
    fn percentiles_index_correctly() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&v, 0.5), 6);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
