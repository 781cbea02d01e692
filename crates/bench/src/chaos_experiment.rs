//! Experiment E12: the chaos soak — compressed multi-day plant operation
//! under a randomized-but-seeded fault schedule with continuous invariant
//! checking (see EXPERIMENTS.md, "E12").

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker, InvariantReport};
use chaos::plan::ChaosPlan;
use plc::topology::Scenario;
use prime::types::Config as PrimeConfig;
use simnet::time::SimDuration;
use spire::config::SpireConfig;
use spire::deploy::{fast_timing, Deployment};
use spire::hardening::HardeningProfile;
use spire::site::SiteTopology;

use crate::json::{self, Json};
use crate::registry::RunMeta;

/// E12 result: the fault timeline's effect and every invariant's verdict.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Days simulated (compressed).
    pub days: u64,
    /// Simulated seconds per compressed "day".
    pub seconds_per_day: u64,
    /// Faults the plan scheduled.
    pub planned: usize,
    /// Faults actually injected, by kind name (tag order).
    pub injected: Vec<(&'static str, u64)>,
    /// Total injections.
    pub total_injected: u64,
    /// Distinct fault kinds injected.
    pub distinct_kinds: usize,
    /// Per-invariant verdicts (checks + violations).
    pub invariants: Vec<InvariantReport>,
    /// True when no invariant ever fired.
    pub all_green: bool,
    /// Catch-up latencies (microseconds) observed after heals.
    pub reconvergence_us: Vec<u64>,
    /// Minimum executed update count across replicas at the end.
    pub min_executed: u64,
    /// Determinism capture (journal digest + event count).
    pub meta: RunMeta,
}

/// E12 — the chaos soak. The E4 plant deployment (6 replicas, f=1, k=1,
/// fast timing, 100 ms polling) runs for `days * seconds_per_day`
/// simulated seconds while a [`ChaosPlan::within_budget`] schedule
/// injects partitions, loss bursts, latency spikes, link flaps, crashes,
/// Byzantine flips, clock skews, and unscheduled recoveries — and the
/// invariant checker samples the paper's guarantees every 100 ms. A
/// quiescence tail lets the last heals reconverge before the verdict.
pub fn e12_chaos_soak(seed: u64, days: u64, seconds_per_day: u64) -> ChaosRun {
    e12_chaos_soak_with(seed, days, seconds_per_day, PrimeConfig::plant())
}

/// The deployment every chaos-checked experiment starts from (E12, E13,
/// E16 and their contract tests): the minimal plant subset — spread over
/// `sites` when given — with fast timing, proxy 0 polling verbosely every
/// 100 ms, warmed up for one second (ARP, overlay discovery, first ordered
/// updates).
pub fn chaos_rig(seed: u64, prime_cfg: PrimeConfig, sites: Option<SiteTopology>) -> Deployment {
    let mut cfg = SpireConfig::minimal(prime_cfg, Scenario::PlantSubset);
    if let Some(sites) = sites {
        cfg = cfg.with_sites(sites);
    }
    let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
    d.set_timing(fast_timing());
    d.proxy_mut(0)
        .set_poll_interval(SimDuration::from_millis(100));
    d.proxy_mut(0).verbose_updates = true;
    d.run_for(SimDuration::from_secs(1));
    d
}

/// E12 with an explicit Prime configuration — the regression harness for
/// running the soak with Merkle batching and a deeper ordering window
/// (`Config::with_batching`): batches must survive crash + restart and
/// catch-up without duplicating or dropping member updates, under the
/// same invariant checker as the stock soak.
pub fn e12_chaos_soak_with(
    seed: u64,
    days: u64,
    seconds_per_day: u64,
    prime_cfg: PrimeConfig,
) -> ChaosRun {
    let mut d = chaos_rig(seed, prime_cfg, None);

    let horizon = SimDuration::from_secs(days * seconds_per_day);
    let plan = ChaosPlan::within_budget(seed, prime_cfg.n(), prime_cfg.ordering_quorum(), horizon);
    let planned = plan.faults.len();
    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let mut driver = ChaosDriver::new(plan);
    let step = SimDuration::from_millis(100);
    driver.run_soak(&mut d, &mut checker, horizon, step);
    driver.heal_all(&mut d, &mut checker);
    driver.run_quiesce(&mut d, &mut checker, SimDuration::from_secs(8), step);

    let meta = RunMeta::capture("chaos", &d.obs, &d.sim);
    ChaosRun {
        days,
        seconds_per_day,
        planned,
        injected: driver
            .injected_counts()
            .into_iter()
            .map(|(k, c)| (k.name(), c))
            .collect(),
        total_injected: driver.total_injected(),
        distinct_kinds: driver.distinct_kinds(),
        invariants: checker.reports(),
        all_green: checker.all_green(),
        reconvergence_us: checker.reconvergence_us.clone(),
        min_executed: d.min_executed(),
        meta,
    }
}

/// Renders the E12 verdict table.
pub fn render_chaos(run: &ChaosRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "chaos soak: {} days x {} s/day   faults planned {} injected {} ({} kinds)\n",
        run.days, run.seconds_per_day, run.planned, run.total_injected, run.distinct_kinds
    ));
    out.push_str("  injected by kind:\n");
    for (name, count) in &run.injected {
        out.push_str(&format!("    {name:<14} {count}\n"));
    }
    out.push_str("  invariants:\n");
    for inv in &run.invariants {
        out.push_str(&format!(
            "    {:<18} checks {:>6}   violations {:>3}   {}\n",
            inv.name,
            inv.checks,
            inv.violations,
            if inv.violations == 0 { "GREEN" } else { "RED" }
        ));
    }
    out.push_str(&render_reconvergence(
        &run.reconvergence_us,
        "no heal required catch-up",
    ));
    out.push_str(&format!(
        "  min executed {}   all green: {}\n",
        run.min_executed, run.all_green
    ));
    out
}

/// The reconvergence line E12 and E13 share: how many heals needed
/// catch-up and how long it took, or `none` when nothing did.
pub(crate) fn render_reconvergence(us: &[u64], none: &str) -> String {
    let mut sorted = us.to_vec();
    sorted.sort_unstable();
    match sorted.last() {
        None => format!("  reconvergence: {none}\n"),
        Some(&max) => format!(
            "  reconvergence: {} heals, p50 {:.3}s, max {:.3}s\n",
            sorted.len(),
            sorted[sorted.len() / 2] as f64 / 1e6,
            max as f64 / 1e6
        ),
    }
}

/// E12 results as JSON (for `spire-sim e12 --json`).
pub fn chaos_json(run: &ChaosRun) -> Json {
    let injected = run
        .injected
        .iter()
        .map(|&(kind, count)| Json::Obj(vec![("kind", kind.into()), ("count", count.into())]));
    Json::Obj(vec![
        ("days", run.days.into()),
        ("seconds_per_day", run.seconds_per_day.into()),
        ("planned", run.planned.into()),
        ("total_injected", run.total_injected.into()),
        ("distinct_kinds", run.distinct_kinds.into()),
        ("injected", injected.collect()),
        ("invariants", json::invariants(&run.invariants)),
        ("all_green", run.all_green.into()),
        (
            "reconvergence_us",
            run.reconvergence_us.iter().copied().collect(),
        ),
        ("min_executed", run.min_executed.into()),
        ("journal_digest", run.meta.journal_digest.as_str().into()),
    ])
}
