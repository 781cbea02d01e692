//! `spire-sim` — run any of the reproduction's experiments from the
//! command line.
//!
//! ```text
//! spire-sim <command> [--seed N]
//!
//! commands:
//!   figures        build and print Figures 1, 2 and 4
//!   e1             red team vs. the commercial SCADA system
//!   e2             red team vs. Spire (network attacks)
//!   e3             compromised-replica excursion
//!   e4 [--days N]  plant deployment, N compressed days (default 6)
//!   e5             end-to-end reaction time, Spire vs. commercial
//!   e6             assumption breach + ground-truth recovery
//!   e7             MANA detection (incidents + board)
//!   e7b            MANA ROC curves (both model families)
//!   e8             replica-requirement ablation (3f+1 vs 3f+2k+1)
//!   e9             diversity/recovery race
//!   e10            hardening ablation matrix
//!   e11            ordering saturation: ramp the update rate, find the knee
//!   e12 [--days N] chaos soak: N compressed days under a seeded fault
//!                  schedule with continuous invariant checking
//!   e13            wide-area site failover: sever + heal one full site
//!                  per paper configuration (6@1, 3+3, 2+2+1+1)
//!   e14            regional scale-out: sweep total device count across
//!                  substation banks (default 10 -> 100 -> 1000), report
//!                  ordered-updates/s, aggregation ratio, reaction times
//!   e16 [--days N] closed-loop intrusion response: both attack-campaign
//!                  shapes, periodic vs feedback recovery (N waves each)
//!   all            everything above, in order (takes neither --json
//!                  nor --trace-export: several experiments would write
//!                  the one file)
//!
//! flags:
//!   --seed N       simulation seed (default 42)
//!   --days N       e4/e12 compressed days, e16 campaign waves (default 6)
//!   --steps N      e11 ramp steps to run (default: the full ramp)
//!   --substations N
//!                  e14: run a single sweep point with N substations
//!                  instead of the default sweep (must be >= 1)
//!   --devices-per N
//!                  e14: devices per substation bank (default 10,
//!                  must be >= 1)
//!   --batch N      e11: Merkle-batch PO-Request dissemination, up to N
//!                  updates per batch (default 0 = legacy per-update
//!                  broadcast). Selects the extended rate ramp
//!   --pipeline K   e11: keep up to K sequences in flight (default 1 =
//!                  serialized ordering)
//!   --json FILE    write e11 / e12 / e13 / e14 / e16 results as JSON
//!                  to FILE
//!   --metrics      print the metrics registry + journal digest after
//!                  e4/e5 (see EXPERIMENTS.md, "Observability")
//!   --trace        echo journal records live as the simulation runs
//!   --trace-export FILE
//!                  write the causal span trees of e4/e5 as Chrome
//!                  trace-event JSON (open in Perfetto; see
//!                  EXPERIMENTS.md, "Tracing")
//!   --prof FILE    enable the deterministic cost profiler: per-phase
//!                  attribution (simulated time, bytes, crypto ops)
//!                  prints after the run and folded stacks — ready for
//!                  `flamegraph.pl`/speedscope — are written to FILE.
//!                  e11 additionally prints a per-step attribution
//!                  report with an exact telescoping verdict
//!   --health-every N
//!                  flight recorder: journal per-replica Prime health
//!                  gauges and per-link Spines queue depths every N
//!                  protocol ticks (default 0 = off)
//! ```

use std::process::ExitCode;

use bench::chaos_experiment::{chaos_json, e12_chaos_soak, render_chaos};
use bench::figures::{fig1_conventional, fig2_spire, fig4_hmi};
use bench::mana_experiment::{e7_mana_detection, e7_roc, render_mana, render_roc};
use bench::plant_experiments::{
    e4_plant_deployment_traced, e5_reaction_time_traced, render_reaction,
};
use bench::recovery_experiments::{
    e6_ground_truth, e8_recovery_ablation, e9_diversity_ablation, render_diversity,
};
use bench::redteam_experiments::{
    e10_hardening_ablation, e1_commercial_attacks, e2_spire_network_attacks, e3_replica_excursion,
    render_ablation,
};
use bench::regional_experiment::{
    e14_default_points, e14_regional, regional_json, render_regional,
};
use bench::response_experiment::{campaign_json, e16_campaign, render_campaign, Shape};
use bench::saturation::{
    e11_batched_rates, e11_default_rates, e11_saturation_with, render_saturation,
    saturation_attribution, saturation_json, SaturationOpts,
};
use bench::site_experiment::{e13_site_failover, render_site_failover, site_failover_json};
use spire::site::SubstationTopology;

struct Options {
    seed: u64,
    days: u64,
    steps: usize,
    metrics: bool,
    trace: bool,
    trace_export: Option<String>,
    json: Option<String>,
    prof: Option<String>,
    health_every: u64,
    batch: u32,
    pipeline: u32,
    substations: Option<u32>,
    devices_per: u32,
}

fn parse_flags(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 42,
        days: 6,
        // "Whole ramp" by default; --steps N truncates whichever ramp
        // (legacy or batched) the e11 arm selects.
        steps: usize::MAX,
        metrics: false,
        trace: false,
        trace_export: None,
        json: None,
        prof: None,
        health_every: 0,
        batch: 0,
        pipeline: 1,
        substations: None,
        devices_per: 10,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--substations" | "--devices-per") => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                let parsed: u32 = value
                    .parse()
                    .map_err(|_| format!("{flag}: not a number: {value}"))?;
                if parsed == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
                match flag {
                    "--substations" => opts.substations = Some(parsed),
                    _ => opts.devices_per = parsed,
                }
            }
            flag @ ("--seed" | "--days" | "--steps" | "--health-every" | "--batch"
            | "--pipeline") => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("{flag}: not a number: {value}"))?;
                match flag {
                    "--seed" => opts.seed = parsed,
                    "--days" => opts.days = parsed,
                    "--steps" => opts.steps = parsed as usize,
                    "--health-every" => opts.health_every = parsed,
                    "--batch" => opts.batch = parsed as u32,
                    _ => opts.pipeline = (parsed as u32).max(1),
                }
            }
            "--metrics" => opts.metrics = true,
            "--trace" => opts.trace = true,
            "--trace-export" => {
                i += 1;
                let path = args
                    .get(i)
                    .ok_or_else(|| "--trace-export requires a file path".to_string())?;
                opts.trace_export = Some(path.clone());
            }
            "--json" => {
                i += 1;
                let path = args
                    .get(i)
                    .ok_or_else(|| "--json requires a file path".to_string())?;
                opts.json = Some(path.clone());
            }
            "--prof" => {
                i += 1;
                let path = args
                    .get(i)
                    .ok_or_else(|| "--prof requires a file path".to_string())?;
                opts.prof = Some(path.clone());
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Writes `json` to `path`. Returns false (and explains on stderr) when
/// the path cannot be written, so `main` can exit nonzero.
fn write_json(path: &str, json: &str) -> bool {
    match std::fs::write(path, json) {
        Ok(()) => {
            eprintln!("json written to {path}");
            true
        }
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            false
        }
    }
}

/// Writes the journal's span trees as Chrome trace-event JSON. Returns
/// false (and explains on stderr) when the path cannot be written.
fn export_trace(path: &str, journal: &[obs::TimedEvent]) -> bool {
    let json = obs::trace::chrome_trace_json(journal);
    match std::fs::write(path, &json) {
        Ok(()) => {
            eprintln!("trace written to {path} (open in https://ui.perfetto.dev)");
            true
        }
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            false
        }
    }
}

/// Writes the profiler's folded-stack output (`stack value` lines, the
/// format `flamegraph.pl` and speedscope ingest). Returns false (and
/// explains on stderr) when the path cannot be written.
fn write_folded(path: &str, profile: &obs::prof::Profile) -> bool {
    match std::fs::write(path, profile.folded()) {
        Ok(()) => {
            eprintln!("folded stacks written to {path}");
            true
        }
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            false
        }
    }
}

/// Runs `command`. `None` means the command is unknown; `Some(ok)` runs
/// it, with `ok` false when a requested output file could not be written.
fn run(command: &str, opts: &Options) -> Option<bool> {
    let mut ok = true;
    match command {
        "figures" => {
            println!("{}", fig1_conventional(opts.seed));
            println!("{}", fig2_spire(opts.seed + 1));
            println!("{}", fig4_hmi(opts.seed + 2));
        }
        "e1" => println!("{}", e1_commercial_attacks(opts.seed).render()),
        "e2" => {
            let r = e2_spire_network_attacks(opts.seed);
            println!("{}", r.report.render());
            println!(
                "frames {} -> {}   arp rejections {}   spines auth failures {}",
                r.frames_before, r.frames_after, r.arp_rejections, r.spines_auth_failures
            );
        }
        "e3" => {
            let r = e3_replica_excursion(opts.seed);
            for s in &r.stages {
                println!(
                    "stage {}: {:<55} disrupted: {:<5}  {}",
                    s.number, s.action, s.disrupted_service, s.evidence
                );
            }
            println!("spire survived: {}", r.spire_survived());
        }
        "e4" => {
            let r = e4_plant_deployment_traced(
                opts.seed,
                opts.days,
                30,
                opts.trace,
                opts.trace_export.is_some(),
            );
            println!(
                "days: {} ({} s/day)   recoveries: {}   min executed: {}\n\
                 hmi frames: {}   view changes: {}   longest display gap: {}\n\
                 replicas consistent: {}",
                r.days,
                r.seconds_per_day,
                r.recoveries,
                r.min_executed,
                r.hmi_frames,
                r.view_changes,
                r.longest_display_gap,
                r.replicas_consistent,
            );
            if opts.metrics {
                println!("\n{}", r.obs.render());
            }
            if let Some(path) = &opts.trace_export {
                ok &= export_trace(path, &r.obs.journal);
            }
        }
        "e5" => {
            let r = e5_reaction_time_traced(opts.seed, 10, opts.trace);
            println!("{}", render_reaction(&r));
            if opts.metrics {
                println!("{}", r.obs.render());
            }
            if let Some(path) = &opts.trace_export {
                ok &= export_trace(path, &r.obs.journal);
            }
        }
        "e6" => println!("{:#?}", e6_ground_truth(opts.seed)),
        "e7" => println!("{}", render_mana(&e7_mana_detection(opts.seed))),
        "e7b" => println!("{}", render_roc(&e7_roc(opts.seed))),
        "e8" => {
            for arm in e8_recovery_ablation(opts.seed) {
                println!(
                    "{:<36} n={}   executed: {:>3}   live: {}",
                    arm.label, arm.n, arm.executed_during_window, arm.stayed_live
                );
            }
        }
        "e9" => println!(
            "{}",
            render_diversity(&e9_diversity_ablation(opts.seed, 20))
        ),
        "e10" => println!("{}", render_ablation(&e10_hardening_ablation(opts.seed))),
        "e11" => {
            let sat_opts = SaturationOpts {
                batch_max: opts.batch,
                pipeline: opts.pipeline,
            };
            let rates = if opts.batch > 0 {
                e11_batched_rates()
            } else {
                e11_default_rates()
            };
            let rates = &rates[..opts.steps.clamp(1, rates.len())];
            let run = e11_saturation_with(opts.seed, rates, sat_opts);
            println!("{}", render_saturation(&run));
            if obs::prof::enabled() {
                println!("{}", saturation_attribution(&run));
            }
            if let Some(path) = &opts.json {
                ok &= write_json(path, &saturation_json(&run));
            }
        }
        "e12" => {
            let run = e12_chaos_soak(opts.seed, opts.days, 30);
            println!("{}", render_chaos(&run));
            if let Some(path) = &opts.json {
                ok &= write_json(path, &chaos_json(&run));
            }
        }
        "e13" => {
            let run = e13_site_failover(opts.seed);
            println!("{}", render_site_failover(&run));
            if let Some(path) = &opts.json {
                ok &= write_json(path, &site_failover_json(&run));
            }
        }
        "e14" => {
            let points = match opts.substations {
                Some(s) => vec![(s, opts.devices_per)],
                None => e14_default_points(),
            };
            let run = e14_regional(opts.seed, &points, 5);
            println!("{}", render_regional(&run));
            if let Some(path) = &opts.json {
                ok &= write_json(path, &regional_json(&run));
            }
        }
        "e16" => {
            let a = e16_campaign(opts.seed, Shape::ImplantFlood, opts.days);
            let b = e16_campaign(opts.seed, Shape::DoubleCompromise, opts.days);
            println!("{}", render_campaign(&a));
            println!("{}", render_campaign(&b));
            if let Some(path) = &opts.json {
                let json = format!("[\n{},\n{}\n]\n", campaign_json(&a), campaign_json(&b));
                ok &= write_json(path, &json);
            }
        }
        "all" => {
            for c in [
                "figures", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e7b", "e8", "e9", "e10",
                "e11", "e12", "e13", "e14", "e16",
            ] {
                println!("\n===== {c} =====\n");
                ok &= run(c, opts).unwrap_or(false);
            }
        }
        _ => return None,
    }
    Some(ok)
}

/// Every runnable experiment id, as listed by usage and unknown-command
/// errors.
const COMMANDS: &[&str] = &[
    "figures", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e7b", "e8", "e9", "e10", "e11", "e12",
    "e13", "e14", "e16", "all",
];

fn usage() -> String {
    format!(
        "usage: spire-sim <{}> [--seed N] [--days N] [--steps N] [--batch N] [--pipeline K] \
         [--substations N] [--devices-per N] [--metrics] [--trace] \
         [--trace-export FILE] [--json FILE] [--prof FILE] [--health-every N]",
        COMMANDS.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(&args[1..]) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(count) = opts.substations {
        // Both flags are known only now; refuse a region the deployment's
        // addressing cannot hold before anything runs.
        if let Err(why) = SubstationTopology::new(count, opts.devices_per).validate() {
            eprintln!(
                "--substations {count} --devices-per {}: {why}",
                opts.devices_per
            );
            return ExitCode::FAILURE;
        }
    }
    if command == "all" && (opts.json.is_some() || opts.trace_export.is_some()) {
        eprintln!(
            "all takes neither --json nor --trace-export: \
             each experiment would overwrite the one file"
        );
        return ExitCode::FAILURE;
    }
    // Arm the profiler/flight recorder before any simulation runs; the
    // profiler never perturbs a run digest.
    obs::prof::set_enabled(opts.prof.is_some());
    obs::prof::set_health_every(opts.health_every);
    let mut ok = match run(command, &opts) {
        Some(ok) => ok,
        None => {
            eprintln!(
                "unknown command: {command}\navailable commands: {}",
                COMMANDS.join(" ")
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.prof {
        let profile = obs::prof::take();
        obs::prof::set_enabled(false);
        println!("{}", obs::report::attribution_markdown(&profile, None));
        ok &= write_folded(path, &profile);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
