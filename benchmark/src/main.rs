//! `spire-benchmark` — the repository's benchmark (README.md).
//!
//! ```text
//! spire-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--record FILE]
//!     One run of one workload. The last stdout line is the result:
//!     {"correct":..,"attempted":..,"failed":..,"metrics":{..}} with every
//!     end-to-end metric (--trace 0) or every per-layer metric (--trace 1,
//!     which also writes benchmark/out/trace.<workload>.json).
//! spire-benchmark all [--seed N] [--seconds S] [--trace 0|1] [--quick] --out FILE
//!     Every workload, each in a child process of its own, gathered into
//!     one result set.
//! spire-benchmark compare A.json B.json
//!     One row per workload x end-to-end metric of two result sets; exits
//!     non-zero when any row is worse.
//! spire-benchmark manifest BENCHMARK.json
//!     Checks that the manifest names exactly the workloads and metrics
//!     this binary prints.
//! ```

mod adapter;
mod compare;
mod json;
mod layers;
mod machine;
mod metrics;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use runner::Args;

const OUT_DIR: &str = "benchmark/out";

fn usage() -> String {
    format!(
        "usage: spire-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--record FILE]\n       spire-benchmark all [--seed N] [--seconds S] \
         [--trace 0|1] [--quick] --out FILE\n       spire-benchmark compare A.json B.json\n       \
         spire-benchmark manifest BENCHMARK.json",
        workloads::NAMES.join("|")
    )
}

/// Flags shared by a single run and `all`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    record: Option<String>,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        record: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = number(value()?)?,
            "--seconds" => flags.seconds = Some(number(value()?)?.max(1)),
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => flags.quick = true,
            "--record" => flags.record = Some(value()?),
            "--out" => flags.out = Some(value()?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(flags)
}

/// The length of a run when none is given: next to nothing in quick
/// mode, where the three repeats every run makes are already enough.
fn default_seconds(quick: bool) -> u64 {
    if quick {
        1
    } else {
        runner::RUN_SECONDS
    }
}

fn run_one(flags: Flags) -> Result<(), String> {
    let workload = flags.workload.ok_or_else(usage)?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload: {workload}\n{}", usage()));
    }
    let args = Args {
        workload,
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(default_seconds(flags.quick)),
        trace: flags.trace,
        quick: flags.quick,
        record: flags.record,
    };
    let started = Instant::now();
    let outcome = if args.trace {
        layers::traced(&args, &format!("{OUT_DIR}/trace.{}.json", args.workload))?
    } else {
        runner::untraced(&args)?
    };
    let record = runner::record(&args, &outcome, started.elapsed().as_secs_f64());
    let path = args.record.clone().unwrap_or_else(|| {
        format!(
            "{OUT_DIR}/{}.{}.json",
            args.workload,
            if args.trace { "layers" } else { "run" }
        )
    });
    runner::write_file(&path, &record.pretty())?;

    println!(
        "{} seed {} ({}, {}): correct {} attempted {} failed {}",
        args.workload,
        args.seed,
        if args.quick { "quick" } else { "full size" },
        if args.trace { "traced" } else { "untraced" },
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (m, v) in &outcome.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, v, m.unit);
    }
    println!("record: {path}");
    println!("{}", runner::result_line(&outcome).compact());
    if outcome.correct {
        Ok(())
    } else {
        Err(format!("{}: outputs are not correct", args.workload))
    }
}

/// Every workload, each in a child process so that one workload's
/// memory high-water mark and allocator state never reach the next.
/// Children run one after another and each is waited for.
fn run_all(flags: Flags) -> Result<(), String> {
    let out = flags.out.ok_or("all requires --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let seconds = flags.seconds.unwrap_or(default_seconds(flags.quick));
    let mut records = Vec::new();
    for workload in workloads::NAMES {
        let record_path = format!("{OUT_DIR}/all.{workload}.json");
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if flags.trace { "1" } else { "0" }])
            .args(["--record", &record_path]);
        if flags.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {workload}: {e}"))?;
        if !status.success() {
            return Err(format!("{workload} failed: {status}"));
        }
        let text =
            std::fs::read_to_string(&record_path).map_err(|e| format!("{record_path}: {e}"))?;
        records.push(Json::parse(&text).map_err(|e| format!("{record_path}: {e}"))?);
    }
    let set = Json::obj([
        ("schema", Json::str(runner::SCHEMA)),
        ("quick", Json::Bool(flags.quick)),
        ("traced", Json::Bool(flags.trace)),
        ("seed", Json::Num(flags.seed as f64)),
        ("machine", machine::descriptor()),
        ("workloads", Json::Arr(records)),
    ]);
    runner::write_file(&out, &set.pretty())?;
    println!("result set: {out}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None => Err(usage()),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(usage()),
        },
        Some("manifest") => match &args[1..] {
            [path] => compare::check_manifest(path),
            _ => Err(usage()),
        },
        Some("all") => parse_flags(&args[1..]).and_then(run_all),
        Some(_) => parse_flags(&args).and_then(run_one),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
