//! One run of one workload: the untraced run that produces the
//! end-to-end metrics, and what both kinds of run share (arguments, the
//! repeat-equality check, the result record).

use std::time::Instant;

use crate::adapter::digest_hex;
use crate::json::Json;
use crate::machine;
use crate::metrics::{self, MetricDef};
use crate::spans::Spans;
use crate::stats::{self, Best};
use crate::workloads::{self, Facts, Mode, Repeat, Section, Sizes};

/// Never fewer: with two repeats a disturbed one cannot be told apart.
const MIN_REPEATS: usize = 3;
/// Never more, however long `--seconds` is.
const MAX_REPEATS: usize = 40;

pub const SCHEMA: &str = "spire-benchmark-v1";

/// `BENCHMARK.json`'s `run_seconds`: how long a full-size run measures
/// when `--seconds` does not say.
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    /// Where to write the full record (the last stdout line carries only
    /// what the driver reads).
    pub record: Option<String>,
}

impl Args {
    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        }
    }
}

/// A finished run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Everything else worth keeping, for the record file.
    pub detail: Vec<(&'static str, Json)>,
}

/// The repeated section's clocks, and the facts all repeats agreed on.
pub struct Repeated {
    pub repeats: Vec<Repeat>,
    /// `best` is the sum over the slices of the measured section of the
    /// best wall any repeat spent on that slice; `median` the median
    /// repeat's whole wall.
    pub wall: Best,
    pub best_cpu_s: f64,
    /// The best repeat's wall exceeds its CPU time by more than a tenth:
    /// something else had the processor, so even the best repeat waited.
    pub disturbed: bool,
}

impl Repeated {
    pub fn facts(&self) -> &Facts {
        &self.repeats[0].facts
    }

    pub fn json(&self) -> Json {
        Json::obj([
            ("best_wall_s", Json::Num(self.wall.best)),
            ("median_wall_s", Json::Num(self.wall.median)),
            ("slices", Json::Num(self.repeats[0].slices.len() as f64)),
            ("spread", Json::Num(self.wall.spread)),
            ("best_cpu_s", Json::Num(self.best_cpu_s)),
            ("disturbed", Json::Bool(self.disturbed)),
            (
                "repeats",
                Json::Arr(
                    self.repeats
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("setup_s", Json::Num(r.setup_s)),
                                ("wall_s", Json::Num(r.wall_s)),
                                ("cpu_s", Json::Num(r.cpu_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Repeats `one` until `budget_s` of host time (counted from `started`)
/// would be overrun by another repeat, at least `MIN_REPEATS` times, and
/// insists that every repeat did the same work.
fn repeat_until(
    started: Instant,
    budget_s: f64,
    mut one: impl FnMut() -> Repeat,
) -> Result<Repeated, String> {
    let mut repeats: Vec<Repeat> = Vec::new();
    loop {
        let began = Instant::now();
        repeats.push(one());
        let last_s = began.elapsed().as_secs_f64();
        let enough = repeats.len() >= MIN_REPEATS;
        if repeats.len() >= MAX_REPEATS
            || (enough && started.elapsed().as_secs_f64() + last_s > budget_s)
        {
            break;
        }
    }
    summarize(repeats, 1)
}

pub fn summarize(repeats: Vec<Repeat>, threads: usize) -> Result<Repeated, String> {
    let first = &repeats[0].facts;
    if let Some(i) = repeats.iter().position(|r| r.facts != *first) {
        return Err(format!(
            "repeat {i} did different work than repeat 0 \
             (digest {} events {} vs digest {} events {}): nothing timed was the same work",
            repeats[i].facts.digest, repeats[i].facts.events, first.digest, first.events
        ));
    }
    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let per_repeat: Vec<&[f64]> = repeats.iter().map(|r| r.slices.as_slice()).collect();
    let wall = stats::best_of_slices(&per_repeat, &walls);
    let best = repeats
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repeat");
    let best_cpu_s = best.cpu_s;
    // With worker threads CPU time exceeds wall time by design; the test
    // only means something on one thread.
    let disturbed = threads == 1 && best.wall_s > best.cpu_s * 1.10 + 0.02;
    Ok(Repeated {
        repeats,
        wall,
        best_cpu_s,
        disturbed,
    })
}

/// Set-up times: one per repeat, topped up with set-ups alone until
/// there are `SETUP_SAMPLES` or the top-up has cost `SETUP_TOP_UP_S`.
/// Cheap fixtures (a millisecond or less) need the many samples for a
/// steady median; dear ones are steady in three and get no more.
fn setup_samples(repeated: &Repeated, mut set_up_once: impl FnMut() -> f64) -> Vec<f64> {
    const SETUP_SAMPLES: usize = 15;
    const SETUP_TOP_UP_S: f64 = 0.5;
    let mut samples: Vec<f64> = repeated.repeats.iter().map(|r| r.setup_s).collect();
    let mut spent = 0.0;
    while samples.len() < SETUP_SAMPLES && spent + samples[0] < SETUP_TOP_UP_S {
        let s = set_up_once();
        spent += s;
        samples.push(s);
    }
    samples
}

fn facts_json(facts: &Facts) -> Json {
    Json::obj([
        ("events", Json::Num(facts.events as f64)),
        ("events_total", Json::Num(facts.events_total as f64)),
        ("ordered", Json::Num(facts.ordered as f64)),
        ("sim_us", Json::Num(facts.sim_us as f64)),
        ("digest", Json::Str(facts.digest.clone())),
        ("latency_samples", Json::Num(facts.latencies.len() as f64)),
        (
            "latency_missed",
            Json::Num(facts.latencies.iter().filter(|l| l.is_none()).count() as f64),
        ),
        (
            // In order of occurrence; the ramp's thousands are summarised
            // by the metrics alone.
            "latencies_ms",
            Json::Arr(if facts.latencies.len() <= 200 {
                let ms = |l: &Option<u64>| l.map_or(Json::Null, |us| Json::Num(us as f64 / 1e3));
                facts.latencies.iter().map(ms).collect()
            } else {
                Vec::new()
            }),
        ),
        ("attempted", Json::Num(facts.attempted as f64)),
        ("failed", Json::Num(facts.failed as f64)),
        ("consistent", Json::Bool(facts.consistent)),
        (
            "extras",
            Json::obj(facts.extras.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
    ])
}

/// The untraced run: tracing off, no counters read, host figures the
/// best of R identical repeats.
pub fn untraced(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let sizes = args.sizes();
    let (workload, seed) = (args.workload.as_str(), args.seed);
    let mut spans = Spans::new(false);

    let section = Section::of(workload, &sizes);
    let mut run = |section: Section, count: bool| {
        let mut mode = Mode {
            spans: &mut spans,
            count,
        };
        workloads::repeat(section, seed, &sizes, &mut mode)
    };

    // What runs once. plant_deploy's probe phase supplies its latencies;
    // Prime alone has no `Simulation` to count events, so one pass under
    // `obs::prof` (which changes no behaviour) counts its scheduler's.
    let once: Option<Repeat> = match workload {
        "plant_deploy" => Some(run(Section::PlantProbe, false)),
        "ordering_ramp" => Some(run(section, true)),
        _ => None,
    };
    let repeated = repeat_until(started, args.seconds as f64, || run(section, false))?;
    let setups = setup_samples(&repeated, || {
        let began = Instant::now();
        drop(workloads::set_up(
            section,
            seed,
            &sizes,
            &mut Spans::new(false),
        ));
        began.elapsed().as_secs_f64()
    });
    let facts = repeated.facts();

    let mut events = facts.events;
    let mut latency_source = facts;
    let mut correct = facts.consistent;
    let (mut attempted, mut failed) = (facts.attempted, facts.failed);
    match (workload, &once) {
        ("plant_deploy", Some(probe)) => {
            latency_source = &probe.facts;
            correct &= probe.facts.consistent;
            attempted += probe.facts.attempted;
            failed += probe.facts.failed;
        }
        ("ordering_ramp", Some(counted)) => {
            if counted.facts != *facts {
                return Err("the profiled pass did different work than the plain repeats".into());
            }
            events = counted
                .counts
                .as_ref()
                .map_or(0, |c| c.prof.iter().map(|row| row.events).sum());
        }
        _ => {}
    }
    if latency_source.latencies.is_empty() || events == 0 || facts.ordered == 0 {
        return Err(format!(
            "{workload} measured nothing: {} latencies, {events} events, {} ordered",
            latency_source.latencies.len(),
            facts.ordered
        ));
    }

    let tail_p = stats::tail_percentile(latency_source.latencies.len());
    let value = |name: &str| match name {
        "setup_s" => stats::median(&setups),
        "sim_events_per_s" => events as f64 / repeated.wall.best,
        "ordered_per_wall_s" => facts.ordered as f64 / repeated.wall.best,
        "peak_rss_mb" => machine::peak_rss_mb(),
        "latency_p50_ms" => {
            stats::percentile_ms(&latency_source.latencies, 50.0, latency_source.missed_ms)
        }
        "latency_tail_ms" => {
            stats::percentile_ms(&latency_source.latencies, tail_p, latency_source.missed_ms)
        }
        other => unreachable!("no end-to-end metric {other}"),
    };
    let metrics = metrics::END_TO_END
        .iter()
        .map(|m| (m, value(m.name)))
        .collect();

    let mut detail = vec![
        ("repeated", repeated.json()),
        ("setup_samples", Json::Num(setups.len() as f64)),
        ("facts", facts_json(facts)),
        ("events_counted", Json::Num(events as f64)),
        ("tail_percentile", Json::Num(tail_p)),
        (
            "failed_share",
            Json::Num(stats::failed_share(failed, attempted)),
        ),
    ];
    if let Some(once) = &once {
        detail.push((
            "once",
            Json::obj([
                ("setup_s", Json::Num(once.setup_s)),
                ("wall_s", Json::Num(once.wall_s)),
                ("cpu_s", Json::Num(once.cpu_s)),
                ("facts", facts_json(&once.facts)),
            ]),
        ));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// The one line the driver reads: exactly these four keys.
pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(m, v)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// The full record: the result line's content plus everything needed to
/// judge and reproduce it.
pub fn record(args: &Args, outcome: &Outcome, elapsed_s: f64) -> Json {
    let sizes = args.sizes();
    let inputs = workloads::inputs_text(&args.workload, args.seed, &sizes);
    let mut pairs = vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("quick".into(), Json::Bool(args.quick)),
        ("traced".into(), Json::Bool(args.trace)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("elapsed_s".into(), Json::Num(elapsed_s)),
        ("machine".into(), machine::descriptor()),
        ("sizes".into(), Json::Str(format!("{sizes:?}"))),
        ("inputs_digest".into(), Json::Str(digest_hex(&inputs))),
    ];
    if let Json::Obj(result) = result_line(outcome) {
        pairs.extend(result);
    }
    pairs.extend(
        outcome
            .detail
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone())),
    );
    Json::Obj(pairs)
}

/// Writes `text` to `path`, creating the directory it names.
pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}
