//! `compare A.json B.json` — the before/after table every later issue
//! uses — and `manifest BENCHMARK.json`, which keeps the manifest and the
//! binary's metric tables from drifting apart.

use crate::json::Json;
use crate::metrics::{self, Clock, MetricDef};
use crate::runner::{RUN_SECONDS, SCHEMA};
use crate::workloads::NAMES;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread wider than the bound: the metric cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for metric `m`. `spread` is the wider of
/// the two sides' best-of-R spreads (0 on the simulated clock).
pub fn judge(m: &MetricDef, base: f64, new: f64, spread: f64) -> Verdict {
    if spread > m.bound {
        return Verdict::Unresolved;
    }
    let change = if base != 0.0 {
        (new - base) / base.abs()
    } else {
        new - base
    };
    let worse_by = if m.better == "lower" { change } else { -change };
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The workload records of a result set (`all --out`), or the single
/// record of one run.
fn records(set: &Json) -> Vec<&Json> {
    match set.get("workloads").and_then(Json::as_arr) {
        Some(list) => list.iter().collect(),
        None => vec![set],
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let set = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for record in records(&set) {
        if record.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{path}: not a {SCHEMA} result"));
        }
        if record.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path}: quick results prove plumbing, not performance"
            ));
        }
        if record.get("traced").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path}: end-to-end metrics come from untraced runs only"
            ));
        }
    }
    Ok(set)
}

fn metric_value(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn wall_spread(record: &Json) -> f64 {
    record
        .get("repeated")
        .and_then(|r| r.get("spread"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn run(base_path: &str, new_path: &str) -> Result<(), String> {
    let (base_set, new_set) = (load(base_path)?, load(new_path)?);
    let (base, new) = (records(&base_set), records(&new_set));
    let field = |r: &Json, key: &str| r.get(key).cloned().unwrap_or(Json::Null);
    println!("base: {base_path}\nnew:  {new_path}   (ratio = new / base)");
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut worse = 0;
    for b in &base {
        let workload = field(b, "workload");
        let Some(n) = new.iter().find(|n| field(n, "workload") == workload) else {
            return Err(format!("{new_path}: no record for {}", workload.compact()));
        };
        let workload = workload.as_str().unwrap_or("?").to_string();
        for key in ["seed", "inputs_digest"] {
            if field(b, key) != field(n, key) {
                return Err(format!(
                    "{workload}: the two sides ran different inputs ({key} differs)"
                ));
            }
        }
        for m in &metrics::END_TO_END {
            let (Some(bv), Some(nv)) = (metric_value(b, m.name), metric_value(n, m.name)) else {
                return Err(format!("{workload}: {} missing", m.name));
            };
            // Only what is divided by the repeats' wall time inherits
            // their spread.
            let spread = match (m.clock, m.unit) {
                (Clock::Host, "1/s") => wall_spread(b).max(wall_spread(n)),
                _ => 0.0,
            };
            let verdict = judge(m, bv, nv, spread);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>7.3} {:>5.0}%  {}",
                workload,
                m.name,
                bv,
                nv,
                if bv != 0.0 { nv / bv } else { f64::NAN },
                m.bound * 100.0,
                verdict.name()
            );
        }
        let count = |r: &Json, key: &str| field(r, key).as_f64().unwrap_or(f64::NAN);
        let (bf, nf) = (count(b, "failed"), count(n, "failed"));
        // Any operation failing where none did before is worse, whatever
        // the speed (bound 0).
        let verdict = if nf > bf || field(n, "correct") != Json::Bool(true) {
            worse += 1;
            "worse"
        } else if nf < bf {
            "better"
        } else {
            "same"
        };
        println!(
            "{:<14} {:<20} {:>14} {:>14} {:>7} {:>5}%  {}   (of {} / {} attempted)",
            workload,
            "failed",
            bf,
            nf,
            "",
            0,
            verdict,
            count(b, "attempted"),
            count(n, "attempted")
        );
        for (side, r) in [("base", b), ("new", n)] {
            if r.get("repeated").and_then(|x| x.get("disturbed")) == Some(&Json::Bool(true)) {
                println!("{workload}: {side} side was disturbed (best repeat waited for a CPU)");
            }
        }
    }
    if worse > 0 {
        return Err(format!("{worse} row(s) worse"));
    }
    Ok(())
}

fn list_of(list: Option<&Json>, path: &str, key: &str) -> Result<Vec<Json>, String> {
    list.and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: {key} is not a list"))
}

/// `BENCHMARK.json` must have exactly the driver's keys and name exactly
/// the workloads and metrics this binary prints, with the same units,
/// directions and bounds.
pub fn check_manifest(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut keys: Vec<&str> = manifest
        .as_obj()
        .ok_or_else(|| format!("{path}: not an object"))?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    keys.sort_unstable();
    let expected = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    if keys != expected {
        return Err(format!("{path}: keys are {keys:?}, expected {expected:?}"));
    }

    if manifest.get("run_seconds").and_then(Json::as_f64) != Some(RUN_SECONDS as f64) {
        return Err(format!(
            "{path}: run_seconds is not the binary's {RUN_SECONDS}"
        ));
    }
    let listed: Vec<Json> = list_of(manifest.get("workloads"), path, "workloads")?;
    let listed_names: Vec<&str> = listed
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if listed_names != NAMES {
        return Err(format!(
            "{path}: workloads {listed_names:?}, binary runs {NAMES:?}"
        ));
    }

    for (key, table, bounded) in [
        ("end_to_end", &metrics::END_TO_END[..], true),
        ("per_layer", &metrics::PER_LAYER[..], false),
    ] {
        let listed = list_of(manifest.get(key), path, key)?;
        let expected: Vec<Json> = table.iter().map(|m| manifest_row(m, bounded)).collect();
        if listed != expected {
            let differs = listed
                .iter()
                .zip(&expected)
                .position(|(got, want)| got != want);
            return Err(format!(
                "{path}: {key} lists {} metrics and the binary prints {} (first difference at \
                 entry {}); the binary's list is:\n{}",
                listed.len(),
                expected.len(),
                differs.unwrap_or(listed.len().min(expected.len())),
                Json::Arr(expected).pretty()
            ));
        }
    }
    println!(
        "{path}: {} workloads, {} end-to-end and {} per-layer metrics match the binary",
        NAMES.len(),
        metrics::END_TO_END.len(),
        metrics::PER_LAYER.len()
    );
    Ok(())
}

/// A metric as `BENCHMARK.json` lists it.
fn manifest_row(m: &MetricDef, bounded: bool) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better)),
    ];
    if bounded {
        pairs.push(("bound", Json::Num(m.bound)));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static MetricDef {
        metrics::end_to_end(name).expect("known metric")
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let rate = metric("sim_events_per_s"); // higher is better, 25 %
        assert_eq!(judge(rate, 200_000.0, 205_000.0, 0.01), Verdict::Same);
        assert_eq!(judge(rate, 200_000.0, 140_000.0, 0.01), Verdict::Worse);
        assert_eq!(judge(rate, 200_000.0, 400_000.0, 0.01), Verdict::Better);
        let latency = metric("latency_p50_ms"); // lower is better
        assert_eq!(judge(latency, 30.0, 40.0, 0.0), Verdict::Worse);
        assert_eq!(judge(latency, 30.0, 20.0, 0.0), Verdict::Better);
        assert_eq!(judge(latency, 30.0, 30.0, 0.0), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_whatever_the_change() {
        let rate = metric("sim_events_per_s");
        assert_eq!(judge(rate, 200_000.0, 100_000.0, 0.3), Verdict::Unresolved);
        assert_eq!(judge(rate, 200_000.0, 200_000.0, 0.3), Verdict::Unresolved);
    }
}
