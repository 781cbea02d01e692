//! The traced run: per-layer numbers taken from outside the program.
//!
//! Exact operation counts come from the product's own counters
//! (`ObsReport`) and simulated-cost profile (`obs::prof`), read after one
//! pass of the workload with both switched on. Per-operation host costs
//! come from replaying each layer's public functions alone, on inputs of
//! the workload's size. A layer's share is count x unit cost over the
//! untraced wall of the same workload: an estimate, whose remainder is
//! printed as `unattributed_share`. Telescoping wall-clock attribution
//! inside the program is a later change.

use std::time::Instant;

use crate::adapter::{self, Kernel, ProfRow};
use crate::json::Json;
use crate::machine;
use crate::metrics;
use crate::runner::{self, Args, Outcome};
use crate::spans::Spans;
use crate::stats::{self, StepVerdict};
use crate::workloads::{self, Counts, Mode, Repeat, Section, Sizes};

/// Untraced repeats taken as the denominator of every share.
const REFERENCE_REPEATS: usize = 2;
/// Timed calls per replay kernel, after one warm-up call.
const REPLAY_REPEATS: usize = 3;
/// Bytes of a typical signed Prime message, for the sign/verify replays.
const SIGNED_MESSAGE_LEN: usize = 128;

fn counter_sum(counts: &Counts, prefix: &str, suffix: &str) -> f64 {
    counts
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|(_, v)| *v as f64)
        .sum::<f64>()
        + 0.0 // an empty f64 sum is -0.0
}

fn prof_sum(prof: &[ProfRow], prefix: &str, column: impl Fn(&ProfRow) -> u64) -> f64 {
    prof.iter()
        .filter(|row| row.stack.starts_with(prefix))
        .map(|row| column(row) as f64)
        .sum::<f64>()
        + 0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Best-of-three host nanoseconds per operation of `kernel`.
fn ns_per_op(spans: &mut Spans, name: &str, mut kernel: Kernel) -> f64 {
    spans.scope(&format!("replay.{name}"), |_| {
        kernel();
        (0..REPLAY_REPEATS)
            .map(|_| {
                let start = Instant::now();
                let ops = kernel();
                start.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    })
}

/// The ramp: fixed ascending rates, one fresh step each, stopping after
/// the first that misses the limit.
fn capacity_ramp(seed: u64, sizes: &Sizes, spans: &mut Spans) -> (u64, Json) {
    let (capacity, steps) =
        stats::capacity_search(&workloads::RAMP_RATES, workloads::RAMP_LIMIT_MS, |rate| {
            spans.scope(&format!("ramp.{rate}"), |spans| {
                let mut mode = Mode {
                    spans,
                    count: false,
                };
                let step = workloads::repeat(Section::OrderingStep(rate), seed, sizes, &mut mode);
                let facts = &step.facts;
                let tail_p = stats::tail_percentile(facts.latencies.len());
                StepVerdict {
                    submitted: facts.attempted,
                    executed: facts.ordered,
                    tail_ms: stats::percentile_ms(&facts.latencies, tail_p, facts.missed_ms),
                }
            })
        });
    let table = Json::Arr(
        steps
            .iter()
            .map(|(rate, v)| {
                Json::obj([
                    ("rate_per_s", Json::Num(*rate as f64)),
                    ("submitted", Json::Num(v.submitted as f64)),
                    ("executed", Json::Num(v.executed as f64)),
                    ("tail_ms", Json::Num(v.tail_ms)),
                    (
                        "meets_limit",
                        Json::Bool(v.passes(workloads::RAMP_LIMIT_MS)),
                    ),
                ])
            })
            .collect(),
    );
    (capacity, table)
}

/// `regional_grid` again on two worker threads: same digest required,
/// best of two walls.
fn two_threads(
    args: &Args,
    sizes: &Sizes,
    spans: &mut Spans,
    reference: &Repeat,
) -> Result<(f64, Json), String> {
    if machine::nproc() < 2 {
        return Ok((0.0, Json::str("skipped: fewer than 2 CPUs allowed")));
    }
    adapter::set_threads(2);
    let repeats: Vec<Repeat> = (0..REFERENCE_REPEATS)
        .map(|_| {
            spans.scope("reference.t2", |spans| {
                let mut mode = Mode {
                    spans,
                    count: false,
                };
                workloads::repeat(Section::RegionalGrid, args.seed, sizes, &mut mode)
            })
        })
        .collect();
    adapter::set_threads(1);
    if repeats.iter().any(|r| r.facts != reference.facts) {
        return Err("two worker threads did different work than one".into());
    }
    let repeated = runner::summarize(repeats, 2)?;
    Ok((repeated.wall.best, repeated.json()))
}

pub fn traced(args: &Args, trace_path: &str) -> Result<Outcome, String> {
    let sizes = args.sizes();
    let (workload, seed) = (args.workload.as_str(), args.seed);
    let section = Section::of(workload, &sizes);
    let mut spans = Spans::new(true);

    // The untraced wall every share is taken of. Spans around whole
    // repeats only: inside, the workload runs exactly as untraced.
    let mut quiet = Spans::new(false);
    let reference = runner::summarize(
        (0..REFERENCE_REPEATS)
            .map(|_| {
                spans.scope("reference", |_| {
                    let mut mode = Mode {
                        spans: &mut quiet,
                        count: false,
                    };
                    workloads::repeat(section, seed, &sizes, &mut mode)
                })
            })
            .collect(),
        1,
    )?;
    let wall_s = reference.wall.best;
    let facts = reference.facts().clone();

    // The counting pass: counters and simulated profile on, the benchmark
    // stepping one simulated second per span.
    let counted = spans.scope("counted", |spans| {
        workloads::repeat(section, seed, &sizes, &mut Mode { spans, count: true })
    });
    if counted.facts != facts {
        return Err(format!(
            "the counting pass did different work than the untraced repeats \
             (digest {} vs {}): counting must not change behaviour",
            counted.facts.digest, facts.digest
        ));
    }
    let counts = counted
        .counts
        .as_ref()
        .expect("counting pass collects counts");
    let prof = &counts.prof;
    let is_simnet = workload != "ordering_ramp";

    // Exact counts.
    let events = if is_simnet { facts.events as f64 } else { 0.0 };
    let frames_sent = counter_sum(counts, "net.frames_sent", "");
    let frames_delivered = counter_sum(counts, "net.frames_delivered", "");
    let frames_dropped = counter_sum(counts, "net.frames_dropped", "");
    let sign_ops = prof_sum(prof, "", |r| r.sign);
    let verify_ops = prof_sum(prof, "", |r| r.verify);
    let hmac_ops = prof_sum(prof, "", |r| r.hmac);
    let wire_bytes = prof_sum(prof, "", |r| r.bytes);
    let sealed = counter_sum(counts, "spines.", ".sealed");
    let opened = counter_sum(counts, "spines.", ".opened");
    let delivered = counter_sum(counts, "spines.", ".delivered");
    let executed = facts.ordered as f64;
    let applies = prof_sum(prof, "scada;apply", |r| r.events);
    let sim_time_us = prof_sum(prof, "", |r| r.time_us);
    let extra = |name: &str| {
        facts
            .extras
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    };

    // Inputs of the workload's size for the replays.
    let hop_frames = prof_sum(prof, "spines;hop", |r| r.events);
    let frame_len = if hop_frames > 0.0 {
        (prof_sum(prof, "spines;hop", |r| r.bytes) / hop_frames).round() as usize
    } else {
        64
    };
    let (prime_shape, timing) = match workload {
        "regional_grid" => (workloads::REGIONAL_PRIME, workloads::FAST),
        "chaos_soak" => (workloads::CHAOS_PRIME, workloads::FAST),
        _ => (workloads::LEGACY, workloads::FAST),
    };
    // Prime alone at this workload's ordering load, spread evenly the
    // way polls arrive, over at most five simulated seconds of it.
    let replay_us = facts.sim_us.min(5_000_000);
    let replay_updates = (executed * replay_us as f64 / facts.sim_us.max(1) as f64).round() as u64;
    let devices = if workload == "regional_grid" {
        sizes.regional_devices_per
    } else {
        1
    };

    let mut replay = |name: &str, kernel: Kernel| ns_per_op(&mut spans, name, kernel);
    let engine_ns = replay("simnet.engine", adapter::kernel_engine(frame_len));
    let queue_ns = replay("simnet.queue", adapter::kernel_queue(4096));
    let sha_64_ns = replay("itcrypto.sha256_64B", adapter::kernel_sha256(64));
    let sha_kib_ns = replay("itcrypto.sha256_KiB", adapter::kernel_sha256(1024));
    let hmac_ns = replay("itcrypto.hmac", adapter::kernel_hmac(frame_len));
    let sign_ns = replay("itcrypto.sign", adapter::kernel_sign(SIGNED_MESSAGE_LEN));
    let verify_ns = replay(
        "itcrypto.verify",
        adapter::kernel_verify(SIGNED_MESSAGE_LEN),
    );
    let verify_cached_ns = replay(
        "itcrypto.verify_cached",
        adapter::kernel_verify_cached(SIGNED_MESSAGE_LEN),
    );
    let merkle_ns = replay("itcrypto.merkle16", adapter::kernel_merkle_root(16, 64));
    let hop_ns = replay("spines.hop", adapter::kernel_spines(6, frame_len));
    // On ordering_ramp the workload is that replay already.
    let cluster_ns = if is_simnet {
        replay(
            "prime.cluster",
            adapter::kernel_cluster(prime_shape, timing, replay_updates, replay_us),
        )
    } else {
        wall_s * 1e9 / executed.max(1.0)
    };
    let apply_ns = replay("scada.apply", adapter::kernel_scada_apply(devices));
    let codec_ns = replay("modbus.codec", adapter::kernel_modbus_codec(3));
    let journal_ns = replay("obs.journal", adapter::kernel_journal());
    let digest_ns = replay(
        "obs.digest",
        adapter::kernel_journal_digest(counts.journal_records.max(1)),
    );

    // Shares of the untraced wall.
    let share = |count: f64, ns: f64| count * ns / 1e9 / wall_s;
    let engine_share = share(events, engine_ns);
    let crypto_share =
        share(sign_ops, sign_ns) + share(verify_ops, verify_ns) + share(hmac_ops, hmac_ns);
    let spines_share = share(opened, hop_ns);
    let prime_share = if is_simnet {
        share(replay_updates.max(1) as f64, cluster_ns)
            * (facts.sim_us as f64 / replay_us.max(1) as f64)
    } else {
        1.0
    };
    let scada_share = share(applies, apply_ns);
    let modbus_share = share(counts.polls as f64, codec_ns);
    let obs_share = share(counts.journal_records as f64, journal_ns);
    // Crypto runs inside the Spines hop and inside Prime, so its share is
    // part of theirs and is not subtracted again.
    let unattributed =
        1.0 - (engine_share + spines_share + prime_share + scada_share + modbus_share + obs_share);

    // Where host time went over the counted pass: host ms per simulated
    // second, slice by slice.
    let mut slices_ms: Vec<f64> = counted
        .slices
        .iter()
        .zip(&counted.slice_sim_us)
        .filter(|(_, &sim_us)| sim_us > 0)
        .map(|(wall_s, &sim_us)| wall_s * 1e9 / sim_us as f64)
        .collect();
    slices_ms.sort_by(f64::total_cmp);
    let slice_p50 = slices_ms.get(slices_ms.len() / 2).copied().unwrap_or(0.0);
    let slice_max = slices_ms.last().copied().unwrap_or(0.0);
    let build_ms = spans
        .named("build")
        .map(|s| s.wall_s() * 1e3)
        .fold(0.0, f64::max);

    let mut detail = vec![
        ("reference", reference.json()),
        ("counted_wall_s", Json::Num(counted.wall_s)),
        ("frame_len", Json::Num(frame_len as f64)),
        ("slices", Json::Num(slices_ms.len() as f64)),
    ];
    let (mut t2_wall, mut capacity) = (0.0, 0);
    match workload {
        "regional_grid" => {
            let (wall, json) = two_threads(args, &sizes, &mut spans, &reference.repeats[0])?;
            t2_wall = wall;
            detail.push(("two_threads", json));
        }
        "ordering_ramp" => {
            let (cap, table) = capacity_ramp(seed, &sizes, &mut spans);
            capacity = cap;
            detail.push(("ramp", table));
        }
        _ => {}
    }

    let value = |name: &str| -> f64 {
        match name {
            "simnet.events" => events,
            "simnet.frames_sent" => frames_sent,
            "simnet.frames_delivered" => frames_delivered,
            "simnet.frames_dropped" => frames_dropped,
            "simnet.delivered_per_sent" => ratio(frames_delivered, frames_sent),
            "simnet.engine_ns_per_event" => engine_ns,
            "simnet.queue_ns_per_op" => queue_ns,
            "simnet.engine_share" => engine_share,
            "simnet.slice_wall_ms_p50" => slice_p50,
            "simnet.slice_wall_ms_max" => slice_max,
            "simnet.t2_events_per_s" => ratio(events, t2_wall),
            "simnet.t2_speedup" => ratio(wall_s, t2_wall),
            "itcrypto.sign_ops" => sign_ops,
            "itcrypto.verify_ops" => verify_ops,
            "itcrypto.hmac_ops" => hmac_ops,
            "itcrypto.wire_bytes" => wire_bytes,
            "itcrypto.sha256_ns_per_64B" => sha_64_ns,
            "itcrypto.sha256_ns_per_KiB" => sha_kib_ns,
            "itcrypto.hmac_ns_per_op" => hmac_ns,
            "itcrypto.sign_ns_per_op" => sign_ns,
            "itcrypto.verify_ns_per_op" => verify_ns,
            "itcrypto.verify_cached_ns_per_op" => verify_cached_ns,
            "itcrypto.merkle16_ns_per_root" => merkle_ns,
            "itcrypto.share" => crypto_share,
            "spines.sealed" => sealed,
            "spines.opened" => opened,
            "spines.forwarded" => counter_sum(counts, "spines.", ".forwarded"),
            "spines.duplicates" => counter_sum(counts, "spines.", ".duplicates"),
            "spines.delivered" => delivered,
            "spines.delivered_per_opened" => ratio(delivered, opened),
            "spines.hop_ns_per_op" => hop_ns,
            "spines.share" => spines_share,
            "prime.executed" => executed,
            "prime.view_changes" => extra("prime.view_changes"),
            "prime.signs_per_update" => ratio(sign_ops, executed),
            "prime.verifies_per_update" => ratio(verify_ops, executed),
            "prime.preorder_sim_share" => {
                ratio(prof_sum(prof, "prime;preorder", |r| r.time_us), sim_time_us)
            }
            "prime.order_sim_share" => {
                ratio(prof_sum(prof, "prime;order", |r| r.time_us), sim_time_us)
            }
            "prime.cluster_ns_per_update" => cluster_ns,
            "prime.share" => prime_share,
            "prime.ordering_capacity_per_s" => capacity as f64,
            "scada.applies" => applies,
            "scada.apply_ns_per_op" => apply_ns,
            "scada.share" => scada_share,
            "scada.display_gap_max_ms" => extra("scada.display_gap_max_ms"),
            "modbus.polls" => counts.polls as f64,
            "modbus.codec_ns_per_op" => codec_ns,
            "modbus.share" => modbus_share,
            "spire.reports_sent" => counts.reports as f64,
            "spire.aggregation_ratio" => ratio(counts.polls as f64, counts.reports as f64),
            "spire.build_ms" => build_ms,
            "obs.journal_records" => counts.journal_records as f64,
            "obs.journal_ns_per_record" => journal_ns,
            "obs.digest_ms" => digest_ns / 1e6,
            "obs.share" => obs_share,
            "chaos.faults_injected" => extra("chaos.faults_injected"),
            "chaos.invariant_checks" => extra("chaos.invariant_checks"),
            "chaos.violations" => extra("chaos.violations"),
            "chaos.reconverge_mean_steps" => extra("chaos.reconverge_mean_steps"),
            "chaos.reconverge_max_steps" => extra("chaos.reconverge_max_steps"),
            "trace.overhead_ratio" => ratio(counted.wall_s, wall_s),
            "unattributed_share" => unattributed,
            other => unreachable!("no per-layer metric {other}"),
        }
    };
    let metrics = metrics::PER_LAYER
        .iter()
        .map(|m| (m, value(m.name)))
        .collect();

    runner::write_file(trace_path, &spans.chrome_trace(workload).compact())?;

    Ok(Outcome {
        correct: facts.consistent,
        attempted: facts.attempted.max(1),
        failed: facts.failed,
        metrics,
        detail,
    })
}
