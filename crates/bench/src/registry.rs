//! The experiment table: each experiment is written once, as one row of
//! [`EXPERIMENTS`], and everything that needs the list reads it — the
//! `spire-sim` commands and their flags ([`FLAGS`], [`parse_flags`],
//! [`usage`]), the golden pins ([`experiment_fingerprint`],
//! [`FINGERPRINTED`]) and the `--json` / `--metrics` / `--trace-export`
//! outputs ([`Output`]).
//!
//! Every experiment is deterministic from its seed, and most of them run
//! on top of the event journal; [`RunMeta`] captures the journal digest
//! plus the simulator's event count for each deployment an experiment
//! builds. [`experiment_fingerprint`] folds those captures (plus the
//! rendered result tables) into a single hex digest per pin, which
//! `tests/golden_digests.rs` holds at [`GOLDEN_SEED`] so performance work
//! cannot silently change observable behavior.

use std::fmt::Write as _;
use std::str::FromStr;

use itcrypto::sha256::sha256;
use simnet::sim::Simulation;
use spire::site::SubstationTopology;

use crate::chaos_experiment::{chaos_json, e12_chaos_soak, render_chaos, ChaosRun};
use crate::figures::{fig1_conventional, fig2_spire, fig4_hmi};
use crate::json::Json;
use crate::mana_experiment::{e7_mana_detection, e7_roc, render_mana, render_roc};
use crate::plant_experiments::{
    e4_plant_deployment, e4_plant_deployment_traced, e5_reaction_time_traced, render_reaction,
    PlantRun,
};
use crate::recovery_experiments::{
    e6_ground_truth, e8_recovery_ablation, e9_diversity_ablation, render_diversity, RecoveryArm,
};
use crate::redteam_experiments::{
    e10_hardening_ablation, e1_commercial_attacks, e2_spire_network_attacks, e3_replica_excursion,
    render_ablation,
};
use crate::regional_experiment::{
    e14_default_points, e14_regional, regional_json, render_regional, RegionalSweep,
};
use crate::response_experiment::{
    campaign_json, e16_campaign, render_campaign, CampaignRun, Shape,
};
use crate::saturation::{
    e11_batched_rates, e11_default_rates, e11_saturation_with, render_saturation,
    saturation_attribution, saturation_json, SaturationOpts, SaturationRun,
};
use crate::site_experiment::{
    e13_leg_by_id, e13_site_failover, render_leg, render_site_failover, site_failover_json,
};

/// The seed at which the golden digests in `tests/golden_digests.rs` are
/// pinned.
pub const GOLDEN_SEED: u64 = 42;

/// Determinism capture for one deployment (or lab) an experiment built:
/// the event-journal digest plus the simulator's processed-event count.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// Which deployment within the experiment this captures.
    pub label: String,
    /// Hex journal digest (`ObsHub::journal_digest`) at the end of the run.
    pub journal_digest: String,
    /// Total simulator events processed by the run.
    pub sim_events: u64,
}

impl RunMeta {
    /// Captures the fingerprint inputs of a finished run.
    pub fn capture(label: &str, obs: &obs::ObsHub, sim: &Simulation) -> Self {
        Self {
            label: label.to_string(),
            journal_digest: obs.journal_digest().to_hex(),
            sim_events: sim.events_processed(),
        }
    }
}

/// What the command line asked for. An experiment reads the fields its
/// row's `takes` names (and `seed`); the rest hold their defaults.
#[derive(Clone, Debug)]
pub struct Opts {
    /// `--seed`.
    pub seed: u64,
    /// `--days`.
    pub days: u64,
    /// `--steps` (`usize::MAX` = the whole ramp).
    pub steps: usize,
    /// `--metrics`.
    pub metrics: bool,
    /// `--trace`.
    pub trace: bool,
    /// `--trace-export`.
    pub trace_export: Option<String>,
    /// `--json`.
    pub json: Option<String>,
    /// `--prof`.
    pub prof: Option<String>,
    /// `--health-every`.
    pub health_every: u64,
    /// `--batch` (at least 1).
    pub batch: u32,
    /// `--pipeline` (at least 1).
    pub pipeline: u32,
    /// `--substations`.
    pub substations: Option<u32>,
    /// `--devices-per`.
    pub devices_per: u32,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: GOLDEN_SEED,
            days: 6,
            steps: usize::MAX,
            metrics: false,
            trace: false,
            trace_export: None,
            json: None,
            prof: None,
            health_every: 0,
            batch: 1,
            pipeline: 1,
            substations: None,
            devices_per: 10,
        }
    }
}

/// What one run of an experiment produced.
pub struct Output {
    /// One capture per deployment the run built, in build order.
    pub metas: Vec<RunMeta>,
    /// The rendered result (what `spire-sim` prints and the pins hash).
    pub text: String,
    /// The `--json` value, for the experiments that have one.
    pub json: Option<Json>,
    /// The metrics/journal snapshot behind `--metrics` and
    /// `--trace-export`, for the experiments that keep one.
    pub obs: Option<obs::ObsReport>,
}

impl Output {
    fn text(metas: Vec<RunMeta>, text: String) -> Output {
        Output {
            metas,
            text,
            json: None,
            obs: None,
        }
    }
}

/// One experiment: its command, its flags, its full-size run and its
/// reduced-size golden pins.
pub struct Experiment {
    /// The `spire-sim` command.
    pub id: &'static str,
    /// One line for [`usage`].
    pub help: &'static str,
    /// The flags it takes beyond the [`GLOBAL`] ones.
    pub takes: &'static [&'static str],
    /// The full-size run `spire-sim <id>` prints.
    pub run: fn(&Opts) -> Output,
    /// The golden legs.
    pub pins: &'static [Pin],
}

/// One golden leg: its pin id and the reduced-size run at a seed.
pub type Pin = (&'static str, fn(u64) -> Output);

/// Every experiment, in `spire-sim all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "figures",
        help: "build and print Figures 1, 2 and 4",
        takes: &[],
        run: |o| {
            let figures = [
                fig1_conventional(o.seed),
                fig2_spire(o.seed + 1),
                fig4_hmi(o.seed + 2),
            ];
            Output::text(Vec::new(), figures.join("\n"))
        },
        pins: &[],
    },
    Experiment {
        id: "e1",
        help: "red team vs. the commercial SCADA system",
        takes: &[],
        run: |o| e1(o.seed),
        pins: &[("e1", e1)],
    },
    // E2, E3, E4, E6 and E8 print one text and pin another (the pins
    // predate the CLI tables); `pinned` picks which.
    Experiment {
        id: "e2",
        help: "red team vs. Spire (network attacks)",
        takes: &[],
        run: |o| e2(o.seed, false),
        pins: &[("e2", |seed| e2(seed, true))],
    },
    Experiment {
        id: "e3",
        help: "compromised-replica excursion",
        takes: &[],
        run: |o| e3(o.seed, false),
        pins: &[("e3", |seed| e3(seed, true))],
    },
    Experiment {
        id: "e4",
        help: "plant deployment, N compressed days (default 6)",
        takes: &["--days", "--metrics", "--trace", "--trace-export"],
        run: |o| {
            let tracing = o.trace_export.is_some();
            e4(
                e4_plant_deployment_traced(o.seed, o.days, 30, o.trace, tracing),
                false,
            )
        },
        pins: &[("e4", |seed| e4(e4_plant_deployment(seed, 1, 6), true))],
    },
    Experiment {
        id: "e5",
        help: "end-to-end reaction time, Spire vs. commercial",
        takes: &["--metrics", "--trace", "--trace-export"],
        run: |o| e5(o.seed, 10, o.trace),
        pins: &[("e5", |seed| e5(seed, 4, false))],
    },
    Experiment {
        id: "e6",
        help: "assumption breach + ground-truth recovery",
        takes: &[],
        run: |o| e6(o.seed, false),
        pins: &[("e6", |seed| e6(seed, true))],
    },
    Experiment {
        id: "e7",
        help: "MANA detection (incidents + board)",
        takes: &[],
        run: |o| e7(o.seed),
        pins: &[("e7", e7)],
    },
    Experiment {
        id: "e7b",
        help: "MANA ROC curves (both model families)",
        takes: &[],
        run: |o| e7b(o.seed),
        pins: &[("e7b", e7b)],
    },
    Experiment {
        id: "e8",
        help: "replica-requirement ablation (3f+1 vs 3f+2k+1)",
        takes: &[],
        run: |o| e8(o.seed, false),
        pins: &[("e8", |seed| e8(seed, true))],
    },
    Experiment {
        id: "e9",
        help: "diversity/recovery race",
        takes: &[],
        run: |o| e9(o.seed, 20),
        pins: &[("e9", |seed| e9(seed, 5))],
    },
    Experiment {
        id: "e10",
        help: "hardening ablation matrix",
        takes: &[],
        run: |o| e10(o.seed),
        pins: &[("e10", e10)],
    },
    Experiment {
        id: "e11",
        help: "ordering saturation: ramp the update rate, find the knee (--prof: attribute it)",
        takes: &["--steps", "--batch", "--pipeline", "--json"],
        run: |o| {
            let sat_opts = SaturationOpts {
                batch_max: o.batch,
                pipeline: o.pipeline,
            };
            let rates = if o.batch > 1 {
                e11_batched_rates()
            } else {
                e11_default_rates()
            };
            let rates = &rates[..o.steps.clamp(1, rates.len())];
            let run = e11_saturation_with(o.seed, rates, sat_opts);
            let mut out = e11(&run);
            if obs::prof::enabled() {
                let _ = write!(out.text, "\n{}", saturation_attribution(&run));
            }
            out
        },
        // Batched, at a reduced ramp (Cluster-based: no simnet journal; the
        // rendered ramp is the record). 100/s closes batches as singletons,
        // 800/s forms multi-member batches and keeps the pipeline window
        // occupied, so both dissemination paths land in the fingerprint.
        pins: &[("e11b", |seed| {
            e11(&e11_saturation_with(
                seed,
                &[100, 800],
                SaturationOpts::batched(),
            ))
        })],
    },
    Experiment {
        id: "e12",
        help: "chaos soak: N compressed days of seeded faults under continuous invariant checks",
        takes: &["--days", "--json"],
        run: |o| e12(&e12_chaos_soak(o.seed, o.days, 30)),
        pins: &[("e12", |seed| e12(&e12_chaos_soak(seed, 1, 12)))],
    },
    Experiment {
        id: "e13",
        help: "wide-area site failover: sever + heal one site per config (6@1, 3+3, 2+2+1+1)",
        takes: &["--json"],
        run: |o| {
            let run = e13_site_failover(o.seed);
            Output {
                json: Some(site_failover_json(&run)),
                ..Output::text(
                    run.legs.iter().map(|l| l.meta.clone()).collect(),
                    render_site_failover(&run),
                )
            }
        },
        pins: &[
            ("e13a", |seed| e13_leg("e13a", seed)),
            ("e13b", |seed| e13_leg("e13b", seed)),
            ("e13c", |seed| e13_leg("e13c", seed)),
        ],
    },
    Experiment {
        id: "e14",
        help: "regional scale-out: sweep device count over substation banks (10 -> 100 -> 1000)",
        takes: &["--substations", "--devices-per", "--json"],
        run: |o| {
            let points = match o.substations {
                Some(s) => vec![(s, o.devices_per)],
                None => e14_default_points(),
            };
            e14(&e14_regional(o.seed, &points, 5))
        },
        // Reduced sweep: 2 → 4 devices across 1 → 2 substations, two
        // measured flips per point, so debug builds stay fast. The full
        // 10 → 1000 sweep runs in the release-only regional test.
        pins: &[("e14", |seed| e14(&e14_regional(seed, &[(1, 2), (2, 2)], 2)))],
    },
    Experiment {
        id: "e16",
        help: "closed-loop intrusion response: two campaigns of N waves, periodic vs feedback",
        takes: &["--days", "--json"],
        run: |o| {
            e16(&[
                e16_campaign(o.seed, Shape::ImplantFlood, o.days),
                e16_campaign(o.seed, Shape::DoubleCompromise, o.days),
            ])
        },
        pins: &[
            ("e16a", |seed| {
                e16(&[e16_campaign(seed, Shape::ImplantFlood, 1)])
            }),
            ("e16b", |seed| {
                e16(&[e16_campaign(seed, Shape::DoubleCompromise, 1)])
            }),
        ],
    },
];

fn e1(seed: u64) -> Output {
    let r = e1_commercial_attacks(seed);
    Output::text(r.meta, r.report.render())
}

fn e2(seed: u64, pinned: bool) -> Output {
    let r = e2_spire_network_attacks(seed);
    let (table, before, after) = (r.report.render(), r.frames_before, r.frames_after);
    let (arp, auth) = (r.arp_rejections, r.spines_auth_failures);
    let text = if pinned {
        format!("{table}frames {before} -> {after}  arp_rejections {arp}  spines_auth_failures {auth}\n")
    } else {
        format!("{table}\nframes {before} -> {after}   arp rejections {arp}   spines auth failures {auth}")
    };
    Output::text(vec![r.meta], text)
}

fn e3(seed: u64, pinned: bool) -> Output {
    let r = e3_replica_excursion(seed);
    let text = if pinned {
        format!("{:#?}\n", r.report)
    } else {
        let stages = r.report.stages.iter().map(|s| {
            format!(
                "stage {}: {:<55} disrupted: {:<5}  {}\n",
                s.number, s.action, s.disrupted_service, s.evidence
            )
        });
        let survived = r.report.spire_survived();
        format!("{}spire survived: {survived}", stages.collect::<String>())
    };
    Output::text(vec![r.meta], text)
}

fn e4(r: PlantRun, pinned: bool) -> Output {
    let (days, day_s, recoveries, executed) =
        (r.days, r.seconds_per_day, r.recoveries, r.min_executed);
    let (frames, views, gap, consistent) = (
        r.hmi_frames,
        r.view_changes,
        r.longest_display_gap,
        r.replicas_consistent,
    );
    let text = if pinned {
        format!(
            "recoveries {recoveries} min_executed {executed} hmi_frames {frames} \
             view_changes {views} gap {gap} consistent {consistent}\n"
        )
    } else {
        format!(
            "days: {days} ({day_s} s/day)   recoveries: {recoveries}   min executed: {executed}\n\
             hmi frames: {frames}   view changes: {views}   longest display gap: {gap}\n\
             replicas consistent: {consistent}"
        )
    };
    Output {
        obs: Some(r.obs),
        ..Output::text(vec![r.meta], text)
    }
}

fn e5(seed: u64, flips: usize, trace: bool) -> Output {
    let r = e5_reaction_time_traced(seed, flips, trace);
    let text = render_reaction(&r);
    Output {
        obs: Some(r.obs),
        ..Output::text(r.meta, text)
    }
}

fn e6(seed: u64, pinned: bool) -> Output {
    let run = e6_ground_truth(seed);
    let end = if pinned { "\n" } else { "" };
    Output::text(vec![run.meta.clone()], format!("{run:#?}{end}"))
}

fn e7(seed: u64) -> Output {
    let run = e7_mana_detection(seed);
    Output::text(vec![run.meta.clone()], render_mana(&run))
}

fn e7b(seed: u64) -> Output {
    let run = e7_roc(seed);
    Output::text(vec![run.meta.clone()], render_roc(&run))
}

/// Cluster-based: no simnet journal; the arm table is the record.
fn e8(seed: u64, pinned: bool) -> Output {
    let arms = e8_recovery_ablation(seed);
    let line = |arm: &RecoveryArm| {
        format!(
            "{:<36} n={}   executed: {:>3}   live: {}",
            arm.label, arm.n, arm.executed_during_window, arm.stayed_live
        )
    };
    let text = if pinned {
        format!("{arms:#?}\n")
    } else {
        arms.iter().map(line).collect::<Vec<_>>().join("\n")
    };
    Output::text(Vec::new(), text)
}

/// Pure computation; the rendered table is the record.
fn e9(seed: u64, trials: u64) -> Output {
    let rows = e9_diversity_ablation(seed, trials);
    Output::text(Vec::new(), render_diversity(&rows))
}

fn e10(seed: u64) -> Output {
    let rows = e10_hardening_ablation(seed);
    let metas = rows.iter().map(|r| r.meta.clone()).collect();
    Output::text(metas, render_ablation(&rows))
}

fn e11(run: &SaturationRun) -> Output {
    Output {
        json: Some(saturation_json(run)),
        ..Output::text(Vec::new(), render_saturation(run))
    }
}

fn e12(run: &ChaosRun) -> Output {
    Output {
        json: Some(chaos_json(run)),
        ..Output::text(vec![run.meta.clone()], render_chaos(run))
    }
}

fn e13_leg(id: &str, seed: u64) -> Output {
    let leg = e13_leg_by_id(id, seed);
    Output::text(vec![leg.meta.clone()], render_leg(&leg))
}

fn e14(run: &RegionalSweep) -> Output {
    Output {
        json: Some(regional_json(run)),
        ..Output::text(
            run.points.iter().map(|p| p.meta.clone()).collect(),
            render_regional(run),
        )
    }
}

fn e16(runs: &[CampaignRun]) -> Output {
    let metas = runs
        .iter()
        .flat_map(|r| [r.periodic.meta.clone(), r.feedback.meta.clone()])
        .collect();
    let tables: Vec<String> = runs.iter().map(render_campaign).collect();
    Output {
        json: Some(runs.iter().map(campaign_json).collect()),
        ..Output::text(metas, tables.join("\n"))
    }
}

/// The experiment whose command is `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs pin `id` (one of [`FINGERPRINTED`]) at `seed` — at a reduced size
/// where the full run would be slow — and folds its journal digests,
/// event counts, and rendered result into one hex digest.
///
/// Any behavioral drift (different message bytes, different event order,
/// different verdicts) changes the digest; pure performance work does not.
///
/// # Panics
/// Panics on an unknown pin id.
pub fn experiment_fingerprint(id: &str, seed: u64) -> String {
    let (_, pin) = EXPERIMENTS
        .iter()
        .flat_map(|e| e.pins)
        .find(|(pin_id, _)| *pin_id == id)
        .unwrap_or_else(|| panic!("unknown experiment id: {id}"));
    let out = pin(seed);
    let mut text = format!("{id} seed={seed}\n");
    for m in &out.metas {
        let _ = writeln!(text, "{} {} {}", m.label, m.journal_digest, m.sim_events);
    }
    text.push_str(&out.text);
    sha256(text.as_bytes()).to_hex()
}

const fn pin_count() -> usize {
    let (mut count, mut e) = (0, 0);
    while e < EXPERIMENTS.len() {
        count += EXPERIMENTS[e].pins.len();
        e += 1;
    }
    count
}

/// The pin ids covered by [`experiment_fingerprint`], in run order: the
/// rows' `pins`, concatenated.
pub const FINGERPRINTED: &[&str] = &{
    let mut ids = [""; pin_count()];
    let (mut next, mut e) = (0, 0);
    while e < EXPERIMENTS.len() {
        let mut p = 0;
        while p < EXPERIMENTS[e].pins.len() {
            ids[next] = EXPERIMENTS[e].pins[p].0;
            next += 1;
            p += 1;
        }
        e += 1;
    }
    ids
};

/// The flags every command takes.
pub const GLOBAL: &[&str] = &["--seed", "--prof", "--health-every"];

/// Every flag `spire-sim` knows: name, value placeholder (`""` for a
/// switch) and help. Which commands take which is in [`EXPERIMENTS`];
/// what each means in full is in EXPERIMENTS.md.
pub const FLAGS: &[(&str, &str, &str)] = &[
    ("--seed", "N", "simulation seed (default 42)"),
    (
        "--days",
        "N",
        "compressed days, or campaign waves (default 6)",
    ),
    ("--steps", "N", "ramp steps to run (default: the full ramp)"),
    (
        "--substations",
        "N",
        "one sweep point with N >= 1 substations, not the default sweep",
    ),
    (
        "--devices-per",
        "N",
        "devices per substation bank (default 10, at least 1)",
    ),
    (
        "--batch",
        "N",
        "Merkle batches of up to N updates, extended ramp past 1 (default 1; 0 is clamped to 1)",
    ),
    (
        "--pipeline",
        "K",
        "sequences in flight (default 1: serialized; 0 is clamped to 1)",
    ),
    ("--json", "FILE", "write the results as JSON to FILE"),
    (
        "--metrics",
        "",
        "print the metrics registry and journal digest after the run",
    ),
    (
        "--trace",
        "",
        "echo journal records live as the simulation runs",
    ),
    (
        "--trace-export",
        "FILE",
        "write the causal span trees as Chrome trace JSON (Perfetto)",
    ),
    (
        "--prof",
        "FILE",
        "cost profiler: print per-phase attribution, write folded stacks to FILE",
    ),
    (
        "--health-every",
        "N",
        "flight recorder: journal health gauges every N ticks (default 0: off)",
    ),
];

/// A numeric flag value, parsed as the type it is stored in.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value}"))
}

fn at_least_one(flag: &str, value: &str) -> Result<u32, String> {
    match number(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// Parses `args` (everything after the command) into the options the
/// flags `takes` admits spell out, and the names of the flags it does
/// not. Errors, in one line, on a flag [`FLAGS`] does not list, a missing
/// or ill-typed value, and a region the addressing cannot hold.
pub fn parse_flags(
    args: &[String],
    takes: impl Fn(&str) -> bool,
) -> Result<(Opts, Vec<&'static str>), String> {
    let mut o = Opts::default();
    let mut untaken = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let &(flag, value_name, _) = FLAGS
            .iter()
            .find(|(name, ..)| name == arg)
            .ok_or_else(|| format!("unknown flag: {arg}"))?;
        let value = match value_name {
            "" => "",
            "FILE" => args.next().ok_or(format!("{flag} requires a file path"))?,
            _ => args.next().ok_or(format!("{flag} requires a value"))?,
        };
        if !takes(flag) {
            untaken.push(flag);
            continue;
        }
        match flag {
            "--seed" => o.seed = number(flag, value)?,
            "--days" => o.days = number(flag, value)?,
            "--steps" => o.steps = number(flag, value)?,
            "--health-every" => o.health_every = number(flag, value)?,
            "--batch" => o.batch = number::<u32>(flag, value)?.max(1),
            "--pipeline" => o.pipeline = number::<u32>(flag, value)?.max(1),
            "--substations" => o.substations = Some(at_least_one(flag, value)?),
            "--devices-per" => o.devices_per = at_least_one(flag, value)?,
            "--metrics" => o.metrics = true,
            "--trace" => o.trace = true,
            "--trace-export" => o.trace_export = Some(value.to_string()),
            "--json" => o.json = Some(value.to_string()),
            "--prof" => o.prof = Some(value.to_string()),
            other => unreachable!("{other} is in FLAGS without an arm here"),
        }
    }
    // Both region flags are known only now.
    if let Some(count) = o.substations {
        let per = o.devices_per;
        SubstationTopology::new(count, per)
            .validate()
            .map_err(|why| format!("--substations {count} --devices-per {per}: {why}"))?;
    }
    Ok((o, untaken))
}

impl Experiment {
    /// Whether this experiment takes `flag`.
    pub fn takes(&self, flag: &str) -> bool {
        GLOBAL.contains(&flag) || self.takes.contains(&flag)
    }

    /// The options `args` spell out for this experiment; `Err` names the
    /// first flag it does not take, and what it does.
    pub fn opts(&self, args: &[String]) -> Result<Opts, String> {
        let (opts, untaken) = parse_flags(args, |flag| self.takes(flag))?;
        match untaken.first() {
            None => Ok(opts),
            Some(flag) => Err(format!(
                "{} takes {}, not {flag}",
                self.id,
                [self.takes, GLOBAL].concat().join(" ")
            )),
        }
    }
}

/// The commands and the flags, generated from [`EXPERIMENTS`] and
/// [`FLAGS`].
pub fn usage() -> String {
    let mut out = String::from("usage: spire-sim <command> [flags]\n\ncommands:\n");
    for e in EXPERIMENTS {
        let _ = writeln!(out, "  {:<8} {}", e.id, e.help);
        if !e.takes.is_empty() {
            let _ = writeln!(out, "  {:<8} takes {}", "", e.takes.join(" "));
        }
    }
    out.push_str(
        "  all      every experiment above, in order, each handed the flags it takes (neither\n  \
         \x20        --json nor --trace-export: each experiment would overwrite the one file)\n\n\
         flags (every command takes --seed, --prof and --health-every):\n",
    );
    for (name, value, help) in FLAGS {
        let _ = writeln!(out, "  {:<19} {help}", format!("{name} {value}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_within_a_process() {
        // Cheapest experiment: same seed, same digest; different seed,
        // different digest.
        let a = experiment_fingerprint("e9", 7);
        let b = experiment_fingerprint("e9", 7);
        let c = experiment_fingerprint("e9", 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_table_is_consistent_with_itself_and_the_parser() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let mut pins = FINGERPRINTED.to_vec();
        for list in [&mut ids, &mut pins] {
            let len = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), len, "an id appears twice");
        }
        let usage = usage();
        for e in EXPERIMENTS {
            assert!(!e.help.is_empty(), "{} has no help", e.id);
            let listed = |line: &str| line.split_whitespace().next() == Some(e.id);
            assert!(usage.lines().any(listed), "{} unlisted", e.id);
            for flag in e.takes {
                assert!(
                    FLAGS.iter().any(|(name, ..)| name == flag) && !GLOBAL.contains(flag),
                    "{} takes {flag}, which the parser does not know",
                    e.id
                );
            }
        }
        // Every flag the parser lists has an arm that stores it.
        for &(name, value, _) in FLAGS {
            let args = [name.to_string(), "1".to_string()];
            let args = &args[..if value.is_empty() { 1 } else { 2 }];
            assert!(parse_flags(args, |flag| flag == name).is_ok(), "{name}");
        }
    }
}
