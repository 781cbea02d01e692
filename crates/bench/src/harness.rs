//! Determinism fingerprints.
//!
//! Every experiment is deterministic from its seed, and most of them run
//! on top of the event journal; [`RunMeta`] captures the journal digest
//! plus the simulator's event count for each deployment an experiment
//! builds. [`experiment_fingerprint`] folds those captures (plus the
//! rendered result tables) into a single hex digest per experiment, which
//! `tests/golden_digests.rs` pins at [`GOLDEN_SEED`] so performance work
//! cannot silently change observable behavior.

use std::fmt::Write as _;

use itcrypto::sha256::sha256;
use simnet::sim::Simulation;

use crate::chaos_experiment::{e12_chaos_soak, render_chaos};
use crate::mana_experiment::{e7_mana_detection, e7_roc, render_mana, render_roc};
use crate::plant_experiments::{e4_plant_deployment, e5_reaction_time, render_reaction};
use crate::recovery_experiments::{
    e6_ground_truth, e8_recovery_ablation, e9_diversity_ablation, render_diversity,
};
use crate::redteam_experiments::{
    e10_hardening_ablation_meta, e1_commercial_attacks_meta, e2_spire_network_attacks,
    e3_replica_excursion_meta, render_ablation,
};
use crate::regional_experiment::{e14_regional, render_regional};
use crate::response_experiment::{e16_campaign, render_campaign, Shape};
use crate::saturation::{
    e11_default_rates, e11_saturation, e11_saturation_with, render_saturation, SaturationOpts,
};
use crate::site_experiment::{e13_leg_by_id, render_leg};

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

fn meta_lines(out: &mut String, metas: &[RunMeta]) {
    for m in metas {
        let _ = writeln!(out, "{} {} {}", m.label, m.journal_digest, m.sim_events);
    }
}

/// Runs experiment `id` ("e1".."e10", "e7b", "e11b", "e12",
/// "e13a".."e13c", "e14", "e16a"/"e16b") at `seed` — at a reduced size
/// where the full run would be slow — and folds its journal digests,
/// event counts, and rendered result into one hex digest.
///
/// Any behavioral drift (different message bytes, different event order,
/// different verdicts) changes the digest; pure performance work does not.
///
/// # Panics
/// Panics on an unknown experiment id.
pub fn experiment_fingerprint(id: &str, seed: u64) -> String {
    let mut text = format!("{id} seed={seed}\n");
    match id {
        "e1" => {
            let (report, metas) = e1_commercial_attacks_meta(seed);
            meta_lines(&mut text, &metas);
            text.push_str(&report.render());
        }
        "e2" => {
            let r = e2_spire_network_attacks(seed);
            meta_lines(&mut text, std::slice::from_ref(&r.meta));
            text.push_str(&r.report.render());
            let _ = writeln!(
                text,
                "frames {} -> {}  arp_rejections {}  spines_auth_failures {}",
                r.frames_before, r.frames_after, r.arp_rejections, r.spines_auth_failures
            );
        }
        "e3" => {
            let (report, meta) = e3_replica_excursion_meta(seed);
            meta_lines(&mut text, std::slice::from_ref(&meta));
            let _ = writeln!(text, "{report:#?}");
        }
        "e4" => {
            let run = e4_plant_deployment(seed, 1, 6);
            meta_lines(&mut text, std::slice::from_ref(&run.meta));
            let _ = writeln!(
                text,
                "recoveries {} min_executed {} hmi_frames {} view_changes {} gap {} consistent {}",
                run.recoveries,
                run.min_executed,
                run.hmi_frames,
                run.view_changes,
                run.longest_display_gap,
                run.replicas_consistent
            );
        }
        "e5" => {
            let r = e5_reaction_time(seed, 4);
            meta_lines(&mut text, &r.meta);
            text.push_str(&render_reaction(&r));
        }
        "e6" => {
            let run = e6_ground_truth(seed);
            meta_lines(&mut text, std::slice::from_ref(&run.meta));
            let _ = writeln!(text, "{run:#?}");
        }
        "e7" => {
            let run = e7_mana_detection(seed);
            meta_lines(&mut text, std::slice::from_ref(&run.meta));
            text.push_str(&render_mana(&run));
        }
        "e7b" => {
            let run = e7_roc(seed);
            meta_lines(&mut text, std::slice::from_ref(&run.meta));
            text.push_str(&render_roc(&run));
        }
        "e8" => {
            // Cluster-based: no simnet journal; the arm table is the record.
            let arms = e8_recovery_ablation(seed);
            let _ = writeln!(text, "{arms:#?}");
        }
        "e9" => {
            // Pure computation; the rendered table is the record.
            text.push_str(&render_diversity(&e9_diversity_ablation(seed, 5)));
        }
        "e10" => {
            let (rows, metas) = e10_hardening_ablation_meta(seed);
            meta_lines(&mut text, &metas);
            text.push_str(&render_ablation(&rows));
        }
        "e11b" => {
            // Batched E11 at a reduced ramp (Cluster-based: no simnet
            // journal; the rendered ramp is the record). 100/s closes
            // batches as singletons, 800/s forms multi-member batches and
            // keeps the pipeline window occupied, so both dissemination
            // paths land in the fingerprint.
            let run = e11_saturation_with(seed, &[100, 800], SaturationOpts::batched());
            text.push_str(&render_saturation(&run));
        }
        "e12" => {
            let run = e12_chaos_soak(seed, 1, 12);
            meta_lines(&mut text, std::slice::from_ref(&run.meta));
            text.push_str(&render_chaos(&run));
        }
        "e13a" | "e13b" | "e13c" => {
            let leg = e13_leg_by_id(id, seed);
            meta_lines(&mut text, std::slice::from_ref(&leg.meta));
            text.push_str(&render_leg(&leg));
        }
        "e14" => {
            // Reduced sweep: 2 → 4 devices across 1 → 2 substations, two
            // measured flips per point, so debug builds stay fast. The
            // full 10 → 1000 sweep runs in the release-only regional test.
            let run = e14_regional(seed, &[(1, 2), (2, 2)], 2);
            let metas: Vec<RunMeta> = run.points.iter().map(|p| p.meta.clone()).collect();
            meta_lines(&mut text, &metas);
            text.push_str(&render_regional(&run));
        }
        "e16a" | "e16b" => {
            let shape = if id == "e16a" {
                Shape::ImplantFlood
            } else {
                Shape::DoubleCompromise
            };
            let run = e16_campaign(seed, shape, 1);
            meta_lines(&mut text, std::slice::from_ref(&run.periodic.meta));
            meta_lines(&mut text, std::slice::from_ref(&run.feedback.meta));
            text.push_str(&render_campaign(&run));
        }
        other => panic!("unknown experiment id: {other}"),
    }
    sha256(text.as_bytes()).to_hex()
}

/// The experiment ids covered by [`experiment_fingerprint`], in run order.
pub const FINGERPRINTED: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e7b", "e8", "e9", "e10", "e11b", "e12", "e13a",
    "e13b", "e13c", "e14", "e16a", "e16b",
];

/// Runs E11 once and renders it (the `spire-sim e11` body, shared with
/// tests).
pub fn e11_report(seed: u64, steps: usize) -> String {
    let rates = e11_default_rates();
    let rates = &rates[..steps.clamp(1, rates.len())];
    render_saturation(&e11_saturation(seed, rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_within_a_process() {
        // Cheapest experiment with a deployment: same seed, same digest;
        // different seed, different digest.
        let a = experiment_fingerprint("e9", 7);
        let b = experiment_fingerprint("e9", 7);
        let c = experiment_fingerprint("e9", 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
