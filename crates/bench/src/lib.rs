//! Experiment harnesses regenerating every figure and experiment of the
//! paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded outcomes).
//!
//! Each `eN_*` function runs one experiment deterministically from a seed
//! and returns a structured result with a `render()`-style text table, so
//! the same code backs the `spire-sim` CLI, the runnable examples, and the
//! integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_experiment;
pub mod figures;
pub mod harness;
pub mod mana_experiment;
pub mod plant_experiments;
pub mod recovery_experiments;
pub mod redteam_experiments;
pub mod regional_experiment;
pub mod response_experiment;
pub mod saturation;
pub mod site_experiment;

pub use chaos_experiment::{chaos_json, e12_chaos_soak, render_chaos};
pub use figures::{fig1_conventional, fig2_spire, fig4_hmi};
pub use harness::{experiment_fingerprint, RunMeta, GOLDEN_SEED};
pub use mana_experiment::e7_mana_detection;
pub use plant_experiments::{e4_plant_deployment, e5_reaction_time, e5_reaction_time_traced};
pub use recovery_experiments::{e6_ground_truth, e8_recovery_ablation, e9_diversity_ablation};
pub use redteam_experiments::{
    e10_hardening_ablation, e1_commercial_attacks, e2_spire_network_attacks, e3_replica_excursion,
};
pub use regional_experiment::{e14_default_points, e14_regional, regional_json, render_regional};
pub use saturation::{e11_default_rates, e11_saturation};
pub use site_experiment::{e13_site_failover, render_site_failover, site_failover_json};
