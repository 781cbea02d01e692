//! Experiment harnesses regenerating every figure and experiment of the
//! paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded outcomes).
//!
//! Each `eN_*` function runs one experiment deterministically from a seed
//! and returns a structured result with a `render()`-style text table, so
//! the same code backs the runnable examples and the integration tests;
//! [`registry::EXPERIMENTS`] holds one row per experiment, and the
//! `spire-sim` CLI, the golden pins and the `--json` files all read it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_experiment;
pub mod figures;
pub mod json;
pub mod mana_experiment;
pub mod plant_experiments;
pub mod recovery_experiments;
pub mod redteam_experiments;
pub mod regional_experiment;
pub mod registry;
pub mod response_experiment;
pub mod saturation;
pub mod site_experiment;
