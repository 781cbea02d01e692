//! Closed-loop intrusion response for the Spire reproduction.
//!
//! The paper's deployment (DSN 2019) tolerates intrusions with *open*
//! loops: MANA raises alerts for a human operator, and proactive recovery
//! rejuvenates replicas on a fixed periodic schedule regardless of what
//! the detectors see. This crate closes the loop, following the
//! feedback-control framing of "Intrusion Tolerance for Networked Systems
//! through Two-Level Feedback Control" (see PAPERS.md): a deterministic
//! controller consumes per-replica MANA anomaly scores, Prime
//! flight-recorder health gauges (PO-queue depth, turnaround time, view
//! churn), and the journal's reconvergences and violations, and drives
//! three actuators:
//!
//! 1. **Recovery scheduling** — a suspected replica jumps the periodic
//!    round-robin queue (`diversity::recovery::RecoveryScheduler::trigger`)
//!    and is rejuvenated immediately, subject to the same `f`/`k` budget,
//!    so detection shortens time-in-compromised-state without endangering
//!    agreement.
//! 2. **Traffic throttling** — a flooding (or flooded) proxy gets a
//!    status-update rate cap (`spire::proxy::PlcProxy::set_update_rate_limit`)
//!    so the replication path is not saturated while the flood lasts.
//! 3. **Degraded modes** — a journaled [`ResponseState`] machine
//!    (Normal → Suspicious → Throttled → Isolating → Recovering) with
//!    hysteresis and cool-downs, so the controller cannot flap.
//!
//! The controller is built on the deployment's [`prime::Config`]: it
//! reads the recovery budget `k` and the leader rotation from the
//! configuration the deployment was built with, and keeps no copy.
//!
//! The controller is pure and seed-deterministic: [`Controller::step`] is
//! a function of its config and the observation stream only — no clocks,
//! no randomness — which is what the determinism proptests pin. It is
//! opt-in: nothing instantiates a controller unless an experiment asks
//! for one, so every pre-existing golden digest is untouched. E16
//! (`bench::response_experiment`) evaluates it against the periodic
//! baseline under multi-stage attack campaigns.

pub mod controller;

pub use controller::{
    Actuation, Controller, ControllerInput, ProxyObservation, ReplicaObservation, ResponseState,
};
