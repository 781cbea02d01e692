//! The SCADA master application layer — both the replicated Spire master
//! and the commercial primary-backup baseline the red team broke.
//!
//! §III-A of the paper separates Spire's master from "the basic databases
//! normally used to evaluate BFT protocols": the application state
//! reflects *physical* state, the replication layer must signal the
//! application when application-level state transfer is needed, and the
//! field devices themselves are the ground truth from which state can be
//! rebuilt after an assumption breach. This crate implements all of that:
//!
//! * [`updates`] — the SCADA update vocabulary (RTU/PLC status, HMI
//!   supervisory commands) carried as Prime update payloads.
//! * [`state`] — the master's state: per-scenario breaker positions and
//!   currents, with deterministic digests and snapshots.
//! * [`master`] — [`master::ScadaApp`], the [`prime::Application`] the
//!   replicas host; executing an ordered HMI command emits a PLC command
//!   action, executing an RTU status emits an HMI display frame.
//! * [`hmi`] — the operator display: Figure 4 rendered as text, update
//!   timestamps for the §V reaction-time measurement, and the black/white
//!   sensor box.
//! * [`ground_truth`] — rebuilding master state by polling field devices,
//!   the recovery path generic BFT systems do not have.
//! * [`commercial`] — the NIST-best-practices baseline: primary/backup
//!   masters, unauthenticated master↔HMI and master↔PLC traffic, PLC
//!   directly on the operations network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commercial;
pub mod ground_truth;
pub mod hmi;
pub mod master;
pub mod state;
pub mod updates;

pub use hmi::Hmi;
pub use master::{MasterAction, ScadaApp};
pub use state::ScadaState;
pub use updates::ScadaUpdate;
