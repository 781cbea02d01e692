//! A reimplementation of the **Prime** Byzantine fault-tolerant replication
//! engine (Amir, Coan, Kirsch, Lane, *Prime: Byzantine Replication Under
//! Attack*, TDSC 2011) — the engine Spire uses to replicate its SCADA
//! master (§II of the DSN'19 paper).
//!
//! Prime's distinguishing property over classic BFT is *performance under
//! attack*: a malicious leader cannot silently throttle the system,
//! because replicas measure the leader's turnaround time (TAT) and replace
//! leaders that fail to order known updates promptly.
//!
//! # Protocol structure
//!
//! * **Pre-ordering** ([`replica`]): every replica disseminates client
//!   updates in numbered slots — Merkle batches under one origin
//!   signature, a batch of one per update by default — and continuously
//!   gossips a signed cumulative-acknowledgement vector (`PO-ARU`,
//!   "pre-order all received up to"). Pre-ordering is leader-free, so a
//!   faulty leader cannot suppress knowledge of updates.
//! * **Ordering**: the leader's `Pre-Prepare(view, seq)` carries a *matrix*
//!   of signed PO-ARU vectors. Agreement on the matrix (Prepare/Commit with
//!   `2f+k` and `2f+k+1` thresholds) yields a global execution order: an
//!   update `(origin, s)` becomes covered once `f+k+1` matrix rows
//!   acknowledge it, and newly covered updates execute in deterministic
//!   order. Reconciliation (`PO-Fetch`, answered with the slot's batch
//!   member and its inclusion path) retrieves any covered update a
//!   replica is missing.
//! * **Leader suspicion**: a replica that knows of eligible-but-unordered
//!   updates for longer than its TAT bound broadcasts `SuspectLeader`;
//!   `f+k+1` suspicions trigger a view change.
//! * **Checkpoints and state transfer**: periodic application digests form
//!   stable checkpoints; a replica that falls behind (partition, proactive
//!   recovery) runs replication-level catch-up and — the paper's §III-A
//!   lesson — *signals the application* to perform its own state transfer,
//!   because SCADA state cannot be rebuilt from the update log alone.
//!
//! # Replica count
//!
//! Tolerating `f` intrusions while `k` replicas are simultaneously down
//! for proactive recovery requires `n = 3f + 2k + 1` replicas
//! ([`Config::new`]): 4 for the red-team deployment (f=1, k=0) and 6 for
//! the power-plant deployment (f=1, k=1), matching the paper exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod application;
pub mod byzantine;
pub mod harness;
pub mod invariants;
pub mod messages;
pub mod replica;
#[cfg(test)]
mod security_tests;
pub mod types;
mod verdicts;

pub use application::{Application, KvApp};
pub use byzantine::ByzMode;
pub use messages::{PrimeMsg, SignedMsg};
pub use replica::{OutEvent, Replica};
pub use types::{Config, Membership, ReplicaId, SignedUpdate, Update};
