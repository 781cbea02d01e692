//! A reimplementation of the Spines intrusion-tolerant overlay network
//! (Obenshain et al., ICDCS 2016) at the fidelity the DSN'19 deployment
//! paper exercises.
//!
//! Spire runs two Spines networks (Figure 2/3): an *internal* network
//! carrying only the replication protocol between SCADA-master replicas,
//! and an *external* network connecting replicas to the PLC/RTU proxies
//! and HMIs. Each participating host runs a Spines daemon; daemons form an
//! overlay and flood messages with per-source sequence deduplication; a
//! relay next to a unicast's destination hands it to that daemon alone.
//!
//! Properties reproduced because the red-team experiment tested them:
//!
//! * **Link authentication + encryption** ([`daemon`]): every overlay hop
//!   is sealed with AES-256-GCM under a key per link direction, derived
//!   from a network master secret.
//!   The red team's *modified daemon without keys* produced traffic the
//!   legitimate daemons reject — exactly §IV-B's outcome.
//! * **Intrusion-tolerant mode** ([`SpinesMode`]): the legacy diagnostic
//!   code path (where the red team's patched-binary exploit lived) is
//!   compiled out of intrusion-tolerant operation, so the patched daemon
//!   "was accepted as a valid member of the network" yet "did not have an
//!   effect".
//! * **Source fairness** ([`fairness`]): forwarding drains per-source
//!   queues round-robin, bounding how much a compromised daemon can starve
//!   others — the property the red team attacked from their own lab with
//!   root and source access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub mod fairness;
pub mod message;
pub mod routing;

pub use config::{SpinesConfig, SpinesMode};
pub use daemon::{Delivery, SpinesDaemon};
pub use message::{Destination, MsgKind, SpinesMsg};
