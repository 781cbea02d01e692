//! **Spire** — the intrusion-tolerant SCADA system of the DSN'19 paper,
//! assembled from its subsystems and deployable onto the [`simnet`]
//! simulator in the paper's two configurations:
//!
//! * the **red-team configuration** (§IV): four SCADA-master replicas
//!   (f = 1, k = 0), one physical PLC behind a proxy on a direct cable,
//!   ten emulated distribution PLCs, one HMI — replicas joined by an
//!   *isolated* internal Spines network and an external Spines network
//!   (Figure 2/3);
//! * the **power-plant configuration** (§V): six replicas (f = 1, k = 1)
//!   supporting one intrusion plus one proactive recovery, the plant's
//!   three-breaker topology, sixteen emulated PLCs, HMIs in three
//!   locations.
//!
//! The crate provides:
//!
//! * [`config`] — deployment configuration: replica/proxy/HMI identities,
//!   keys, Spines overlays, scenario assignments.
//! * [`vote`] — the `f+1` matching-message voting proxies and HMIs apply
//!   to replica output, so no single compromised master can actuate a
//!   breaker or forge a display.
//! * [`messages`] — the external-network message vocabulary.
//! * [`replica_host`] — the process hosting a Prime replica + SCADA
//!   master + two Spines daemons on one node.
//! * [`proxy`] — the PLC proxy: Modbus master on a direct cable to its
//!   device, Spines client toward the masters, vote-gated actuation.
//! * [`substation`] — the substation proxy: the same edge in front of a
//!   bank of devices on a station LAN, one coalesced report per sweep.
//! * `edge` (private) — what the four hosts share, written once: the
//!   overlay port, the Prime client identity, the Modbus master and the
//!   `f+1` command gate.
//! * [`hmi_host`] — the HMI process (vote-gated display) and the
//!   breaker-cycle update generator from the red-team exercise.
//! * [`hardening`] — the §III-B low-level hardening profile as explicit,
//!   individually-toggleable switches (the E10 ablation flips them).
//! * [`site`] — multi-site (wide-area) placements of the plant replicas
//!   and the site-loss survival math the E13 failover experiment tests.
//! * [`deploy`] — builds the whole system on a [`simnet::Simulation`].
//! * [`latency`] — the §V end-to-end reaction-time harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deploy;
mod edge;
pub mod hardening;
pub mod hmi_host;
pub mod latency;
pub mod messages;
pub mod proxy;
pub mod replica_host;
pub mod site;
pub mod substation;
pub mod vote;

pub use config::SpireConfig;
pub use deploy::Deployment;
pub use hardening::HardeningProfile;
pub use hmi_host::HmiHost;
pub use proxy::PlcProxy;
pub use replica_host::ReplicaHost;
pub use site::{Site, SiteKind, SiteTopology, SurvivalMode};
