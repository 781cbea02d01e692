//! Deterministic discrete-event network simulator.
//!
//! This crate is the substrate every other component of the Spire
//! reproduction runs on. It models, at the fidelity the DSN'19 paper's
//! red-team experiment requires:
//!
//! * **Layer 2**: Ethernet-like frames, switches with *learning* or *static*
//!   MAC tables (optionally with ingress port security), broadcast flooding,
//!   and direct cables (the paper connects the PLC to its proxy with a
//!   physical wire precisely to bypass any switch).
//! * **ARP**: per-interface ARP tables in *dynamic* (poisonable) or *static*
//!   mode, gratuitous-ARP handling, and the "NIC answers ARP for another
//!   NIC's IP" misfeature the paper disables (§III-B).
//! * **Layer 3/4**: packets with IP/port/transport-kind metadata, per-host
//!   firewalls with default-deny profiles, listening ports, and RST vs.
//!   silent-drop semantics (the red team "had no visibility" because closed
//!   hosts drop silently).
//! * **Links**: latency, bandwidth (serialization delay + queueing), random
//!   loss, and up/down state — enough to express denial-of-service bursts.
//! * **Capture taps**: passive, out-of-band packet-metadata capture feeding
//!   the MANA IDS, exactly like the span ports in Figure 3.
//!
//! Time is virtual ([`SimTime`], microseconds); the event queue is a total
//! order (time, then insertion sequence), so every run with the same seed is
//! bit-for-bit reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod capture;
mod exec;
pub mod firewall;
pub mod hash;
pub mod link;
pub mod packet;
pub mod process;
pub mod queue;
pub mod sim;
pub mod switch;
pub mod time;
pub mod types;
pub mod wire;

pub use capture::{PacketRecord, TapId};
pub use firewall::{Firewall, FirewallPolicy};
pub use link::LinkSpec;
pub use packet::{Packet, TransportKind};
pub use process::{Context, Process};
pub use sim::{InterfaceSpec, NodeSpec, Simulation};
pub use switch::{SwitchId, SwitchMode};
pub use time::{SimDuration, SimTime};
pub use types::{IpAddr, MacAddr, NodeId, Port};
