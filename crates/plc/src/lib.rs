//! Emulated PLCs and the physical power process they control.
//!
//! The paper prepared for both deployments by emulating PLCs with OpenPLC
//! on Linux (§VI-B) and then swapped in the real device "with only minimal
//! changes". This crate is that emulation layer, built on [`simnet`]:
//!
//! * [`topology`] — electrical topology models: sources, buses, breakers,
//!   loads, and an energization solver. Includes the exact Figure 4
//!   distribution topology (seven breakers feeding four buildings), the
//!   three-breaker subset the plant engineers wired to real breakers in
//!   §V, the ten-PLC distribution scenario, and the six-PLC generation
//!   scenario created with the plant engineers.
//! * [`breaker`] — the breaker bank: commanded state (coils), mechanical
//!   position feedback (discrete inputs) with operate delay, trip counters.
//! * [`logic`] — the PLC's configuration image: the ladder-logic
//!   parameters that vendor function codes dump and replace. Uploading a
//!   tampered image *changes device behaviour* (forced/inverted breakers),
//!   which is how the red team controlled the commercial PLC.
//! * [`emulator`] — the PLC as a [`simnet::Process`]: Modbus/RTU server on
//!   a direct cable or Modbus/TCP on a network, 10 ms scan cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod emulator;
pub mod logic;
pub mod topology;

pub use breaker::BreakerBank;
pub use emulator::{PlcEmulator, PLC_MODBUS_PORT};
pub use logic::LogicConfig;
pub use topology::{PowerTopology, Scenario};
