//! A Modbus protocol implementation (the subset industrial breaker PLCs
//! speak, and exactly what the Spire PLC proxy uses on its direct cable).
//!
//! The paper's deployments talk Modbus between the PLC proxy and the PLC
//! (§II, §IV-A, §V); the red team's decisive first win against the
//! commercial system was dumping and re-uploading PLC configuration over
//! this *unauthenticated* protocol. This crate therefore implements the
//! protocol faithfully enough that (a) the proxy/PLC pairing works over a
//! simulated serial cable or TCP, and (b) an attacker with network reach
//! can speak it just as easily as the legitimate master — that asymmetry
//! *is* the experiment.
//!
//! Supported function codes: 0x01 Read Coils, 0x02 Read Discrete Inputs,
//! 0x03 Read Holding Registers, 0x04 Read Input Registers, 0x05 Write
//! Single Coil, 0x06 Write Single Register, 0x0F Write Multiple Coils,
//! 0x10 Write Multiple Registers, plus 0x2B (device identification — the
//! reconnaissance half of the "memory dump" attack) and a vendor-style
//! 0x5A configuration upload/download modeled on the maintenance backdoor
//! the red team exploited.
//!
//! # Examples
//!
//! ```
//! use modbus::{Request, Response, DataStore, execute};
//!
//! let mut store = DataStore::new(16, 16);
//! let resp = execute(&Request::WriteSingleCoil { address: 3, value: true }, &mut store);
//! assert_eq!(resp, Response::WriteSingleCoil { address: 3, value: true });
//! assert_eq!(store.coil(3), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod frame;
pub mod pdu;
pub mod server;

pub use frame::{MbapHeader, RtuFrame, TcpFrame};
pub use pdu::{ExceptionCode, Request, Response};
pub use server::{execute, execute_traced, is_write, DataStore};
