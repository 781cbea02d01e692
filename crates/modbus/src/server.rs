//! The server-side data model and request executor every emulated PLC uses.

use obs::trace::{Stage, TraceCtx};
use obs::ObsHub;

use crate::pdu::{ExceptionCode, Request, Response};

/// Maximum bits readable in one request (per spec).
const MAX_BITS: u16 = 2000;
/// Maximum registers readable in one request (per spec).
const MAX_REGS: u16 = 125;

/// A Modbus server's addressable data: coils (read/write bits), discrete
/// inputs (read-only bits), holding registers (read/write words), input
/// registers (read-only words), plus the vendor "configuration image" that
/// function codes 0x5A/0x5B dump and replace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataStore {
    coils: Vec<bool>,
    discrete_inputs: Vec<bool>,
    holding: Vec<u16>,
    input: Vec<u16>,
    /// Device identification text returned by 0x2B.
    pub device_id: String,
    /// The configuration image 0x5A reads and 0x5B replaces. For the
    /// emulated breaker PLCs this encodes the ladder-logic parameters, so
    /// replacing it *changes device behaviour* — the red team's attack.
    pub config_image: Vec<u8>,
    /// Number of times the configuration was replaced (forensics).
    pub config_uploads: u64,
}

impl DataStore {
    /// Creates a store with `bits` coils/discrete-inputs and `words`
    /// holding/input registers, all zeroed.
    pub fn new(bits: usize, words: usize) -> Self {
        DataStore {
            coils: vec![false; bits],
            discrete_inputs: vec![false; bits],
            holding: vec![0; words],
            input: vec![0; words],
            device_id: "OpenPLC-emu v3 (spire-repro)".to_string(),
            config_image: Vec::new(),
            config_uploads: 0,
        }
    }

    /// Reads a coil.
    pub fn coil(&self, address: u16) -> Option<bool> {
        self.coils.get(address as usize).copied()
    }

    /// Writes a coil directly (device-side, not via protocol).
    pub fn set_coil(&mut self, address: u16, value: bool) -> bool {
        if let Some(c) = self.coils.get_mut(address as usize) {
            *c = value;
            true
        } else {
            false
        }
    }

    /// Reads a discrete input.
    pub fn discrete_input(&self, address: u16) -> Option<bool> {
        self.discrete_inputs.get(address as usize).copied()
    }

    /// Sets a discrete input (device-side: sensors update these).
    pub fn set_discrete_input(&mut self, address: u16, value: bool) -> bool {
        if let Some(c) = self.discrete_inputs.get_mut(address as usize) {
            *c = value;
            true
        } else {
            false
        }
    }

    /// Reads a holding register.
    pub fn holding(&self, address: u16) -> Option<u16> {
        self.holding.get(address as usize).copied()
    }

    /// Writes a holding register directly.
    pub fn set_holding(&mut self, address: u16, value: u16) -> bool {
        if let Some(r) = self.holding.get_mut(address as usize) {
            *r = value;
            true
        } else {
            false
        }
    }

    /// Reads an input register.
    pub fn input(&self, address: u16) -> Option<u16> {
        self.input.get(address as usize).copied()
    }

    /// Sets an input register (device-side).
    pub fn set_input(&mut self, address: u16, value: u16) -> bool {
        if let Some(r) = self.input.get_mut(address as usize) {
            *r = value;
            true
        } else {
            false
        }
    }

    /// Number of coils.
    pub fn coil_count(&self) -> usize {
        self.coils.len()
    }

    /// Number of holding registers.
    pub fn holding_count(&self) -> usize {
        self.holding.len()
    }
}

fn range_ok(address: u16, count: u16, len: usize, max: u16) -> bool {
    count >= 1 && count <= max && (address as usize + count as usize) <= len
}

/// Executes a request against a data store, producing the response a
/// compliant server would send.
pub fn execute(req: &Request, store: &mut DataStore) -> Response {
    let exception = |code| Response::Exception {
        function: req.function_code(),
        code,
    };
    match req {
        Request::ReadCoils { address, count } => {
            if !range_ok(*address, *count, store.coils.len(), MAX_BITS) {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            let values = store.coils[*address as usize..(*address + *count) as usize].to_vec();
            Response::Bits {
                function: 0x01,
                values,
            }
        }
        Request::ReadDiscreteInputs { address, count } => {
            if !range_ok(*address, *count, store.discrete_inputs.len(), MAX_BITS) {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            let values =
                store.discrete_inputs[*address as usize..(*address + *count) as usize].to_vec();
            Response::Bits {
                function: 0x02,
                values,
            }
        }
        Request::ReadHoldingRegisters { address, count } => {
            if !range_ok(*address, *count, store.holding.len(), MAX_REGS) {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            let values = store.holding[*address as usize..(*address + *count) as usize].to_vec();
            Response::Registers {
                function: 0x03,
                values,
            }
        }
        Request::ReadInputRegisters { address, count } => {
            if !range_ok(*address, *count, store.input.len(), MAX_REGS) {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            let values = store.input[*address as usize..(*address + *count) as usize].to_vec();
            Response::Registers {
                function: 0x04,
                values,
            }
        }
        Request::WriteSingleCoil { address, value } => {
            if !store.set_coil(*address, *value) {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            Response::WriteSingleCoil {
                address: *address,
                value: *value,
            }
        }
        Request::WriteSingleRegister { address, value } => {
            if !store.set_holding(*address, *value) {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            Response::WriteSingleRegister {
                address: *address,
                value: *value,
            }
        }
        Request::WriteMultipleCoils { address, values } => {
            if values.is_empty()
                || !range_ok(*address, values.len() as u16, store.coils.len(), MAX_BITS)
            {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            for (i, v) in values.iter().enumerate() {
                store.coils[*address as usize + i] = *v;
            }
            Response::WriteMultipleCoils {
                address: *address,
                count: values.len() as u16,
            }
        }
        Request::WriteMultipleRegisters { address, values } => {
            if values.is_empty()
                || !range_ok(*address, values.len() as u16, store.holding.len(), MAX_REGS)
            {
                return exception(ExceptionCode::IllegalDataAddress);
            }
            for (i, v) in values.iter().enumerate() {
                store.holding[*address as usize + i] = *v;
            }
            Response::WriteMultipleRegisters {
                address: *address,
                count: values.len() as u16,
            }
        }
        Request::ReadDeviceId => Response::DeviceId {
            text: store.device_id.clone(),
        },
        Request::ConfigDownload => Response::ConfigImage {
            image: store.config_image.clone(),
        },
        Request::ConfigUpload { image } => {
            store.config_image = image.clone();
            store.config_uploads += 1;
            Response::ConfigAccepted
        }
    }
}

/// Whether a request mutates server state (coil/register writes and
/// configuration uploads).
pub fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::WriteSingleCoil { .. }
            | Request::WriteSingleRegister { .. }
            | Request::WriteMultipleCoils { .. }
            | Request::WriteMultipleRegisters { .. }
            | Request::ConfigUpload { .. }
    )
}

/// [`execute`] plus causal tracing: successful write requests stamp an
/// instant [`Stage::ModbusWrite`] span under `parent` (the delivering
/// proxy's context carried on the request packet), returning the span
/// so the device can parent the eventual mechanical actuation on it.
/// Reads and failed writes stamp nothing; with tracing disabled this
/// is exactly [`execute`].
pub fn execute_traced(
    req: &Request,
    store: &mut DataStore,
    hub: &ObsHub,
    parent: Option<TraceCtx>,
    node: u32,
) -> (Response, Option<TraceCtx>) {
    let resp = execute(req, store);
    let write_ok = is_write(req) && !matches!(resp, Response::Exception { .. });
    let span = if write_ok {
        hub.instant_span(parent, Stage::ModbusWrite, node)
    } else {
        None
    };
    (resp, span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_coils() {
        let mut s = DataStore::new(8, 4);
        assert_eq!(
            execute(
                &Request::WriteSingleCoil {
                    address: 2,
                    value: true
                },
                &mut s
            ),
            Response::WriteSingleCoil {
                address: 2,
                value: true
            }
        );
        assert_eq!(
            execute(
                &Request::ReadCoils {
                    address: 0,
                    count: 4
                },
                &mut s
            ),
            Response::Bits {
                function: 0x01,
                values: vec![false, false, true, false]
            }
        );
    }

    #[test]
    fn read_write_registers() {
        let mut s = DataStore::new(4, 8);
        execute(
            &Request::WriteMultipleRegisters {
                address: 1,
                values: vec![10, 20, 30],
            },
            &mut s,
        );
        assert_eq!(
            execute(
                &Request::ReadHoldingRegisters {
                    address: 0,
                    count: 5
                },
                &mut s
            ),
            Response::Registers {
                function: 0x03,
                values: vec![0, 10, 20, 30, 0]
            }
        );
    }

    #[test]
    fn out_of_range_gives_exception() {
        let mut s = DataStore::new(4, 4);
        assert_eq!(
            execute(
                &Request::ReadCoils {
                    address: 2,
                    count: 5
                },
                &mut s
            ),
            Response::Exception {
                function: 0x01,
                code: ExceptionCode::IllegalDataAddress
            }
        );
        assert_eq!(
            execute(
                &Request::WriteSingleRegister {
                    address: 9,
                    value: 1
                },
                &mut s
            ),
            Response::Exception {
                function: 0x06,
                code: ExceptionCode::IllegalDataAddress
            }
        );
        assert_eq!(
            execute(
                &Request::ReadHoldingRegisters {
                    address: 0,
                    count: 0
                },
                &mut s
            ),
            Response::Exception {
                function: 0x03,
                code: ExceptionCode::IllegalDataAddress
            }
        );
    }

    #[test]
    fn discrete_inputs_and_input_registers_are_device_fed() {
        let mut s = DataStore::new(4, 4);
        s.set_discrete_input(1, true);
        s.set_input(2, 555);
        assert_eq!(
            execute(
                &Request::ReadDiscreteInputs {
                    address: 0,
                    count: 2
                },
                &mut s
            ),
            Response::Bits {
                function: 0x02,
                values: vec![false, true]
            }
        );
        assert_eq!(
            execute(
                &Request::ReadInputRegisters {
                    address: 2,
                    count: 1
                },
                &mut s
            ),
            Response::Registers {
                function: 0x04,
                values: vec![555]
            }
        );
    }

    #[test]
    fn config_dump_and_upload_unauthenticated() {
        // This is the red team's commercial-PLC attack in miniature: anyone
        // who can reach the device can read and replace its configuration.
        let mut s = DataStore::new(4, 4);
        s.config_image = vec![1, 2, 3];
        let dump = execute(&Request::ConfigDownload, &mut s);
        assert_eq!(
            dump,
            Response::ConfigImage {
                image: vec![1, 2, 3]
            }
        );
        let upload = execute(
            &Request::ConfigUpload {
                image: vec![66, 66],
            },
            &mut s,
        );
        assert_eq!(upload, Response::ConfigAccepted);
        assert_eq!(s.config_image, vec![66, 66]);
        assert_eq!(s.config_uploads, 1);
    }

    #[test]
    fn execute_traced_stamps_only_successful_writes() {
        let hub = ObsHub::new();
        hub.set_tracing(true);
        let root = hub.start_root(Stage::Command, 0);
        let mut s = DataStore::new(4, 4);
        let write = Request::WriteSingleCoil {
            address: 1,
            value: true,
        };
        let read = Request::ReadCoils {
            address: 0,
            count: 2,
        };
        let bad = Request::WriteSingleCoil {
            address: 99,
            value: true,
        };
        assert!(is_write(&write) && is_write(&bad) && !is_write(&read));
        let (resp, span) = execute_traced(&write, &mut s, &hub, root, 3);
        assert_eq!(resp, execute(&write.clone(), &mut DataStore::new(4, 4)));
        assert!(span.is_some(), "successful write stamped");
        let (_, span) = execute_traced(&read, &mut s, &hub, root, 3);
        assert!(span.is_none(), "reads never stamp");
        let (resp, span) = execute_traced(&bad, &mut s, &hub, root, 3);
        assert!(matches!(resp, Response::Exception { .. }));
        assert!(span.is_none(), "failed writes never stamp");
        // Tracing off: identical to `execute`, no journal growth.
        let before = hub.journal_len();
        hub.set_tracing(false);
        let (_, span) = execute_traced(&write, &mut s, &hub, None, 3);
        assert!(span.is_none());
        assert_eq!(hub.journal_len(), before);
    }

    #[test]
    fn device_id_readable() {
        let mut s = DataStore::new(1, 1);
        s.device_id = "ACME 9000".into();
        assert_eq!(
            execute(&Request::ReadDeviceId, &mut s),
            Response::DeviceId {
                text: "ACME 9000".into()
            }
        );
    }

    #[test]
    fn direct_accessors_bounds_checked() {
        let mut s = DataStore::new(2, 2);
        assert!(s.set_coil(1, true));
        assert!(!s.set_coil(2, true));
        assert_eq!(s.coil(1), Some(true));
        assert_eq!(s.coil(5), None);
        assert!(s.set_holding(0, 7));
        assert!(!s.set_holding(9, 7));
        assert_eq!(s.holding(0), Some(7));
        assert_eq!(s.input(0), Some(0));
        assert_eq!(s.coil_count(), 2);
        assert_eq!(s.holding_count(), 2);
    }
}
