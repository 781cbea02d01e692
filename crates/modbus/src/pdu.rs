//! Modbus PDUs: requests, responses, exceptions, and their byte codecs.

use std::fmt;

/// Modbus exception codes (returned with function code | 0x80).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExceptionCode {
    /// 0x01 — function code not supported.
    IllegalFunction,
    /// 0x02 — address out of range.
    IllegalDataAddress,
    /// 0x03 — value not acceptable.
    IllegalDataValue,
    /// 0x04 — unrecoverable device failure.
    ServerDeviceFailure,
}

impl ExceptionCode {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            ExceptionCode::IllegalFunction => 0x01,
            ExceptionCode::IllegalDataAddress => 0x02,
            ExceptionCode::IllegalDataValue => 0x03,
            ExceptionCode::ServerDeviceFailure => 0x04,
        }
    }

    /// Parses a wire byte.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0x01 => ExceptionCode::IllegalFunction,
            0x02 => ExceptionCode::IllegalDataAddress,
            0x03 => ExceptionCode::IllegalDataValue,
            0x04 => ExceptionCode::ServerDeviceFailure,
            _ => return None,
        })
    }
}

impl fmt::Display for ExceptionCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExceptionCode::IllegalFunction => "illegal function",
            ExceptionCode::IllegalDataAddress => "illegal data address",
            ExceptionCode::IllegalDataValue => "illegal data value",
            ExceptionCode::ServerDeviceFailure => "server device failure",
        };
        f.write_str(s)
    }
}

/// A Modbus request PDU.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// 0x01 — read `count` coils starting at `address`.
    ReadCoils {
        /// Starting coil address.
        address: u16,
        /// Number of coils (1..=2000).
        count: u16,
    },
    /// 0x02 — read discrete inputs.
    ReadDiscreteInputs {
        /// Starting input address.
        address: u16,
        /// Number of inputs (1..=2000).
        count: u16,
    },
    /// 0x03 — read holding registers.
    ReadHoldingRegisters {
        /// Starting register address.
        address: u16,
        /// Number of registers (1..=125).
        count: u16,
    },
    /// 0x04 — read input registers.
    ReadInputRegisters {
        /// Starting register address.
        address: u16,
        /// Number of registers (1..=125).
        count: u16,
    },
    /// 0x05 — write one coil.
    WriteSingleCoil {
        /// Coil address.
        address: u16,
        /// On (0xFF00) or off (0x0000).
        value: bool,
    },
    /// 0x06 — write one holding register.
    WriteSingleRegister {
        /// Register address.
        address: u16,
        /// New value.
        value: u16,
    },
    /// 0x0F — write multiple coils.
    WriteMultipleCoils {
        /// Starting coil address.
        address: u16,
        /// Values to write.
        values: Vec<bool>,
    },
    /// 0x10 — write multiple registers.
    WriteMultipleRegisters {
        /// Starting register address.
        address: u16,
        /// Values to write.
        values: Vec<u16>,
    },
    /// 0x2B — read device identification (vendor, product, firmware).
    /// This is the reconnaissance step of the red team's PLC memory dump.
    ReadDeviceId,
    /// 0x5A — vendor maintenance: download the full configuration image.
    /// Unauthenticated on real devices; the attack surface of §IV-B.
    ConfigDownload,
    /// 0x5B — vendor maintenance: upload (replace) the configuration image.
    ConfigUpload {
        /// The new configuration image.
        image: Vec<u8>,
    },
}

impl Request {
    /// The function code byte.
    pub fn function_code(&self) -> u8 {
        match self {
            Request::ReadCoils { .. } => 0x01,
            Request::ReadDiscreteInputs { .. } => 0x02,
            Request::ReadHoldingRegisters { .. } => 0x03,
            Request::ReadInputRegisters { .. } => 0x04,
            Request::WriteSingleCoil { .. } => 0x05,
            Request::WriteSingleRegister { .. } => 0x06,
            Request::WriteMultipleCoils { .. } => 0x0F,
            Request::WriteMultipleRegisters { .. } => 0x10,
            Request::ReadDeviceId => 0x2B,
            Request::ConfigDownload => 0x5A,
            Request::ConfigUpload { .. } => 0x5B,
        }
    }

    /// Serializes the PDU (function code + data).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.function_code()];
        match self {
            Request::ReadCoils { address, count }
            | Request::ReadDiscreteInputs { address, count }
            | Request::ReadHoldingRegisters { address, count }
            | Request::ReadInputRegisters { address, count } => {
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&count.to_be_bytes());
            }
            Request::WriteSingleCoil { address, value } => {
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&(if *value { 0xFF00u16 } else { 0x0000 }).to_be_bytes());
            }
            Request::WriteSingleRegister { address, value } => {
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
            }
            Request::WriteMultipleCoils { address, values } => {
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&(values.len() as u16).to_be_bytes());
                let byte_count = values.len().div_ceil(8);
                out.push(byte_count as u8);
                let mut packed = vec![0u8; byte_count];
                for (i, &v) in values.iter().enumerate() {
                    if v {
                        packed[i / 8] |= 1 << (i % 8);
                    }
                }
                out.extend_from_slice(&packed);
            }
            Request::WriteMultipleRegisters { address, values } => {
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&(values.len() as u16).to_be_bytes());
                out.push((values.len() * 2) as u8);
                for v in values {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            Request::ReadDeviceId => {
                // MEI type 0x0E, ReadDevId code 0x01, object id 0x00.
                out.extend_from_slice(&[0x0E, 0x01, 0x00]);
            }
            Request::ConfigDownload => {}
            Request::ConfigUpload { image } => {
                out.extend_from_slice(&(image.len() as u16).to_be_bytes());
                out.extend_from_slice(image);
            }
        }
        out
    }

    /// Parses a PDU. Returns `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<Request> {
        let (&fc, rest) = data.split_first()?;
        let rd = |rest: &[u8]| -> Option<(u16, u16)> {
            if rest.len() != 4 {
                return None;
            }
            Some((
                u16::from_be_bytes([rest[0], rest[1]]),
                u16::from_be_bytes([rest[2], rest[3]]),
            ))
        };
        Some(match fc {
            0x01 => {
                let (address, count) = rd(rest)?;
                Request::ReadCoils { address, count }
            }
            0x02 => {
                let (address, count) = rd(rest)?;
                Request::ReadDiscreteInputs { address, count }
            }
            0x03 => {
                let (address, count) = rd(rest)?;
                Request::ReadHoldingRegisters { address, count }
            }
            0x04 => {
                let (address, count) = rd(rest)?;
                Request::ReadInputRegisters { address, count }
            }
            0x05 => {
                let (address, raw) = rd(rest)?;
                let value = match raw {
                    0xFF00 => true,
                    0x0000 => false,
                    _ => return None,
                };
                Request::WriteSingleCoil { address, value }
            }
            0x06 => {
                let (address, value) = rd(rest)?;
                Request::WriteSingleRegister { address, value }
            }
            0x0F => {
                if rest.len() < 5 {
                    return None;
                }
                let address = u16::from_be_bytes([rest[0], rest[1]]);
                let count = u16::from_be_bytes([rest[2], rest[3]]) as usize;
                let byte_count = rest[4] as usize;
                if byte_count != count.div_ceil(8) || rest.len() != 5 + byte_count {
                    return None;
                }
                let values = (0..count)
                    .map(|i| rest[5 + i / 8] & (1 << (i % 8)) != 0)
                    .collect();
                Request::WriteMultipleCoils { address, values }
            }
            0x10 => {
                if rest.len() < 5 {
                    return None;
                }
                let address = u16::from_be_bytes([rest[0], rest[1]]);
                let count = u16::from_be_bytes([rest[2], rest[3]]) as usize;
                let byte_count = rest[4] as usize;
                if byte_count != count * 2 || rest.len() != 5 + byte_count {
                    return None;
                }
                let values = (0..count)
                    .map(|i| u16::from_be_bytes([rest[5 + i * 2], rest[6 + i * 2]]))
                    .collect();
                Request::WriteMultipleRegisters { address, values }
            }
            0x2B => {
                if rest != [0x0E, 0x01, 0x00] {
                    return None;
                }
                Request::ReadDeviceId
            }
            0x5A => {
                if !rest.is_empty() {
                    return None;
                }
                Request::ConfigDownload
            }
            0x5B => {
                if rest.len() < 2 {
                    return None;
                }
                let len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                if rest.len() != 2 + len {
                    return None;
                }
                Request::ConfigUpload {
                    image: rest[2..].to_vec(),
                }
            }
            _ => return None,
        })
    }
}

/// A Modbus response PDU.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Bit values for 0x01/0x02.
    Bits {
        /// Echoed function code (0x01 or 0x02).
        function: u8,
        /// The bit values.
        values: Vec<bool>,
    },
    /// Register values for 0x03/0x04.
    Registers {
        /// Echoed function code (0x03 or 0x04).
        function: u8,
        /// The register values.
        values: Vec<u16>,
    },
    /// Echo for 0x05.
    WriteSingleCoil {
        /// Echoed address.
        address: u16,
        /// Echoed value.
        value: bool,
    },
    /// Echo for 0x06.
    WriteSingleRegister {
        /// Echoed address.
        address: u16,
        /// Echoed value.
        value: u16,
    },
    /// Echo for 0x0F.
    WriteMultipleCoils {
        /// Echoed address.
        address: u16,
        /// Number of coils written.
        count: u16,
    },
    /// Echo for 0x10.
    WriteMultipleRegisters {
        /// Echoed address.
        address: u16,
        /// Number of registers written.
        count: u16,
    },
    /// Device identification string for 0x2B.
    DeviceId {
        /// Vendor / product / firmware text.
        text: String,
    },
    /// Configuration image for 0x5A.
    ConfigImage {
        /// The raw configuration bytes.
        image: Vec<u8>,
    },
    /// Acknowledgement for 0x5B.
    ConfigAccepted,
    /// An exception response.
    Exception {
        /// The function code that failed (without the 0x80 bit).
        function: u8,
        /// The exception code.
        code: ExceptionCode,
    },
}

impl Response {
    /// Serializes the response PDU.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Bits { function, values } => {
                let byte_count = values.len().div_ceil(8);
                let mut out = vec![*function, byte_count as u8];
                let mut packed = vec![0u8; byte_count];
                for (i, &v) in values.iter().enumerate() {
                    if v {
                        packed[i / 8] |= 1 << (i % 8);
                    }
                }
                out.extend_from_slice(&packed);
                out
            }
            Response::Registers { function, values } => {
                let mut out = vec![*function, (values.len() * 2) as u8];
                for v in values {
                    out.extend_from_slice(&v.to_be_bytes());
                }
                out
            }
            Response::WriteSingleCoil { address, value } => {
                let mut out = vec![0x05];
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&(if *value { 0xFF00u16 } else { 0 }).to_be_bytes());
                out
            }
            Response::WriteSingleRegister { address, value } => {
                let mut out = vec![0x06];
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
                out
            }
            Response::WriteMultipleCoils { address, count } => {
                let mut out = vec![0x0F];
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&count.to_be_bytes());
                out
            }
            Response::WriteMultipleRegisters { address, count } => {
                let mut out = vec![0x10];
                out.extend_from_slice(&address.to_be_bytes());
                out.extend_from_slice(&count.to_be_bytes());
                out
            }
            Response::DeviceId { text } => {
                let mut out = vec![0x2B, text.len() as u8];
                out.extend_from_slice(text.as_bytes());
                out
            }
            Response::ConfigImage { image } => {
                let mut out = vec![0x5A];
                out.extend_from_slice(&(image.len() as u16).to_be_bytes());
                out.extend_from_slice(image);
                out
            }
            Response::ConfigAccepted => vec![0x5B, 0x00],
            Response::Exception { function, code } => vec![function | 0x80, code.code()],
        }
    }

    /// Parses a response PDU, given the request that elicited it: a read
    /// reply must hold exactly the `count` values asked for (⌈count/8⌉
    /// bytes with zero padding bits, or two bytes per register), and a
    /// coil echo must carry `0xFF00` or `0x0000`, as the spec requires.
    pub fn decode(data: &[u8], request: &Request) -> Option<Response> {
        let (&fc, rest) = data.split_first()?;
        if fc & 0x80 != 0 {
            return Some(Response::Exception {
                function: fc & 0x7F,
                code: ExceptionCode::from_code(*rest.first()?)?,
            });
        }
        if fc != request.function_code() {
            return None;
        }
        Some(match (fc, request) {
            (0x01 | 0x02, Request::ReadCoils { count, .. })
            | (0x01 | 0x02, Request::ReadDiscreteInputs { count, .. }) => {
                // ⌈count/8⌉ bytes, the bits past `count` zero.
                let count = *count as usize;
                let (&byte_count, body) = rest.split_first()?;
                if byte_count as usize != count.div_ceil(8) || body.len() != byte_count as usize {
                    return None;
                }
                if !count.is_multiple_of(8) && body[body.len() - 1] >> (count % 8) != 0 {
                    return None;
                }
                let values = (0..count)
                    .map(|i| body[i / 8] & (1 << (i % 8)) != 0)
                    .collect();
                Response::Bits {
                    function: fc,
                    values,
                }
            }
            (0x03 | 0x04, Request::ReadHoldingRegisters { count, .. })
            | (0x03 | 0x04, Request::ReadInputRegisters { count, .. }) => {
                // Two bytes per register asked for.
                let (&byte_count, body) = rest.split_first()?;
                if byte_count as usize != 2 * *count as usize || body.len() != byte_count as usize {
                    return None;
                }
                let values = body
                    .chunks(2)
                    .map(|c| u16::from_be_bytes([c[0], c[1]]))
                    .collect();
                Response::Registers {
                    function: fc,
                    values,
                }
            }
            (0x05, _) => {
                if rest.len() != 4 {
                    return None;
                }
                let value = match u16::from_be_bytes([rest[2], rest[3]]) {
                    0xFF00 => true,
                    0x0000 => false,
                    _ => return None,
                };
                Response::WriteSingleCoil {
                    address: u16::from_be_bytes([rest[0], rest[1]]),
                    value,
                }
            }
            (0x06, _) => {
                if rest.len() != 4 {
                    return None;
                }
                Response::WriteSingleRegister {
                    address: u16::from_be_bytes([rest[0], rest[1]]),
                    value: u16::from_be_bytes([rest[2], rest[3]]),
                }
            }
            (0x0F, _) => {
                if rest.len() != 4 {
                    return None;
                }
                Response::WriteMultipleCoils {
                    address: u16::from_be_bytes([rest[0], rest[1]]),
                    count: u16::from_be_bytes([rest[2], rest[3]]),
                }
            }
            (0x10, _) => {
                if rest.len() != 4 {
                    return None;
                }
                Response::WriteMultipleRegisters {
                    address: u16::from_be_bytes([rest[0], rest[1]]),
                    count: u16::from_be_bytes([rest[2], rest[3]]),
                }
            }
            (0x2B, _) => {
                let len = *rest.first()? as usize;
                if rest.len() != 1 + len {
                    return None;
                }
                Response::DeviceId {
                    text: String::from_utf8(rest[1..].to_vec()).ok()?,
                }
            }
            (0x5A, _) => {
                if rest.len() < 2 {
                    return None;
                }
                let len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                if rest.len() != 2 + len {
                    return None;
                }
                Response::ConfigImage {
                    image: rest[2..].to_vec(),
                }
            }
            (0x5B, _) => {
                if rest != [0x00] {
                    return None;
                }
                Response::ConfigAccepted
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes), Some(req));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::ReadCoils {
            address: 0,
            count: 7,
        });
        roundtrip_req(Request::ReadDiscreteInputs {
            address: 3,
            count: 16,
        });
        roundtrip_req(Request::ReadHoldingRegisters {
            address: 100,
            count: 10,
        });
        roundtrip_req(Request::ReadInputRegisters {
            address: 5,
            count: 1,
        });
        roundtrip_req(Request::WriteSingleCoil {
            address: 6,
            value: true,
        });
        roundtrip_req(Request::WriteSingleCoil {
            address: 6,
            value: false,
        });
        roundtrip_req(Request::WriteSingleRegister {
            address: 2,
            value: 0xBEEF,
        });
        roundtrip_req(Request::WriteMultipleCoils {
            address: 1,
            values: vec![true, false, true, true, false, true, false, false, true],
        });
        roundtrip_req(Request::WriteMultipleRegisters {
            address: 9,
            values: vec![1, 2, 3],
        });
        roundtrip_req(Request::ReadDeviceId);
        roundtrip_req(Request::ConfigDownload);
        roundtrip_req(Request::ConfigUpload {
            image: vec![9, 8, 7],
        });
    }

    fn roundtrip_resp(req: Request, resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes, &req), Some(resp));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(
            Request::ReadCoils {
                address: 0,
                count: 3,
            },
            Response::Bits {
                function: 0x01,
                values: vec![true, false, true],
            },
        );
        roundtrip_resp(
            Request::ReadHoldingRegisters {
                address: 0,
                count: 2,
            },
            Response::Registers {
                function: 0x03,
                values: vec![0xAB, 0xCD],
            },
        );
        roundtrip_resp(
            Request::WriteSingleCoil {
                address: 4,
                value: true,
            },
            Response::WriteSingleCoil {
                address: 4,
                value: true,
            },
        );
        roundtrip_resp(
            Request::WriteMultipleRegisters {
                address: 1,
                values: vec![5, 6],
            },
            Response::WriteMultipleRegisters {
                address: 1,
                count: 2,
            },
        );
        roundtrip_resp(
            Request::ReadDeviceId,
            Response::DeviceId {
                text: "ACME BreakerMaster 9000 fw1.2".into(),
            },
        );
        roundtrip_resp(
            Request::ConfigDownload,
            Response::ConfigImage {
                image: vec![1, 2, 3, 4],
            },
        );
        roundtrip_resp(
            Request::ConfigUpload { image: vec![] },
            Response::ConfigAccepted,
        );
    }

    #[test]
    fn exception_roundtrip() {
        let resp = Response::Exception {
            function: 0x03,
            code: ExceptionCode::IllegalDataAddress,
        };
        let bytes = resp.encode();
        assert_eq!(bytes[0], 0x83);
        assert_eq!(
            Response::decode(
                &bytes,
                &Request::ReadHoldingRegisters {
                    address: 0,
                    count: 1
                }
            ),
            Some(resp)
        );
    }

    #[test]
    fn malformed_requests_rejected() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[0x01, 0x00]), None); // truncated
        assert_eq!(Request::decode(&[0x63]), None); // unknown fc
                                                    // 0x05 with invalid coil value.
        assert_eq!(Request::decode(&[0x05, 0, 1, 0x12, 0x34]), None);
        // 0x0F with inconsistent byte count.
        assert_eq!(Request::decode(&[0x0F, 0, 0, 0, 8, 2, 0xFF, 0xFF]), None);
    }

    #[test]
    fn bit_reply_byte_count_must_cover_exactly_the_request() {
        let coils = |count| Request::ReadCoils { address: 0, count };
        // Sixteen coils asked for, eight answered.
        assert_eq!(Response::decode(&[0x01, 0x01, 0xFF], &coils(16)), None);
        // Three asked for, two bytes answered.
        assert_eq!(Response::decode(&[0x01, 0x02, 0x05, 0x00], &coils(3)), None);
        // Padding bits past the third coil set.
        assert_eq!(Response::decode(&[0x01, 0x01, 0x85], &coils(3)), None);
        assert_eq!(
            Response::decode(&[0x01, 0x01, 0x05], &coils(3)),
            Some(Response::Bits {
                function: 0x01,
                values: vec![true, false, true],
            })
        );
    }

    #[test]
    fn register_reply_byte_count_must_be_two_per_register() {
        let req = Request::ReadInputRegisters {
            address: 0,
            count: 4,
        };
        assert_eq!(Response::decode(&[0x04, 0x02, 0x00, 0x07], &req), None);
        let five = Response::Registers {
            function: 0x04,
            values: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(Response::decode(&five.encode(), &req), None);
        let four = Response::Registers {
            function: 0x04,
            values: vec![1, 2, 3, 4],
        };
        assert_eq!(Response::decode(&four.encode(), &req), Some(four));
    }

    #[test]
    fn coil_echo_value_must_be_on_or_off() {
        let req = Request::WriteSingleCoil {
            address: 4,
            value: false,
        };
        assert_eq!(
            Response::decode(&[0x05, 0x00, 0x04, 0x12, 0x34], &req),
            None
        );
        assert_eq!(
            Response::decode(&[0x05, 0x00, 0x04, 0x00, 0xFF], &req),
            None
        );
        assert_eq!(
            Response::decode(&[0x05, 0x00, 0x04, 0x00, 0x00], &req),
            Some(Response::WriteSingleCoil {
                address: 4,
                value: false,
            })
        );
    }

    #[test]
    fn response_function_mismatch_rejected() {
        let resp = Response::Registers {
            function: 0x03,
            values: vec![1],
        };
        let bytes = resp.encode();
        assert_eq!(
            Response::decode(
                &bytes,
                &Request::ReadCoils {
                    address: 0,
                    count: 1
                }
            ),
            None
        );
    }

    #[test]
    fn exception_display() {
        assert_eq!(
            ExceptionCode::IllegalFunction.to_string(),
            "illegal function"
        );
        assert_eq!(
            ExceptionCode::from_code(0x02),
            Some(ExceptionCode::IllegalDataAddress)
        );
        assert_eq!(ExceptionCode::from_code(0x99), None);
    }

    #[test]
    fn coil_bit_packing_matches_spec() {
        // Spec example: coils 27-38 = CD 6B 05 pattern style check.
        let req = Request::WriteMultipleCoils {
            address: 27,
            values: vec![
                true, false, true, true, false, false, true, true, // 0xCD
                true, true, false, true,
            ],
        };
        let bytes = req.encode();
        // byte_count = 2, first data byte = 0xCD.
        assert_eq!(bytes[5], 2);
        assert_eq!(bytes[6], 0xCD);
        assert_eq!(bytes[7], 0x0B);
    }
}
