//! A minimal self-describing binary codec for message payloads.
//!
//! Every protocol in the reproduction (Spines, Prime, Modbus-over-proxy,
//! SCADA updates) serializes its messages to bytes with this codec before
//! they enter the network. That keeps fidelity where it matters for the
//! paper: signatures and link tags cover real byte strings, attackers can flip
//! bits in real payloads, and MANA only ever sees opaque ciphertext.

use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was trying to read.
    pub context: &'static str,
}

impl DecodeError {
    /// Creates a decode error with context.
    pub fn new(context: &'static str) -> Self {
        DecodeError { context }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data while reading {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Incrementally builds a wire payload.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes`: an encoder that
    /// knows about how much it will write grows the buffer once.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(bytes),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_u16(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32(v);
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64(v);
        self
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.buf.put_u8(v as u8);
        self
    }

    /// Appends a length-prefixed byte string (u32 length).
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }

    /// The payload written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Finishes and returns the payload.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes and returns the payload as the buffer it was written
    /// into, for callers that sign or hash it and never share it.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into()
    }
}

/// Reads a wire payload produced by [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns an error if any bytes remain (strict decoding).
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::new("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(context));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::new("bool")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len, "bytes body")?.to_vec())
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n, "raw bytes")
    }
}

/// Types that serialize to / from the wire format.
pub trait Wire: Sized {
    /// Serializes `self` into `w`.
    fn encode(&self, w: &mut Writer);

    /// Deserializes from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: serializes to a fresh byte buffer.
    fn to_wire(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Convenience: strict decode of an entire buffer.
    fn from_wire(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(data);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u8,
        b: u16,
        c: u32,
        d: u64,
        e: bool,
        f: Vec<u8>,
    }

    impl Wire for Sample {
        fn encode(&self, w: &mut Writer) {
            w.put_u8(self.a)
                .put_u16(self.b)
                .put_u32(self.c)
                .put_u64(self.d)
                .put_bool(self.e)
                .put_bytes(&self.f);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(Sample {
                a: r.get_u8()?,
                b: r.get_u16()?,
                c: r.get_u32()?,
                d: r.get_u64()?,
                e: r.get_bool()?,
                f: r.get_bytes()?,
            })
        }
    }

    #[test]
    fn a_writer_hands_back_its_buffer() {
        let mut w = Writer::with_capacity(16);
        w.put_u32(7).put_raw(b"ab");
        assert_eq!(w.as_slice(), [0, 0, 0, 7, b'a', b'b']);
        assert_eq!(w.into_vec(), vec![0, 0, 0, 7, b'a', b'b']);
    }

    #[test]
    fn roundtrip() {
        let s = Sample {
            a: 1,
            b: 0xBEEF,
            c: 0xDEADBEEF,
            d: u64::MAX,
            e: true,
            f: vec![1, 2, 3],
        };
        let bytes = s.to_wire();
        assert_eq!(Sample::from_wire(&bytes).expect("roundtrip"), s);
    }

    #[test]
    fn truncated_fails() {
        let s = Sample {
            a: 1,
            b: 2,
            c: 3,
            d: 4,
            e: false,
            f: vec![9; 10],
        };
        let bytes = s.to_wire();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(Sample::from_wire(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_bytes_fail_strict_decode() {
        let s = Sample {
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            e: false,
            f: vec![],
        };
        let mut bytes = s.to_wire().to_vec();
        bytes.push(0);
        assert!(Sample::from_wire(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut w = Writer::new();
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = Writer::new();
        w.put_u32(1_000_000); // claims a million bytes follow
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn raw_and_remaining() {
        let mut w = Writer::new();
        w.put_raw(b"abcd");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.get_raw(2).expect("2 bytes"), b"ab");
        assert_eq!(r.remaining(), 2);
        assert!(r.get_raw(3).is_err());
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::new("u32");
        assert!(e.to_string().contains("u32"));
    }
}
