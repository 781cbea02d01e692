//! Overlay message format.

use bytes::Bytes;
use simnet::wire::{DecodeError, Reader, Wire, Writer};

/// Where an overlay message is going.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Destination {
    /// A specific daemon.
    Daemon(u32),
    /// All daemons subscribed to a group (Spines "virtual port").
    Group(u16),
}

/// Message kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// Application data.
    Data,
    /// The legacy diagnostic/maintenance message — the code path in which
    /// the red team's exploit lived. Processing it in legacy mode executes
    /// an attacker-controlled command; in intrusion-tolerant mode the
    /// handler is compiled out.
    LegacyDiag,
}

/// An overlay message (the plaintext inside per-link encryption).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpinesMsg {
    /// Originating daemon id.
    pub src: u32,
    /// Per-source sequence number (for flood deduplication).
    pub seq: u64,
    /// Destination.
    pub dst: Destination,
    /// Priority class (higher = more urgent); used by fair queuing.
    pub priority: u8,
    /// Message kind.
    pub kind: MsgKind,
    /// Application payload.
    pub payload: Bytes,
}

impl SpinesMsg {
    /// The wire encoding, written into a buffer allocated once at its
    /// exact length: `src`, `seq`, the destination tag and id, `priority`,
    /// `kind`, then the payload behind its length prefix.
    pub(crate) fn to_wire_vec(&self) -> Vec<u8> {
        let wire_len = 4 + 8 + (1 + 4) + 1 + 1 + 4 + self.payload.len();
        let mut w = Writer::with_capacity(wire_len);
        self.encode(&mut w);
        w.into_vec()
    }
}

impl Wire for SpinesMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.src).put_u64(self.seq);
        match self.dst {
            Destination::Daemon(d) => {
                w.put_u8(0).put_u32(d);
            }
            Destination::Group(g) => {
                w.put_u8(1).put_u32(g as u32);
            }
        }
        w.put_u8(self.priority);
        w.put_u8(match self.kind {
            MsgKind::Data => 0,
            MsgKind::LegacyDiag => 1,
        });
        w.put_bytes(&self.payload);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let src = r.get_u32()?;
        let seq = r.get_u64()?;
        let dst = match r.get_u8()? {
            0 => Destination::Daemon(r.get_u32()?),
            // A group id is written in four bytes but is a `u16`: a wider
            // one would decode as some other group.
            1 => Destination::Group(
                u16::try_from(r.get_u32()?).map_err(|_| DecodeError::new("group id"))?,
            ),
            _ => return Err(DecodeError::new("destination tag")),
        };
        let priority = r.get_u8()?;
        let kind = match r.get_u8()? {
            0 => MsgKind::Data,
            1 => MsgKind::LegacyDiag,
            _ => return Err(DecodeError::new("message kind")),
        };
        let payload = Bytes::from(r.get_bytes()?);
        Ok(SpinesMsg {
            src,
            seq,
            dst,
            priority,
            kind,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_daemon_dst() {
        let m = SpinesMsg {
            src: 3,
            seq: 42,
            dst: Destination::Daemon(7),
            priority: 2,
            kind: MsgKind::Data,
            payload: Bytes::from_static(b"update"),
        };
        assert_eq!(SpinesMsg::from_wire(&m.to_wire()).expect("roundtrip"), m);
    }

    #[test]
    fn roundtrip_group_dst_and_legacy_kind() {
        let m = SpinesMsg {
            src: 0,
            seq: u64::MAX,
            dst: Destination::Group(8101),
            priority: 0,
            kind: MsgKind::LegacyDiag,
            payload: Bytes::new(),
        };
        assert_eq!(SpinesMsg::from_wire(&m.to_wire()).expect("roundtrip"), m);
    }

    #[test]
    fn to_wire_vec_allocates_exactly_for_both_destinations() {
        for dst in [Destination::Daemon(7), Destination::Group(8101)] {
            for len in [0usize, 1, 88, 1024] {
                let m = SpinesMsg {
                    src: 3,
                    seq: 42,
                    dst,
                    priority: 2,
                    kind: MsgKind::Data,
                    payload: Bytes::from(vec![0x5a; len]),
                };
                let wire = m.to_wire_vec();
                assert_eq!(wire[..], m.to_wire()[..], "{dst:?}, {len} bytes");
                assert_eq!(wire.capacity(), wire.len(), "{dst:?}, {len} bytes");
            }
        }
    }

    #[test]
    fn malformed_rejected() {
        let m = SpinesMsg {
            src: 1,
            seq: 1,
            dst: Destination::Daemon(2),
            priority: 1,
            kind: MsgKind::Data,
            payload: Bytes::from_static(b"x"),
        };
        let bytes = m.to_wire();
        assert!(SpinesMsg::from_wire(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_tag = bytes.to_vec();
        bad_tag[12] = 9; // destination tag byte
        assert!(SpinesMsg::from_wire(&bad_tag).is_err());
    }

    #[test]
    fn group_id_wider_than_u16_is_malformed() {
        let m = SpinesMsg {
            src: 1,
            seq: 1,
            dst: Destination::Group(2),
            priority: 1,
            kind: MsgKind::Data,
            payload: Bytes::new(),
        };
        let bytes = m.to_wire();
        // The group id's four bytes follow the destination tag at 12.
        assert_eq!(bytes[13..17], [0, 0, 0, 2]);
        let mut wide = bytes.to_vec();
        wide[14] = 1; // 0x0001_0002, which truncated would read as group 2
        assert!(SpinesMsg::from_wire(&wide).is_err());
        wide[13..17].copy_from_slice(&u32::from(u16::MAX).to_be_bytes());
        assert_eq!(
            SpinesMsg::from_wire(&wide).expect("the widest group").dst,
            Destination::Group(u16::MAX)
        );
    }
}
