//! Passive packet capture (span-port taps) feeding the MANA IDS.
//!
//! §III-C: monitoring "must be completely non-invasive ... receiving a
//! passive network traffic packet capture". Taps record *metadata only*
//! (addresses, ports, kinds, sizes) — payloads are typically encrypted and
//! MANA's models never rely on them, matching the paper's argument that
//! anomaly detection keeps working once SCADA traffic is encrypted.

use crate::packet::{ArpOp, EtherPayload, Frame, TransportKind};
use crate::switch::SwitchId;
use crate::time::SimTime;
use crate::types::{IpAddr, MacAddr, Port};

/// Identifies a capture tap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TapId(pub u32);

/// Protocol family of a captured frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapturedProto {
    /// An ARP request or reply.
    Arp(ArpOp),
    /// An IP packet with transport kind.
    Ip(TransportKind),
}

/// One captured frame's metadata.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub time: SimTime,
    /// Switch the tap observed (span port source).
    pub switch: SwitchId,
    /// Source MAC as seen on the wire.
    pub src_mac: MacAddr,
    /// Destination MAC as seen on the wire.
    pub dst_mac: MacAddr,
    /// Protocol family and transport kind.
    pub proto: CapturedProto,
    /// Source IP (unspecified for ARP).
    pub src_ip: IpAddr,
    /// Destination IP (unspecified for ARP).
    pub dst_ip: IpAddr,
    /// Source port (0 for non-transport frames).
    pub src_port: Port,
    /// Destination port (0 for non-transport frames).
    pub dst_port: Port,
    /// Frame size in bytes.
    pub size: u32,
}

impl PacketRecord {
    /// Builds a record from a frame observed at `switch` at `time`.
    pub fn from_frame(time: SimTime, switch: SwitchId, frame: &Frame) -> Self {
        match &frame.payload {
            EtherPayload::Ip(p) => PacketRecord {
                time,
                switch,
                src_mac: frame.src_mac,
                dst_mac: frame.dst_mac,
                proto: CapturedProto::Ip(p.kind),
                src_ip: p.src_ip,
                dst_ip: p.dst_ip,
                src_port: p.src_port,
                dst_port: p.dst_port,
                size: frame.wire_size() as u32,
            },
            EtherPayload::Arp(a) => PacketRecord {
                time,
                switch,
                src_mac: frame.src_mac,
                dst_mac: frame.dst_mac,
                proto: CapturedProto::Arp(a.op),
                src_ip: a.sender_ip,
                dst_ip: a.target_ip,
                src_port: Port(0),
                dst_port: Port(0),
                size: frame.wire_size() as u32,
            },
        }
    }

    /// Whether this record is an ARP reply (gratuitous or solicited).
    pub fn is_arp_reply(&self) -> bool {
        matches!(self.proto, CapturedProto::Arp(ArpOp::Reply))
    }

    /// Whether this record is a TCP SYN probe.
    pub fn is_syn(&self) -> bool {
        matches!(self.proto, CapturedProto::Ip(TransportKind::TcpSyn))
    }
}

/// A tap accumulates records; MANA drains them out-of-band.
#[derive(Clone, Debug, Default)]
pub struct Tap {
    records: Vec<PacketRecord>,
}

impl Tap {
    /// Creates an empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn record(&mut self, rec: PacketRecord) {
        self.records.push(rec);
    }

    /// All records captured so far.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Drains and returns all buffered records (MANA's periodic pull).
    pub fn drain(&mut self) -> Vec<PacketRecord> {
        std::mem::take(&mut self.records)
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the tap buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ArpBody, Packet};
    use crate::types::NodeId;
    use bytes::Bytes;

    #[test]
    fn record_from_ip_frame() {
        let pkt = Packet::udp(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            Port(5),
            Port(6),
            Bytes::from_static(b"xyz"),
        );
        let frame = Frame {
            src_mac: MacAddr::derived(NodeId(1), 0),
            dst_mac: MacAddr::derived(NodeId(2), 0),
            payload: EtherPayload::Ip(pkt),
        };
        let rec = PacketRecord::from_frame(SimTime(9), SwitchId(3), &frame);
        assert_eq!(rec.size as usize, frame.wire_size());
        assert_eq!(rec.src_ip, IpAddr::new(10, 0, 0, 1));
        assert_eq!(rec.dst_port, Port(6));
        assert!(!rec.is_arp_reply());
        assert!(!rec.is_syn());
    }

    #[test]
    fn record_from_arp_frame() {
        let frame = Frame {
            src_mac: MacAddr::derived(NodeId(1), 0),
            dst_mac: MacAddr::BROADCAST,
            payload: EtherPayload::Arp(ArpBody {
                op: ArpOp::Reply,
                sender_ip: IpAddr::new(10, 0, 0, 7),
                sender_mac: MacAddr::derived(NodeId(1), 0),
                target_ip: IpAddr::new(10, 0, 0, 8),
            }),
        };
        let rec = PacketRecord::from_frame(SimTime(1), SwitchId(0), &frame);
        assert!(rec.is_arp_reply());
        assert_eq!(rec.src_ip, IpAddr::new(10, 0, 0, 7));
        assert_eq!(rec.src_port, Port(0));
    }

    #[test]
    fn tap_accumulates_and_drains() {
        let mut tap = Tap::new();
        assert!(tap.is_empty());
        let frame = Frame {
            src_mac: MacAddr::derived(NodeId(1), 0),
            dst_mac: MacAddr::derived(NodeId(2), 0),
            payload: EtherPayload::Ip(Packet::syn(
                IpAddr::new(1, 1, 1, 1),
                IpAddr::new(2, 2, 2, 2),
                Port(1),
                Port(2),
            )),
        };
        for t in 0..5 {
            tap.record(PacketRecord::from_frame(SimTime(t), SwitchId(0), &frame));
        }
        assert_eq!(tap.len(), 5);
        assert!(tap.records()[0].is_syn());
        let drained = tap.drain();
        assert_eq!(drained.len(), 5);
        assert!(tap.is_empty());
    }
}
