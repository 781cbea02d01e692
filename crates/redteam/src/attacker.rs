//! The attacker node: a scripted process with raw-frame capability.

use bytes::Bytes;
use modbus::{Request, Response, TcpFrame};
use plc::emulator::PLC_MODBUS_PORT;
use scada::commercial::{CommercialCommand, CommercialStatus, HMI_PORT, MASTER_PORT};
use simnet::packet::{ArpBody, ArpOp, EtherPayload, Frame, Packet, TransportKind};
use simnet::process::{Context, Process};
use simnet::time::{SimDuration, SimTime};
use simnet::types::{IpAddr, MacAddr, Port};
use simnet::wire::Wire;

/// Local port the attacker uses for its own traffic.
const ATTACK_PORT: Port = Port(31337);

/// One scripted attack step, executed at its scheduled time.
#[derive(Clone, Debug)]
pub enum AttackStep {
    /// TCP SYN scan of a port range on a target.
    PortScan {
        /// Target host.
        target: IpAddr,
        /// First port (inclusive).
        from_port: u16,
        /// Last port (inclusive).
        to_port: u16,
    },
    /// Gratuitous-ARP poisoning: tell `victim` that `claim_ip` lives at
    /// the attacker's MAC. Repeats `count` times, 50 ms apart.
    ArpPoison {
        /// Host whose ARP table is being poisoned.
        victim: IpAddr,
        /// The IP address the attacker impersonates.
        claim_ip: IpAddr,
        /// Number of gratuitous replies.
        count: u32,
    },
    /// A burst of datagrams at `pps` packets/second for `duration`,
    /// optionally with a spoofed source IP.
    DosBurst {
        /// Target host.
        target: IpAddr,
        /// Target port.
        port: Port,
        /// Packets per second.
        pps: u32,
        /// Burst length.
        duration: SimDuration,
        /// Forged source address, if any.
        spoof_src: Option<IpAddr>,
        /// Payload size in bytes.
        payload: usize,
    },
    /// Unauthenticated Modbus device-id read + configuration dump.
    ModbusDump {
        /// The PLC.
        plc: IpAddr,
    },
    /// Unauthenticated Modbus configuration upload.
    ModbusUpload {
        /// The PLC.
        plc: IpAddr,
        /// The malicious configuration image.
        image: Vec<u8>,
    },
    /// Forge a commercial SCADA status frame to an HMI.
    SpoofCommercialStatus {
        /// The HMI.
        hmi: IpAddr,
        /// Positions to display.
        positions: Vec<bool>,
        /// Sequence number to claim.
        seq: u64,
    },
    /// Inject an unauthenticated supervisory command at a commercial master.
    InjectCommercialCommand {
        /// The master.
        master: IpAddr,
        /// Breaker index.
        breaker: u16,
        /// Desired state.
        close: bool,
    },
    /// Send arbitrary bytes at a Spines port (probing / replaying without
    /// keys).
    SpinesProbe {
        /// Target daemon host.
        target: IpAddr,
        /// Spines port.
        port: Port,
        /// Raw bytes to send.
        payload: Vec<u8>,
    },
    /// A raw broadcast frame with a source-spoofed IP datagram — reaches
    /// hosts whose firewall trusts the forged peer.
    SpoofedProbe {
        /// Destination IP.
        target: IpAddr,
        /// Destination port.
        port: Port,
        /// Forged source address.
        spoof_src: IpAddr,
        /// Raw bytes to send.
        payload: Vec<u8>,
    },
    /// Claim another device's MAC address (CAM-table takeover on learning
    /// switches; ingress port security drops it on static switches).
    MacSpoof {
        /// The MAC being impersonated.
        impersonate: MacAddr,
        /// Frames to emit.
        count: u32,
    },
    /// An ICMP echo (also triggers ARP resolution — used to test whether
    /// internal addressing leaks through cross-interface ARP answers).
    Ping {
        /// Target IP.
        target: IpAddr,
    },
}

/// What the attacker observed.
#[derive(Clone, Debug, Default)]
pub struct Observations {
    /// SYN probes sent.
    pub syns_sent: u64,
    /// Scan responses seen as `(port, open)`.
    pub scan_results: Vec<(u16, bool)>,
    /// DoS packets sent.
    pub dos_packets_sent: u64,
    /// Dumped device identification text.
    pub device_id: Option<String>,
    /// Dumped configuration image.
    pub dumped_config: Option<Vec<u8>>,
    /// Whether a config upload was acknowledged.
    pub upload_acked: bool,
    /// Status frames rewritten and relayed onward.
    pub rewritten: u64,
    /// Spines probes sent.
    pub spines_probes_sent: u64,
}

/// Man-in-the-middle behaviour once traffic is steered to the attacker.
#[derive(Clone, Debug)]
pub struct MitmConfig {
    /// Rewrite commercial status frames to show every breaker closed
    /// (hiding the attacker's own actions from the operator).
    pub rewrite_status_all_closed: bool,
    /// Forward (possibly rewritten) traffic so the victim stays unaware.
    pub forward: bool,
}

struct Scheduled {
    at: SimTime,
    step: AttackStep,
}

/// The attacker process.
pub struct Attacker {
    plan: Vec<Scheduled>,
    /// Observations recorded so far.
    pub observed: Observations,
    /// MITM behaviour for transit traffic.
    pub mitm: Option<MitmConfig>,
    /// Burst state: (step index, packets remaining, interval).
    bursting: Option<(usize, u64, SimDuration)>,
    transaction: u16,
    outstanding_dump: Option<&'static str>,
}

impl Attacker {
    /// Creates an attacker with an empty plan.
    pub fn new() -> Self {
        Attacker {
            plan: Vec::new(),
            observed: Observations::default(),
            mitm: None,
            bursting: None,
            transaction: 0,
            outstanding_dump: None,
        }
    }

    /// Schedules a step at absolute simulation time `at`.
    pub fn schedule(&mut self, at: SimTime, step: AttackStep) -> &mut Self {
        self.plan.push(Scheduled { at, step });
        self
    }

    fn send_modbus(&mut self, ctx: &mut Context<'_>, plc: IpAddr, req: Request) {
        self.transaction = self.transaction.wrapping_add(1);
        let frame = TcpFrame::new(self.transaction, 1, req.encode());
        let pkt = Packet::udp(
            ctx.ip(0),
            plc,
            ATTACK_PORT,
            PLC_MODBUS_PORT,
            Bytes::from(frame.encode()),
        );
        ctx.send(0, pkt);
    }

    fn execute(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let step = self.plan[idx].step.clone();
        match step {
            AttackStep::PortScan {
                target,
                from_port,
                to_port,
            } => {
                for port in from_port..=to_port {
                    self.observed.syns_sent += 1;
                    ctx.send(0, Packet::syn(ctx.ip(0), target, ATTACK_PORT, Port(port)));
                }
            }
            AttackStep::ArpPoison {
                victim: _,
                claim_ip,
                count,
            } => {
                // Gratuitous replies broadcast onto the segment.
                for _ in 0..count {
                    let frame = Frame {
                        src_mac: ctx.mac(0),
                        dst_mac: MacAddr::BROADCAST,
                        payload: EtherPayload::Arp(ArpBody {
                            op: ArpOp::Reply,
                            sender_ip: claim_ip,
                            sender_mac: ctx.mac(0),
                            target_ip: claim_ip,
                        }),
                    };
                    ctx.send_raw(0, frame);
                }
            }
            AttackStep::DosBurst { pps, duration, .. } => {
                let total = (pps as u64 * duration.as_micros()) / 1_000_000;
                let interval = SimDuration::from_micros(1_000_000 / pps as u64);
                self.bursting = Some((idx, total, interval));
                self.dos_packet(ctx, idx);
            }
            AttackStep::ModbusDump { plc } => {
                self.outstanding_dump = Some("device_id");
                self.send_modbus(ctx, plc, Request::ReadDeviceId);
            }
            AttackStep::ModbusUpload { plc, image } => {
                self.send_modbus(ctx, plc, Request::ConfigUpload { image });
            }
            AttackStep::SpoofCommercialStatus {
                hmi,
                positions,
                seq,
            } => {
                let currents = vec![0; positions.len()];
                let status = CommercialStatus {
                    seq,
                    positions,
                    currents,
                };
                let pkt = Packet::udp(ctx.ip(0), hmi, ATTACK_PORT, HMI_PORT, status.to_wire());
                ctx.send(0, pkt);
            }
            AttackStep::InjectCommercialCommand {
                master,
                breaker,
                close,
            } => {
                let cmd = CommercialCommand { breaker, close };
                let pkt = Packet::udp(ctx.ip(0), master, ATTACK_PORT, MASTER_PORT, cmd.to_wire());
                ctx.send(0, pkt);
            }
            AttackStep::SpinesProbe {
                target,
                port,
                payload,
            } => {
                self.observed.spines_probes_sent += 1;
                let pkt = Packet::udp(ctx.ip(0), target, ATTACK_PORT, port, Bytes::from(payload));
                ctx.send(0, pkt);
            }
            AttackStep::SpoofedProbe {
                target,
                port,
                spoof_src,
                payload,
            } => {
                self.observed.spines_probes_sent += 1;
                let pkt = Packet::udp(spoof_src, target, ATTACK_PORT, port, Bytes::from(payload));
                let frame = Frame {
                    src_mac: ctx.mac(0),
                    dst_mac: MacAddr::BROADCAST,
                    payload: EtherPayload::Ip(pkt),
                };
                ctx.send_raw(0, frame);
            }
            AttackStep::MacSpoof { impersonate, count } => {
                for _ in 0..count {
                    // A frame whose source claims the victim's MAC; payload
                    // is arbitrary (the point is the CAM side effect).
                    let pkt = Packet::udp(
                        ctx.ip(0),
                        IpAddr::BROADCAST,
                        ATTACK_PORT,
                        Port(9),
                        Bytes::from_static(b"cam"),
                    );
                    let frame = Frame {
                        src_mac: impersonate,
                        dst_mac: MacAddr::BROADCAST,
                        payload: EtherPayload::Ip(pkt),
                    };
                    ctx.send_raw(0, frame);
                }
            }
            AttackStep::Ping { target } => {
                let pkt = Packet {
                    src_ip: ctx.ip(0),
                    dst_ip: target,
                    src_port: ATTACK_PORT,
                    dst_port: Port(0),
                    kind: TransportKind::Ping,
                    payload: Bytes::new(),
                    trace: None,
                };
                ctx.send(0, pkt);
            }
        }
    }

    fn dos_packet(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let AttackStep::DosBurst {
            target,
            port,
            spoof_src,
            payload,
            ..
        } = self.plan[idx].step.clone()
        else {
            return;
        };
        let Some((_, remaining, interval)) = self.bursting else {
            return;
        };
        if remaining == 0 {
            self.bursting = None;
            return;
        }
        self.observed.dos_packets_sent += 1;
        let src = spoof_src.unwrap_or(ctx.ip(0));
        if spoof_src.is_some() {
            // Spoofed source requires a raw frame (the OS path would use
            // our own address); the destination MAC must be guessed or
            // learned — use broadcast to let the switch deliver it.
            let pkt = Packet::udp(
                src,
                target,
                ATTACK_PORT,
                port,
                Bytes::from(vec![0u8; payload]),
            );
            let frame = Frame {
                src_mac: ctx.mac(0),
                dst_mac: MacAddr::BROADCAST,
                payload: EtherPayload::Ip(pkt),
            };
            ctx.send_raw(0, frame);
        } else {
            let pkt = Packet::udp(
                src,
                target,
                ATTACK_PORT,
                port,
                Bytes::from(vec![0u8; payload]),
            );
            ctx.send(0, pkt);
        }
        self.bursting = Some((idx, remaining - 1, interval));
        ctx.set_timer(interval, BURST_TIMER);
    }
}

impl Default for Attacker {
    fn default() -> Self {
        Self::new()
    }
}

const BURST_TIMER: u64 = 1_000_000;

impl Process for Attacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(ATTACK_PORT);
        for (i, s) in self.plan.iter().enumerate() {
            let delay = s.at.since(ctx.now());
            ctx.set_timer(delay, i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer == BURST_TIMER {
            if let Some((idx, _, _)) = self.bursting {
                self.dos_packet(ctx, idx);
            }
            return;
        }
        let idx = timer as usize;
        if idx < self.plan.len() {
            self.execute(ctx, idx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.kind {
            TransportKind::TcpSynAck => self.observed.scan_results.push((pkt.src_port.0, true)),
            TransportKind::TcpRst => self.observed.scan_results.push((pkt.src_port.0, false)),
            TransportKind::Udp
                // Possibly a Modbus reply to a dump.
                if pkt.src_port == PLC_MODBUS_PORT => {
                    if let Some(frame) = TcpFrame::decode(&pkt.payload) {
                        if let Some(Response::DeviceId { text }) =
                            Response::decode(&frame.pdu, &Request::ReadDeviceId)
                        {
                            self.observed.device_id = Some(text);
                            // Follow up with the config dump.
                            self.outstanding_dump = Some("config");
                            let plc = pkt.src_ip;
                            self.transaction = self.transaction.wrapping_add(1);
                            let f = TcpFrame::new(self.transaction, 1, Request::ConfigDownload.encode());
                            let out = Packet::udp(ctx.ip(0), plc, ATTACK_PORT, PLC_MODBUS_PORT, Bytes::from(f.encode()));
                            ctx.send(0, out);
                        } else if let Some(Response::ConfigImage { image }) =
                            Response::decode(&frame.pdu, &Request::ConfigDownload)
                        {
                            self.observed.dumped_config = Some(image);
                        } else if let Some(Response::ConfigAccepted) =
                            Response::decode(&frame.pdu, &Request::ConfigUpload { image: vec![] })
                        {
                            self.observed.upload_acked = true;
                        }
                    }
                }
            _ => {}
        }
    }

    fn on_transit(&mut self, ctx: &mut Context<'_>, _ifidx: usize, pkt: Packet) {
        // Traffic steered to us by ARP poisoning.
        let Some(mitm) = self.mitm.clone() else {
            return;
        };
        if !mitm.forward {
            return;
        }
        let mut forwarded = pkt.clone();
        if mitm.rewrite_status_all_closed {
            if let Ok(status) = CommercialStatus::from_wire(&pkt.payload) {
                self.observed.rewritten += 1;
                let rewritten = CommercialStatus {
                    seq: status.seq,
                    positions: vec![true; status.positions.len()],
                    currents: status.currents,
                };
                forwarded.payload = rewritten.to_wire();
            }
        }
        // Re-inject toward the true destination. Our own ARP view of the
        // victim is intact (we only poisoned the *other* hosts).
        ctx.send(0, forwarded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_accumulates() {
        let mut a = Attacker::new();
        a.schedule(
            SimTime(0),
            AttackStep::PortScan {
                target: IpAddr::new(1, 1, 1, 1),
                from_port: 1,
                to_port: 10,
            },
        );
        a.schedule(
            SimTime(5),
            AttackStep::ModbusDump {
                plc: IpAddr::new(2, 2, 2, 2),
            },
        );
        assert_eq!(a.plan.len(), 2);
    }
}
