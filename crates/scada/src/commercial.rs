//! The commercial SCADA baseline: a primary-backup master pair with
//! unauthenticated protocols, set up "according to NIST-recommended best
//! practices" (§IV) — firewalled, but with no cryptography and the PLC
//! directly on the operations network. This is the system the red team
//! took over in hours.

use bytes::Bytes;
use modbus::{Request, Response, TcpFrame};
use plc::emulator::PLC_MODBUS_PORT;
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::{SimDuration, SimTime};
use simnet::types::{IpAddr, Port};
use simnet::wire::{DecodeError, Reader, Wire, Writer};

/// Port the commercial master listens on (status/commands/heartbeats).
pub const MASTER_PORT: Port = Port(20_000);
/// Port the commercial HMI listens on.
pub const HMI_PORT: Port = Port(20_001);

const POLL_TIMER: u64 = 1;
const HEARTBEAT_CHECK_TIMER: u64 = 2;

/// The unauthenticated status frame the master pushes to the HMI (and to
/// its backup, as a heartbeat). Anyone who can reach the HMI port can
/// forge one — that is the point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommercialStatus {
    /// Monotonic status sequence.
    pub seq: u64,
    /// Breaker positions.
    pub positions: Vec<bool>,
    /// Breaker currents.
    pub currents: Vec<u16>,
}

impl Wire for CommercialStatus {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(0xC5); // frame type marker
        w.put_u64(self.seq);
        w.put_u32(self.positions.len() as u32);
        for &p in &self.positions {
            w.put_bool(p);
        }
        w.put_u32(self.currents.len() as u32);
        for &c in &self.currents {
            w.put_u16(c);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if r.get_u8()? != 0xC5 {
            return Err(DecodeError::new("status marker"));
        }
        let seq = r.get_u64()?;
        let np = r.get_u32()? as usize;
        if np > 4096 {
            return Err(DecodeError::new("positions length"));
        }
        let positions = (0..np).map(|_| r.get_bool()).collect::<Result<_, _>>()?;
        let nc = r.get_u32()? as usize;
        if nc > 4096 {
            return Err(DecodeError::new("currents length"));
        }
        let currents = (0..nc).map(|_| r.get_u16()).collect::<Result<_, _>>()?;
        Ok(CommercialStatus {
            seq,
            positions,
            currents,
        })
    }
}

/// The unauthenticated supervisory command frame (HMI → master).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommercialCommand {
    /// Breaker index.
    pub breaker: u16,
    /// Desired state.
    pub close: bool,
}

impl Wire for CommercialCommand {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(0xC7);
        w.put_u16(self.breaker);
        w.put_bool(self.close);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if r.get_u8()? != 0xC7 {
            return Err(DecodeError::new("command marker"));
        }
        Ok(CommercialCommand {
            breaker: r.get_u16()?,
            close: r.get_bool()?,
        })
    }
}

/// Role of a commercial master instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MasterRole {
    /// Actively polling and commanding.
    Primary,
    /// Watching heartbeats, ready to take over.
    Backup,
}

/// A commercial SCADA master (one of the primary/backup pair).
pub struct CommercialMaster {
    /// Current role (backup promotes itself on heartbeat loss).
    pub role: MasterRole,
    plc: IpAddr,
    hmi: IpAddr,
    peer: IpAddr,
    poll_interval: SimDuration,
    transaction: u16,
    status_seq: u64,
    breaker_count: u16,
    /// Last positions read from the PLC.
    pub positions: Vec<bool>,
    /// Last currents read.
    pub currents: Vec<u16>,
    last_peer_heartbeat: SimTime,
    obs: obs::ObsHub,
}

impl CommercialMaster {
    /// Creates a master. `peer` is the other master of the pair; spans go
    /// to `hub`.
    pub fn new(
        role: MasterRole,
        plc: IpAddr,
        hmi: IpAddr,
        peer: IpAddr,
        breaker_count: u16,
        hub: &obs::ObsHub,
    ) -> Self {
        CommercialMaster {
            role,
            plc,
            hmi,
            peer,
            poll_interval: SimDuration::from_millis(100),
            transaction: 0,
            status_seq: 0,
            breaker_count,
            positions: Vec::new(),
            currents: Vec::new(),
            last_peer_heartbeat: SimTime::ZERO,
            obs: hub.clone(),
        }
    }

    fn send_modbus(&mut self, ctx: &mut Context<'_>, req: Request) {
        self.transaction = self.transaction.wrapping_add(1);
        let frame = TcpFrame::new(self.transaction, 1, req.encode());
        let pkt = Packet::udp(
            ctx.ip(0),
            self.plc,
            MASTER_PORT,
            PLC_MODBUS_PORT,
            Bytes::from(frame.encode()),
        );
        ctx.send(0, pkt);
    }
}

impl Process for CommercialMaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(MASTER_PORT);
        self.last_peer_heartbeat = ctx.now();
        ctx.set_timer(self.poll_interval, POLL_TIMER);
        ctx.set_timer(self.poll_interval.saturating_mul(3), HEARTBEAT_CHECK_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        match timer {
            POLL_TIMER => {
                if self.role == MasterRole::Primary {
                    self.send_modbus(
                        ctx,
                        Request::ReadDiscreteInputs {
                            address: 0,
                            count: self.breaker_count,
                        },
                    );
                    self.send_modbus(
                        ctx,
                        Request::ReadInputRegisters {
                            address: 0,
                            count: self.breaker_count,
                        },
                    );
                }
                ctx.set_timer(self.poll_interval, POLL_TIMER);
            }
            HEARTBEAT_CHECK_TIMER => {
                if self.role == MasterRole::Backup
                    && ctx.now().since(self.last_peer_heartbeat)
                        > self.poll_interval.saturating_mul(5)
                {
                    self.role = MasterRole::Primary;
                }
                ctx.set_timer(self.poll_interval.saturating_mul(3), HEARTBEAT_CHECK_TIMER);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        // Modbus responses from the PLC.
        if pkt.src_port == PLC_MODBUS_PORT {
            if let Some(frame) = TcpFrame::decode(&pkt.payload) {
                let positions_req = Request::ReadDiscreteInputs {
                    address: 0,
                    count: self.breaker_count,
                };
                let currents_req = Request::ReadInputRegisters {
                    address: 0,
                    count: self.breaker_count,
                };
                if let Some(Response::Bits { values, .. }) =
                    Response::decode(&frame.pdu, &positions_req)
                {
                    let changed = self.positions != values;
                    self.positions = values;
                    if changed || self.status_seq == 0 {
                        // The poll observed a field change; the status
                        // push to the HMI continues its trace.
                        let poll =
                            self.obs
                                .instant_span(ctx.trace(), obs::Stage::Poll, ctx.node().0);
                        if poll.is_some() {
                            ctx.set_trace(poll);
                        }
                        self.status_seq += 1;
                        let status = CommercialStatus {
                            seq: self.status_seq,
                            positions: self.positions.clone(),
                            currents: self.currents.clone(),
                        };
                        let bytes = status.to_wire();
                        // Unauthenticated push to HMI + heartbeat to peer.
                        let to_hmi =
                            Packet::udp(ctx.ip(0), self.hmi, MASTER_PORT, HMI_PORT, bytes.clone());
                        ctx.send(0, to_hmi);
                    }
                    // Heartbeat to the backup every poll regardless.
                    let hb = CommercialStatus {
                        seq: self.status_seq,
                        positions: self.positions.clone(),
                        currents: self.currents.clone(),
                    };
                    let to_peer =
                        Packet::udp(ctx.ip(0), self.peer, MASTER_PORT, MASTER_PORT, hb.to_wire());
                    ctx.send(0, to_peer);
                } else if let Some(Response::Registers { values, .. }) =
                    Response::decode(&frame.pdu, &currents_req)
                {
                    self.currents = values;
                }
            }
            return;
        }
        // Heartbeat from the peer master.
        if pkt.src_ip == self.peer && pkt.dst_port == MASTER_PORT {
            if CommercialStatus::from_wire(&pkt.payload).is_ok() {
                self.last_peer_heartbeat = ctx.now();
            }
            return;
        }
        // Supervisory command — accepted from ANYONE (no authentication).
        if let Ok(cmd) = CommercialCommand::from_wire(&pkt.payload) {
            if self.role == MasterRole::Primary {
                self.send_modbus(
                    ctx,
                    Request::WriteSingleCoil {
                        address: cmd.breaker,
                        value: cmd.close,
                    },
                );
            }
        }
    }
}

/// The commercial HMI: displays whatever status frames arrive.
pub struct CommercialHmi {
    master: IpAddr,
    /// Latest displayed positions.
    pub positions: Vec<bool>,
    /// Highest status sequence displayed.
    pub last_seq: u64,
    /// Transitions of the measurement box breaker (§V), `(time, closed)`.
    pub box_transitions: Vec<(SimTime, bool)>,
    /// Breaker index driving the measurement box.
    pub sensor_breaker: u16,
    obs: obs::ObsHub,
}

impl CommercialHmi {
    /// Creates an HMI expecting status from `master`; spans go to `hub`.
    pub fn new(master: IpAddr, hub: &obs::ObsHub) -> Self {
        CommercialHmi {
            master,
            positions: Vec::new(),
            last_seq: 0,
            box_transitions: Vec::new(),
            sensor_breaker: 0,
            obs: hub.clone(),
        }
    }

    /// Sends an operator command toward the (believed) master.
    pub fn issue_command(&self, ctx: &mut Context<'_>, breaker: u16, close: bool) {
        let cmd = CommercialCommand { breaker, close };
        let pkt = Packet::udp(ctx.ip(0), self.master, HMI_PORT, MASTER_PORT, cmd.to_wire());
        ctx.send(0, pkt);
    }
}

impl Process for CommercialHmi {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(HMI_PORT);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let Ok(status) = CommercialStatus::from_wire(&pkt.payload) else {
            return;
        };
        // No authentication: the HMI has no way to tell master from forger,
        // and displays a frame from any other address whatever its seq.
        if status.seq <= self.last_seq && pkt.src_ip == self.master {
            return;
        }
        self.last_seq = status.seq.max(self.last_seq);
        let old_box = self.positions.get(self.sensor_breaker as usize).copied();
        self.positions = status.positions;
        let new_box = self.positions.get(self.sensor_breaker as usize).copied();
        if let (Some(n), o) = (new_box, old_box) {
            if o != Some(n) {
                self.box_transitions.push((ctx.now(), n));
                self.obs
                    .instant_span(ctx.trace(), obs::Stage::Render, ctx.node().0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc::emulator::PlcEmulator;
    use plc::topology::Scenario;
    use simnet::{InterfaceSpec, LinkSpec, NodeSpec, Simulation, SwitchMode};

    const PLC_IP: IpAddr = IpAddr::new(10, 2, 0, 1);
    const PRIMARY_IP: IpAddr = IpAddr::new(10, 2, 0, 2);
    const BACKUP_IP: IpAddr = IpAddr::new(10, 2, 0, 3);
    const HMI_IP: IpAddr = IpAddr::new(10, 2, 0, 4);

    fn build() -> (
        Simulation,
        simnet::NodeId,
        simnet::NodeId,
        simnet::NodeId,
        simnet::NodeId,
    ) {
        let mut sim = Simulation::new(42);
        let hub = sim.obs().clone();
        let plc = sim.add_node(NodeSpec::new(
            "plc",
            vec![InterfaceSpec::dynamic(PLC_IP)],
            Box::new(PlcEmulator::new(Scenario::RedTeamDistribution, &hub)),
        ));
        let primary = sim.add_node(NodeSpec::new(
            "primary",
            vec![InterfaceSpec::dynamic(PRIMARY_IP)],
            Box::new(CommercialMaster::new(
                MasterRole::Primary,
                PLC_IP,
                HMI_IP,
                BACKUP_IP,
                7,
                &hub,
            )),
        ));
        let backup = sim.add_node(NodeSpec::new(
            "backup",
            vec![InterfaceSpec::dynamic(BACKUP_IP)],
            Box::new(CommercialMaster::new(
                MasterRole::Backup,
                PLC_IP,
                HMI_IP,
                PRIMARY_IP,
                7,
                &hub,
            )),
        ));
        let hmi = sim.add_node(NodeSpec::new(
            "hmi",
            vec![InterfaceSpec::dynamic(HMI_IP)],
            Box::new(CommercialHmi::new(PRIMARY_IP, &hub)),
        ));
        let sw = sim.add_switch(8, SwitchMode::Learning);
        sim.connect(plc, 0, sw, 0, LinkSpec::lan());
        sim.connect(primary, 0, sw, 1, LinkSpec::lan());
        sim.connect(backup, 0, sw, 2, LinkSpec::lan());
        sim.connect(hmi, 0, sw, 3, LinkSpec::lan());
        (sim, plc, primary, backup, hmi)
    }

    #[test]
    fn poll_loop_reaches_hmi() {
        let (mut sim, _plc, _primary, _backup, hmi) = build();
        sim.run_for(SimDuration::from_secs(2));
        let h = sim.process_ref::<CommercialHmi>(hmi).expect("hmi");
        assert_eq!(h.positions, vec![true; 7], "all breakers closed initially");
        assert!(h.last_seq >= 1);
    }

    #[test]
    fn failover_when_primary_dies() {
        let (mut sim, _plc, primary, backup, hmi) = build();
        sim.run_for(SimDuration::from_secs(1));
        sim.set_node_up(primary, false);
        sim.run_for(SimDuration::from_secs(3));
        let b = sim.process_ref::<CommercialMaster>(backup).expect("backup");
        assert_eq!(b.role, MasterRole::Primary);
        let _ = hmi;
    }

    #[test]
    fn unauthenticated_command_from_anyone_executes() {
        // An "operator" that is actually an attacker box on the network.
        struct Attacker {
            master: IpAddr,
        }
        impl Process for Attacker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let cmd = CommercialCommand {
                    breaker: 0,
                    close: false,
                };
                let pkt = Packet::udp(
                    ctx.ip(0),
                    self.master,
                    Port(6666),
                    MASTER_PORT,
                    cmd.to_wire(),
                );
                ctx.send(0, pkt);
            }
        }
        let (mut sim, plc, _primary, _backup, _hmi) = build();
        let atk = sim.add_node(NodeSpec::new(
            "attacker",
            vec![InterfaceSpec::dynamic(IpAddr::new(10, 2, 0, 66))],
            Box::new(Attacker { master: PRIMARY_IP }),
        ));
        // Need a free port on the switch — rebuild with an extra port used.
        let sw = simnet::SwitchId(0);
        sim.connect(atk, 0, sw, 4, LinkSpec::lan());
        sim.run_for(SimDuration::from_secs(2));
        let p = sim.process_ref::<PlcEmulator>(plc).expect("plc");
        assert!(!p.positions()[0], "breaker B10-1 opened by attacker");
    }

    #[test]
    fn spoofed_status_accepted_by_hmi() {
        struct Spoofer {
            hmi: IpAddr,
        }
        impl Process for Spoofer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Tell the operator everything is fine (all closed) with a
                // high sequence so it sticks.
                let status = CommercialStatus {
                    seq: 10_000,
                    positions: vec![true; 7],
                    currents: vec![0; 7],
                };
                let pkt = Packet::udp(ctx.ip(0), self.hmi, Port(6666), HMI_PORT, status.to_wire());
                ctx.send(0, pkt);
            }
        }
        let (mut sim, _plc, _primary, _backup, hmi) = build();
        let atk = sim.add_node(NodeSpec::new(
            "spoofer",
            vec![InterfaceSpec::dynamic(IpAddr::new(10, 2, 0, 66))],
            Box::new(Spoofer { hmi: HMI_IP }),
        ));
        sim.connect(atk, 0, simnet::SwitchId(0), 4, LinkSpec::lan());
        sim.run_for(SimDuration::from_secs(1));
        let h = sim.process_ref::<CommercialHmi>(hmi).expect("hmi");
        assert_eq!(h.last_seq, 10_000, "HMI displayed forged status");
    }
}
