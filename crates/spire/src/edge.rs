//! What Spire's four hosts do the same way, written once.
//!
//! Every host runs a Spines daemon on a UDP port ([`start`], [`transmit`],
//! [`receive`]); the three hosts outside the control centre are Prime
//! clients ([`MasterClient`]); the two proxies are Modbus masters on
//! interface 1 ([`FieldBus`]) that write a coil only when `f+1` replicas
//! ask for the same thing ([`CommandGate`]). §III-B puts the PLC behind a
//! proxy because the proxy is the one small piece that can be audited;
//! this module is that piece. Span labels are `ctx.node()`, so nothing
//! here depends on the order `Deployment::build` allocates nodes in.

use bytes::Bytes;
use itcrypto::keys::KeyPair;
use modbus::{Request, Response, TcpFrame};
use plc::emulator::PLC_MODBUS_PORT;
use prime::types::{SignedUpdate, Update};
use scada::updates::ScadaUpdate;
use simnet::packet::Packet;
use simnet::process::Context;
use simnet::types::{IpAddr, Port};
use simnet::wire::Wire;
use spines::daemon::SpinesDaemon;

use crate::config::GROUP_MASTERS;
use crate::messages::ExternalMsg;
use crate::vote::VoteCollector;

/// Opens `daemon`'s port and lifts its sequence and nonce floor above
/// every earlier incarnation of this host: peers deduplicate floods by
/// sequence and the link keys are the same, so a recovered daemon may
/// reuse neither. The clock only advances and no daemon sends 2^16
/// frames in a microsecond.
pub(crate) fn start(daemon: &mut SpinesDaemon, ctx: &mut Context<'_>) {
    ctx.listen(daemon.config().port);
    daemon.set_seq_base(ctx.now().as_micros() << 16);
}

/// Puts the wire sends a daemon call returned on interface `ifidx`.
pub(crate) fn transmit(
    daemon: &SpinesDaemon,
    ctx: &mut Context<'_>,
    ifidx: usize,
    sends: Vec<(IpAddr, Bytes)>,
) {
    let port = daemon.config().port;
    for (addr, bytes) in sends {
        ctx.send(ifidx, Packet::udp(ctx.ip(ifidx), addr, port, port, bytes));
    }
}

/// Hands a packet that reached `daemon`'s port to it, as one traced
/// overlay hop of this node, and forwards what it floods onward.
/// Deliveries wait in the daemon for the host to drain.
pub(crate) fn receive(
    daemon: &mut SpinesDaemon,
    ctx: &mut Context<'_>,
    ifidx: usize,
    pkt: &Packet,
) {
    if let Some(hop) = daemon.trace_hop(ctx.trace(), ctx.node().0) {
        ctx.set_trace(Some(hop));
    }
    let sends = daemon.on_wire(pkt.src_ip, &pkt.payload);
    transmit(daemon, ctx, ifidx, sends);
}

/// A proxy's or an HMI's identity as a Prime client.
pub(crate) struct MasterClient {
    key: KeyPair,
    client: u32,
    client_seq: u64,
}

impl MasterClient {
    /// Client `client`, signing with `key`; sequences count from 1.
    pub(crate) fn new(key: KeyPair, client: u32) -> Self {
        MasterClient {
            key,
            client,
            client_seq: 0,
        }
    }

    fn sign_next(&mut self, update: &ScadaUpdate) -> SignedUpdate {
        self.client_seq += 1;
        let update = Update::new(self.client, self.client_seq, update.to_wire());
        let sig = self.key.sign(&update.to_wire());
        SignedUpdate { update, sig }
    }

    /// Signs `update` under the next client sequence and multicasts it to
    /// the masters through `daemon` on interface 0.
    pub(crate) fn submit(
        &mut self,
        daemon: &mut SpinesDaemon,
        ctx: &mut Context<'_>,
        update: &ScadaUpdate,
    ) {
        let msg = ExternalMsg::ClientUpdate(self.sign_next(update));
        let sends = daemon.multicast(GROUP_MASTERS, 1, msg.to_wire());
        transmit(daemon, ctx, 0, sends);
    }
}

/// The read in flight: positions first, currents on their reply.
struct Read {
    /// MBAP transaction of the request whose reply is awaited. Not "the
    /// last id sent": a coil write shares the counter and may go out
    /// between a read and its reply.
    transaction: u16,
    device: IpAddr,
    request: Request,
    positions: Vec<bool>,
}

/// What a packet on the field interface did to the read in flight.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Polled {
    /// Nothing: a write acknowledgement, a reply to an abandoned read, a
    /// stranger, or bytes that are not the reply asked for.
    Ignored,
    /// The positions arrived and the currents were asked for.
    Advanced,
    /// Positions and currents are both in; no read is in flight any more.
    Done(Vec<bool>, Vec<u16>),
}

/// The Modbus master on interface 1: one read in flight at a time, and
/// coil writes beside it.
pub(crate) struct FieldBus {
    port: Port,
    transaction: u16,
    read: Option<Read>,
    moved: bool,
}

impl FieldBus {
    /// A master whose requests leave from (and replies return to) `port`,
    /// which the host listens on.
    pub(crate) fn new(port: Port) -> Self {
        FieldBus {
            port,
            transaction: 0,
            read: None,
            moved: false,
        }
    }

    fn frame(&mut self, request: &Request) -> Bytes {
        self.transaction = self.transaction.wrapping_add(1);
        Bytes::from(TcpFrame::new(self.transaction, 1, request.encode()).encode())
    }

    /// Frames `request` and makes it the read in flight.
    fn ask(&mut self, device: IpAddr, request: Request, positions: Vec<bool>) -> Bytes {
        let frame = self.frame(&request);
        self.read = Some(Read {
            transaction: self.transaction,
            device,
            request,
            positions,
        });
        frame
    }

    fn send(&self, ctx: &mut Context<'_>, device: IpAddr, frame: Bytes) {
        let pkt = Packet::udp(ctx.ip(1), device, self.port, PLC_MODBUS_PORT, frame);
        ctx.send(1, pkt);
    }

    /// Starts reading `count` breakers of `device`, abandoning any read in
    /// flight (its replies will no longer match).
    pub(crate) fn poll(&mut self, ctx: &mut Context<'_>, device: IpAddr, count: u16) {
        let request = Request::ReadDiscreteInputs { address: 0, count };
        let frame = self.ask(device, request, Vec::new());
        self.send(ctx, device, frame);
    }

    /// Writes one coil of `device`; the read in flight is not disturbed.
    pub(crate) fn write_coil(
        &mut self,
        ctx: &mut Context<'_>,
        device: IpAddr,
        coil: u16,
        on: bool,
    ) {
        let frame = self.frame(&Request::WriteSingleCoil {
            address: coil,
            value: on,
        });
        self.send(ctx, device, frame);
    }

    /// Whether a read is in flight that a reply has advanced since the
    /// last call: a slow sweep to leave alone, as opposed to one whose
    /// reply was lost and that only a restart will move again.
    pub(crate) fn still_moving(&mut self) -> bool {
        std::mem::take(&mut self.moved) && self.read.is_some()
    }

    /// The state machine without the wire: what `payload` from `from` did,
    /// and the currents request to send if it was the positions.
    fn accept(&mut self, from: IpAddr, payload: &[u8]) -> (Polled, Option<Bytes>) {
        let Some(read) = self.read.take() else {
            return (Polled::Ignored, None);
        };
        let response = TcpFrame::decode(payload)
            .filter(|f| from == read.device && f.header.transaction == read.transaction)
            .and_then(|f| Response::decode(&f.pdu, &read.request));
        match response {
            Some(Response::Bits { values, .. }) => {
                self.moved = true;
                let count = values.len() as u16;
                let request = Request::ReadInputRegisters { address: 0, count };
                (Polled::Advanced, Some(self.ask(from, request, values)))
            }
            Some(Response::Registers { values, .. }) => {
                self.moved = true;
                (Polled::Done(read.positions, values), None)
            }
            _ => {
                self.read = Some(read);
                (Polled::Ignored, None)
            }
        }
    }

    /// Takes a packet that is not the overlay's. A positions reply sends
    /// the currents request from inside this callback, so the request (and
    /// the reply to it) inherit the packet's trace context.
    pub(crate) fn on_reply(&mut self, ctx: &mut Context<'_>, pkt: &Packet) -> Polled {
        if pkt.dst_port != self.port {
            return Polled::Ignored;
        }
        let (polled, next) = self.accept(pkt.src_ip, &pkt.payload);
        if let Some(frame) = next {
            self.send(ctx, pkt.src_ip, frame);
        }
        polled
    }
}

/// What the gate made of one overlay delivery.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Not a command, or one for a device or breaker that is not here.
    Ignored,
    /// A vote short of `f+1`.
    Pending,
    /// The `f+1`-th matching vote: set this device's breaker coil.
    Actuate(IpAddr, u16, bool),
}

/// The `f+1` gate between the masters and the field devices: a single
/// compromised replica can neither move a breaker nor, by voting for
/// something else, stop the honest ones from moving it.
pub(crate) struct CommandGate {
    /// `(scenario tag, breaker count, Modbus address)` per device behind
    /// this proxy.
    devices: Vec<(String, u16, IpAddr)>,
    votes: VoteCollector<(String, u16, bool, u64)>,
}

impl CommandGate {
    /// A gate in front of `devices` that opens at `f+1` matching votes.
    pub(crate) fn new(f: u32, devices: Vec<(String, u16, IpAddr)>) -> Self {
        CommandGate {
            devices,
            votes: VoteCollector::new(f + 1),
        }
    }

    fn decide(&mut self, payload: &[u8]) -> Verdict {
        let Ok(ExternalMsg::PlcCommand {
            replica,
            scenario,
            breaker,
            close,
            exec_seq,
        }) = ExternalMsg::from_wire(payload)
        else {
            return Verdict::Ignored;
        };
        let Some(&(_, count, device)) = self.devices.iter().find(|d| d.0 == scenario) else {
            return Verdict::Ignored;
        };
        if breaker >= count {
            return Verdict::Ignored;
        }
        if self
            .votes
            .vote((scenario, breaker, close, exec_seq), replica)
        {
            Verdict::Actuate(device, breaker, close)
        } else {
            Verdict::Pending
        }
    }

    /// Runs everything `daemon` delivered through the gate and writes the
    /// coils it releases on `bus`, each under a Deliver span parented by
    /// the winning vote's context. Returns `(actuated, still pending)`.
    pub(crate) fn drain(
        &mut self,
        daemon: &mut SpinesDaemon,
        bus: &mut FieldBus,
        obs: &obs::ObsHub,
        ctx: &mut Context<'_>,
    ) -> (u64, u64) {
        let (mut actuated, mut pending) = (0, 0);
        for delivery in daemon.take_deliveries() {
            match self.decide(&delivery.payload) {
                Verdict::Ignored => {}
                Verdict::Pending => pending += 1,
                Verdict::Actuate(device, breaker, close) => {
                    actuated += 1;
                    let deliver = obs.instant_span(ctx.trace(), obs::Stage::Deliver, ctx.node().0);
                    if deliver.is_some() {
                        ctx.set_trace(deliver);
                    }
                    bus.write_coil(ctx, device, breaker, close);
                }
            }
        }
        (actuated, pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpireConfig;
    use plc::topology::Scenario;

    const PLC: IpAddr = IpAddr::new(192, 168, 9, 2);

    fn reply(transaction: u16, response: Response) -> Vec<u8> {
        TcpFrame::new(transaction, 1, response.encode()).encode()
    }

    fn bits(values: &[bool]) -> Response {
        Response::Bits {
            function: 0x02,
            values: values.to_vec(),
        }
    }

    fn registers(values: &[u16]) -> Response {
        Response::Registers {
            function: 0x04,
            values: values.to_vec(),
        }
    }

    #[test]
    fn a_reply_to_an_abandoned_read_is_not_taken_for_the_current_one() {
        let mut bus = FieldBus::new(Port(8150));
        let positions = Request::ReadDiscreteInputs {
            address: 0,
            count: 3,
        };
        bus.ask(PLC, positions.clone(), Vec::new()); // transaction 1: abandoned by the next tick
        bus.ask(PLC, positions, Vec::new()); // transaction 2
        let stale = reply(1, bits(&[false, false, false]));
        assert_eq!(bus.accept(PLC, &stale).0, Polled::Ignored);
        assert!(!bus.still_moving(), "a dropped reply is not progress");
        let fresh = reply(2, bits(&[true, false, true]));
        let (polled, currents_request) = bus.accept(PLC, &fresh);
        assert_eq!(polled, Polled::Advanced);
        assert!(currents_request.is_some());
        assert!(bus.still_moving());
        // A coil write takes transaction 4 while the currents (3) are out:
        // its acknowledgement is not the reply, the currents still are.
        bus.frame(&Request::WriteSingleCoil {
            address: 0,
            value: true,
        });
        let ack = Response::WriteSingleCoil {
            address: 0,
            value: true,
        };
        assert_eq!(bus.accept(PLC, &reply(4, ack)).0, Polled::Ignored);
        let stranger = IpAddr::new(192, 168, 9, 66);
        let currents = reply(3, registers(&[400, 0, 200]));
        assert_eq!(bus.accept(stranger, &currents).0, Polled::Ignored);
        assert_eq!(
            bus.accept(PLC, &currents).0,
            Polled::Done(vec![true, false, true], vec![400, 0, 200])
        );
        assert_eq!(bus.accept(PLC, &currents).0, Polled::Ignored, "read over");
    }

    fn command(replica: u32, scenario: &str, breaker: u16, close: bool) -> Bytes {
        ExternalMsg::PlcCommand {
            replica,
            scenario: scenario.to_string(),
            breaker,
            close,
            exec_seq: 7,
        }
        .to_wire()
    }

    #[test]
    fn gate_opens_once_at_f_plus_one_matching_votes() {
        let mut gate = CommandGate::new(2, vec![("plant".to_string(), 3, PLC)]);
        assert_eq!(gate.decide(b"not a message"), Verdict::Ignored);
        assert_eq!(gate.decide(&command(0, "jhu", 0, false)), Verdict::Ignored);
        assert_eq!(
            gate.decide(&command(0, "plant", 3, false)),
            Verdict::Ignored
        );
        // f = 2 matching votes leave the breaker alone; replica 5 lying
        // about the direction, twice, joins nobody.
        assert_eq!(
            gate.decide(&command(0, "plant", 1, false)),
            Verdict::Pending
        );
        assert_eq!(gate.decide(&command(5, "plant", 1, true)), Verdict::Pending);
        assert_eq!(
            gate.decide(&command(1, "plant", 1, false)),
            Verdict::Pending
        );
        assert_eq!(gate.decide(&command(5, "plant", 1, true)), Verdict::Pending);
        assert_eq!(
            gate.decide(&command(2, "plant", 1, false)),
            Verdict::Actuate(PLC, 1, false)
        );
        assert_eq!(
            gate.decide(&command(3, "plant", 1, false)),
            Verdict::Pending
        );
        assert_eq!(gate.votes.decisions, 1, "actuated exactly once");
    }

    #[test]
    fn client_sequences_count_from_one_and_verify_against_the_registry() {
        let cfg = SpireConfig::minimal(prime::types::Config::plant(), Scenario::PlantSubset);
        let registry = cfg.registry();
        let mut proxy = MasterClient::new(cfg.proxy_keypair(0), cfg.client_of_proxy(0));
        let mut hmi = MasterClient::new(cfg.hmi_keypair(0), cfg.client_of_hmi(0));
        let update = ScadaUpdate::HmiCommand {
            scenario: "plant".to_string(),
            breaker: 0,
            close: false,
        };
        for seq in 1..=3 {
            for (who, client) in [
                (&mut proxy, cfg.client_of_proxy(0)),
                (&mut hmi, cfg.client_of_hmi(0)),
            ] {
                let signed = who.sign_next(&update);
                assert_eq!(
                    (signed.update.client, signed.update.client_seq),
                    (client, seq)
                );
                assert!(signed.verify(&registry));
            }
        }
    }
}
