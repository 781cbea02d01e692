//! The substation proxy: the hierarchical aggregation tier of the
//! regional deployment.
//!
//! A regional utility cannot afford one ordered Prime update per device
//! poll — at 1000 devices that is three orders of magnitude more ordering
//! work than the plant deployment was sized for. Instead each substation
//! runs one proxy that polls its whole PLC/RTU bank over the local
//! substation LAN (Modbus, as in §III-B, but fanned out over the station
//! switch) and coalesces the sweep into a *single* signed
//! [`ScadaUpdate::SubstationReport`] carrying every device's latest
//! values. Ordered-update volume then scales with substations, not
//! devices.
//!
//! Interface 0 faces the external Spines overlay through the substation's
//! WAN trunk; interface 1 faces the substation LAN. Inbound actuation is
//! vote-gated exactly like the flat proxy: `f+1` matching commands from
//! distinct replicas release one Modbus write to the owning device.

use bytes::Bytes;
use itcrypto::keys::KeyPair;
use modbus::{Request, Response, TcpFrame};
use plc::emulator::PLC_MODBUS_PORT;
use prime::types::{SignedUpdate, Update};
use scada::updates::{DeviceReport, ScadaUpdate};
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::SimDuration;
use simnet::types::{IpAddr, Port};
use simnet::wire::Wire;
use spines::daemon::SpinesDaemon;

use crate::config::{SpireConfig, EXTERNAL_SPINES_PORT};
use crate::messages::ExternalMsg;

const SWEEP_TIMER: u64 = 1;
/// The substation proxy's Modbus client port on the station LAN.
pub const SUBSTATION_MODBUS_PORT: Port = Port(8160);

/// Outstanding Modbus request kind for the device under the cursor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outstanding {
    Positions,
    Currents,
}

/// Counters for the E14 experiment and regional soaks.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubstationStats {
    /// Full bank sweeps completed.
    pub sweeps_completed: u64,
    /// Individual device poll round-trips (positions + currents pairs).
    pub device_polls: u64,
    /// Coalesced substation reports sent to the masters.
    pub reports_sent: u64,
    /// Breaker commands actuated after `f+1` votes.
    pub commands_actuated: u64,
    /// Commands received that are still below the vote threshold.
    pub commands_pending: u64,
}

/// One device slot in the proxy's bank.
struct DeviceSlot {
    tag: String,
    breaker_count: u16,
    plc_addr: IpAddr,
    positions: Vec<bool>,
    currents: Vec<u16>,
    fresh: bool,
}

/// The substation proxy process.
pub struct SubstationProxy {
    cfg: SpireConfig,
    station: u32,
    devices: Vec<DeviceSlot>,
    /// The external Spines daemon.
    pub external: SpinesDaemon,
    key: KeyPair,
    client: u32,
    client_seq: u64,
    sweep_seq: u64,
    transaction: u16,
    sweep_interval: SimDuration,
    cursor: usize,
    outstanding: Option<Outstanding>,
    /// Key-theft compromise: while set, the proxy inverts every breaker
    /// position it reports — a lying aggregator for its own substation
    /// (it cannot speak for any other station's client identity).
    compromised: bool,
    /// Detect span picked up from a poll reply mid-sweep, carried until
    /// the coalesced report publishes (later devices in the sweep would
    /// otherwise overwrite the packet context and orphan the trace).
    sweep_trace: Option<obs::TraceCtx>,
    votes: crate::vote::VoteCollector<(String, u16, bool, u64)>,
    /// Counters.
    pub stats: SubstationStats,
    c_reports_sent: obs::Counter,
    c_commands_actuated: obs::Counter,
    obs: obs::ObsHub,
    trace_node: u32,
}

fn substation_counters(hub: &obs::ObsHub, station: u32) -> [obs::Counter; 2] {
    [
        hub.counter(&format!("substation.{station}.reports_sent")),
        hub.counter(&format!("substation.{station}.commands_actuated")),
    ]
}

impl SubstationProxy {
    /// Creates the proxy for substation `station`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` carries no substation topology.
    pub fn new(cfg: SpireConfig, station: u32) -> Self {
        let topo = *cfg.substations.as_ref().expect("regional config");
        let devices = (0..topo.devices_per)
            .map(|dev| {
                let scenario = topo.device_scenario(station, dev);
                let idx = cfg.device_index(station, dev);
                DeviceSlot {
                    tag: scenario.tag(),
                    breaker_count: scenario.topology().breaker_count() as u16,
                    plc_addr: cfg.device_lan_plc_ip(idx),
                    positions: Vec::new(),
                    currents: Vec::new(),
                    fresh: false,
                }
            })
            .collect();
        let mut external =
            SpinesDaemon::new(cfg.ext_daemon_of_proxy(station), cfg.external_spines());
        external.subscribe(cfg.proxy_group(station));
        let key = cfg.proxy_keypair(station);
        let client = cfg.client_of_proxy(station);
        let f = cfg.prime.f;
        let hub = obs::ObsHub::new();
        let [reports_sent, commands_actuated] = substation_counters(&hub, station);
        let trace_node = cfg.n() + station * (1 + topo.devices_per);
        SubstationProxy {
            cfg,
            station,
            devices,
            external,
            key,
            client,
            client_seq: 0,
            sweep_seq: 0,
            transaction: 0,
            sweep_interval: SimDuration::from_millis(100),
            cursor: 0,
            outstanding: None,
            compromised: false,
            sweep_trace: None,
            votes: crate::vote::VoteCollector::new(f + 1),
            stats: SubstationStats::default(),
            c_reports_sent: reports_sent,
            c_commands_actuated: commands_actuated,
            obs: hub,
            trace_node,
        }
    }

    /// Joins the shared deployment hub.
    pub fn attach_obs(&mut self, hub: &obs::ObsHub) {
        let [reports_sent, commands_actuated] = substation_counters(hub, self.station);
        reports_sent.add(self.c_reports_sent.get());
        commands_actuated.add(self.c_commands_actuated.get());
        self.external
            .attach_obs(hub, &format!("spines.ext.sub{}", self.station));
        self.c_reports_sent = reports_sent;
        self.c_commands_actuated = commands_actuated;
        self.obs = hub.clone();
    }

    /// This proxy's substation index.
    pub fn station(&self) -> u32 {
        self.station
    }

    /// The deployment configuration this proxy was built from.
    pub fn config(&self) -> &SpireConfig {
        &self.cfg
    }

    /// Marks (or clears) this proxy as compromised via client key theft:
    /// its coalesced reports lie about every breaker position in its
    /// substation. The blast radius stays local — it cannot forge any
    /// other substation's reports, and actuation still needs `f+1`
    /// replica votes.
    pub fn set_compromised(&mut self, compromised: bool) {
        self.compromised = compromised;
    }

    /// Whether the compromise flag is set.
    pub fn compromised(&self) -> bool {
        self.compromised
    }

    fn send_modbus(&mut self, ctx: &mut Context<'_>, dst: IpAddr, req: Request) {
        self.transaction = self.transaction.wrapping_add(1);
        let frame = TcpFrame::new(self.transaction, 1, req.encode());
        let pkt = Packet::udp(
            ctx.ip(1),
            dst,
            SUBSTATION_MODBUS_PORT,
            PLC_MODBUS_PORT,
            Bytes::from(frame.encode()),
        );
        ctx.send(1, pkt);
    }

    fn flush_sends(ctx: &mut Context<'_>, sends: Vec<(IpAddr, Bytes)>) {
        for (addr, bytes) in sends {
            let pkt = Packet::udp(
                ctx.ip(0),
                addr,
                EXTERNAL_SPINES_PORT,
                EXTERNAL_SPINES_PORT,
                bytes,
            );
            ctx.send(0, pkt);
        }
    }

    fn poll_cursor_device(&mut self, ctx: &mut Context<'_>) {
        let (addr, count) = {
            let d = &self.devices[self.cursor];
            (d.plc_addr, d.breaker_count)
        };
        self.outstanding = Some(Outstanding::Positions);
        self.send_modbus(ctx, addr, Request::ReadDiscreteInputs { address: 0, count });
    }

    fn publish_report(&mut self, ctx: &mut Context<'_>) {
        self.sweep_seq += 1;
        self.stats.sweeps_completed += 1;
        let lying = self.compromised;
        let devices: Vec<DeviceReport> = self
            .devices
            .iter()
            .filter(|d| d.fresh)
            .map(|d| DeviceReport {
                scenario: d.tag.clone(),
                poll_seq: self.sweep_seq,
                positions: if lying {
                    d.positions.iter().map(|&p| !p).collect()
                } else {
                    d.positions.clone()
                },
                currents: d.currents.clone(),
            })
            .collect();
        if devices.is_empty() {
            return;
        }
        obs::prof::charge_msg("substation;io", 1, 0);
        let parent = self.sweep_trace.take().or_else(|| ctx.trace());
        let publish = self
            .obs
            .start_span(parent, obs::Stage::Publish, self.trace_node);
        if publish.is_some() {
            ctx.set_trace(publish);
        }
        let scada_update = ScadaUpdate::SubstationReport {
            station: self.station,
            devices,
        };
        self.client_seq += 1;
        let update = Update::new(self.client, self.client_seq, scada_update.to_wire());
        let sig = self.key.sign(&update.to_wire());
        let msg = ExternalMsg::ClientUpdate(SignedUpdate { update, sig });
        let sends = self
            .external
            .multicast(crate::config::GROUP_MASTERS, 1, msg.to_wire());
        Self::flush_sends(ctx, sends);
        self.obs.end_span(publish);
        self.stats.reports_sent += 1;
        self.c_reports_sent.inc();
    }

    fn drain_deliveries(&mut self, ctx: &mut Context<'_>) {
        for delivery in self.external.take_deliveries() {
            let Ok(msg) = ExternalMsg::from_wire(&delivery.payload) else {
                continue;
            };
            let ExternalMsg::PlcCommand {
                replica,
                scenario,
                breaker,
                close,
                exec_seq,
            } = msg
            else {
                continue;
            };
            let Some(slot) = self.devices.iter().position(|d| d.tag == scenario) else {
                continue;
            };
            if breaker >= self.devices[slot].breaker_count {
                continue;
            }
            let key = (scenario, breaker, close, exec_seq);
            if self.votes.vote(key, replica) {
                self.stats.commands_actuated += 1;
                self.c_commands_actuated.inc();
                let deliver =
                    self.obs
                        .instant_span(ctx.trace(), obs::Stage::Deliver, self.trace_node);
                if deliver.is_some() {
                    ctx.set_trace(deliver);
                }
                let addr = self.devices[slot].plc_addr;
                self.send_modbus(
                    ctx,
                    addr,
                    Request::WriteSingleCoil {
                        address: breaker,
                        value: close,
                    },
                );
            } else {
                self.stats.commands_pending += 1;
            }
        }
    }
}

impl Process for SubstationProxy {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(EXTERNAL_SPINES_PORT);
        ctx.listen(SUBSTATION_MODBUS_PORT);
        self.external
            .set_seq_base(crate::replica_host::restart_seq_base(ctx));
        ctx.set_timer(self.sweep_interval, SWEEP_TIMER);
        ctx.log(format!(
            "substation-proxy {} online ({} devices)",
            self.station,
            self.devices.len()
        ));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer != SWEEP_TIMER {
            return;
        }
        ctx.set_timer(self.sweep_interval, SWEEP_TIMER);
        if self.outstanding.is_some() {
            // A sweep is still in flight (slow LAN or lost reply); let it
            // finish rather than interleaving two sweeps.
            return;
        }
        self.cursor = 0;
        self.poll_cursor_device(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.dst_port == EXTERNAL_SPINES_PORT {
            if let Some(hop) = self.external.trace_hop(ctx.trace(), self.trace_node) {
                ctx.set_trace(Some(hop));
            }
            let sends = self.external.on_wire(pkt.src_ip, &pkt.payload);
            Self::flush_sends(ctx, sends);
            self.drain_deliveries(ctx);
            return;
        }
        if pkt.dst_port != SUBSTATION_MODBUS_PORT {
            return;
        }
        if self.cursor >= self.devices.len() || pkt.src_ip != self.devices[self.cursor].plc_addr {
            return; // stray reply or write acknowledgement
        }
        if let Some(detect) = ctx.trace() {
            // A positions reply observed a physical flip: hold its Detect
            // span until this sweep's report publishes.
            self.sweep_trace = Some(detect);
        }
        let Some(frame) = TcpFrame::decode(&pkt.payload) else {
            return;
        };
        let count = self.devices[self.cursor].breaker_count;
        match self.outstanding {
            Some(Outstanding::Positions) => {
                let req = Request::ReadDiscreteInputs { address: 0, count };
                if let Some(Response::Bits { values, .. }) = Response::decode(&frame.pdu, &req) {
                    self.devices[self.cursor].positions = values;
                    self.outstanding = Some(Outstanding::Currents);
                    let addr = self.devices[self.cursor].plc_addr;
                    self.send_modbus(ctx, addr, Request::ReadInputRegisters { address: 0, count });
                }
            }
            Some(Outstanding::Currents) => {
                let req = Request::ReadInputRegisters { address: 0, count };
                if let Some(Response::Registers { values, .. }) = Response::decode(&frame.pdu, &req)
                {
                    self.devices[self.cursor].currents = values;
                    self.devices[self.cursor].fresh = true;
                    self.stats.device_polls += 1;
                    self.outstanding = None;
                    self.cursor += 1;
                    if self.cursor < self.devices.len() {
                        self.poll_cursor_device(ctx);
                    } else {
                        // Bank swept: coalesce into one ordered update.
                        self.publish_report(ctx);
                    }
                }
            }
            None => {}
        }
    }
}

impl std::fmt::Debug for SubstationProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubstationProxy")
            .field("station", &self.station)
            .field("devices", &self.devices.len())
            .field("compromised", &self.compromised)
            .field("stats", &self.stats)
            .finish()
    }
}
