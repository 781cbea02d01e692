//! The PLC/RTU proxy (§II, §III-B).
//!
//! "To connect existing PLCs and RTUs to the network, we use a proxy that
//! limits their network attack surface. Their typical, insecure industrial
//! communication protocols ... are used only on the direct connection
//! between the PLC or RTU and its proxy, which, ideally, can simply be a
//! wire. The proxy communicates with the rest of the system over the
//! secure and intrusion-tolerant Spines network."
//!
//! Interface 0 faces the external Spines network; interface 1 is the
//! direct cable to the device. Inbound actuation requires `f+1` matching
//! commands from distinct replicas.

use bytes::Bytes;
use itcrypto::keys::KeyPair;
use modbus::{Request, Response, TcpFrame};
use plc::emulator::PLC_MODBUS_PORT;
use plc::topology::Scenario;
use prime::types::{SignedUpdate, Update};
use scada::updates::ScadaUpdate;
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::{SimDuration, SimTime};
use simnet::types::{IpAddr, Port};
use simnet::wire::Wire;
use spines::daemon::SpinesDaemon;

use crate::config::{SpireConfig, EXTERNAL_SPINES_PORT};
use crate::messages::ExternalMsg;

const POLL_TIMER: u64 = 1;
/// The proxy's Modbus client port on the cable.
pub const PROXY_MODBUS_PORT: Port = Port(8150);

/// Outstanding Modbus request kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outstanding {
    Positions,
    Currents,
}

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyStats {
    /// Poll round-trips completed.
    pub polls_completed: u64,
    /// RTU status updates sent to the masters.
    pub updates_sent: u64,
    /// Breaker commands actuated after `f+1` votes.
    pub commands_actuated: u64,
    /// Commands received that are still below the vote threshold.
    pub commands_pending: u64,
    /// Status updates suppressed by an active rate limit.
    pub updates_throttled: u64,
}

/// The PLC proxy process.
pub struct PlcProxy {
    cfg: SpireConfig,
    index: u32,
    scenario: Scenario,
    breaker_count: u16,
    plc_addr: IpAddr,
    /// The external Spines daemon.
    pub external: SpinesDaemon,
    key: KeyPair,
    client: u32,
    client_seq: u64,
    poll_seq: u64,
    transaction: u16,
    poll_interval: SimDuration,
    /// Send a status update every poll (true) or only on change/heartbeat.
    pub verbose_updates: bool,
    /// Response-controller throttle: minimum spacing between status
    /// updates. `None` (default) disables the limit entirely.
    update_min_interval: Option<SimDuration>,
    /// When the last status update went out (for throttle spacing).
    last_update_at: SimTime,
    outstanding: Option<Outstanding>,
    positions: Vec<bool>,
    currents: Vec<u16>,
    last_sent_positions: Vec<bool>,
    polls_since_update: u32,
    votes: crate::vote::VoteCollector<(String, u16, bool, u64)>,
    /// Counters.
    pub stats: ProxyStats,
    c_updates_sent: obs::Counter,
    c_commands_actuated: obs::Counter,
    obs: obs::ObsHub,
    /// Simulation node id used to label trace spans (derived from the
    /// deterministic node-creation order in `deploy::build`).
    trace_node: u32,
}

fn proxy_counters(hub: &obs::ObsHub, index: u32) -> [obs::Counter; 2] {
    [
        hub.counter(&format!("proxy.{index}.updates_sent")),
        hub.counter(&format!("proxy.{index}.commands_actuated")),
    ]
}

impl PlcProxy {
    /// Creates proxy `index` for its configured scenario.
    pub fn new(cfg: SpireConfig, index: u32) -> Self {
        let assignment = cfg
            .proxies
            .iter()
            .find(|p| p.index == index)
            .expect("proxy in config");
        let scenario = assignment.scenario;
        let breaker_count = scenario.topology().breaker_count() as u16;
        let mut external = SpinesDaemon::new(cfg.ext_daemon_of_proxy(index), cfg.external_spines());
        external.subscribe(cfg.proxy_group(index));
        let key = cfg.proxy_keypair(index);
        let client = cfg.client_of_proxy(index);
        let plc_addr = cfg.plc_cable_ip(index);
        let f = cfg.prime.f;
        let hub = obs::ObsHub::new();
        let [updates_sent, commands_actuated] = proxy_counters(&hub, index);
        let trace_node = cfg.n() + 2 * index;
        PlcProxy {
            cfg,
            index,
            scenario,
            breaker_count,
            plc_addr,
            external,
            key,
            client,
            client_seq: 0,
            poll_seq: 0,
            transaction: 0,
            poll_interval: SimDuration::from_millis(100),
            verbose_updates: false,
            update_min_interval: None,
            last_update_at: SimTime::ZERO,
            outstanding: None,
            positions: Vec::new(),
            currents: Vec::new(),
            last_sent_positions: Vec::new(),
            polls_since_update: 0,
            votes: crate::vote::VoteCollector::new(f + 1),
            stats: ProxyStats::default(),
            c_updates_sent: updates_sent,
            c_commands_actuated: commands_actuated,
            obs: hub,
            trace_node,
        }
    }

    /// Joins the shared deployment hub, carrying over any counts
    /// accumulated while detached.
    pub fn attach_obs(&mut self, hub: &obs::ObsHub) {
        let [updates_sent, commands_actuated] = proxy_counters(hub, self.index);
        updates_sent.add(self.c_updates_sent.get());
        commands_actuated.add(self.c_commands_actuated.get());
        self.external
            .attach_obs(hub, &format!("spines.ext.proxy{}", self.index));
        self.c_updates_sent = updates_sent;
        self.c_commands_actuated = commands_actuated;
        self.obs = hub.clone();
    }

    /// The proxied scenario.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Proxy index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The deployment configuration this proxy was built from.
    pub fn config(&self) -> &SpireConfig {
        &self.cfg
    }

    /// Sets the poll cadence.
    pub fn set_poll_interval(&mut self, interval: SimDuration) {
        self.poll_interval = interval;
    }

    /// Applies (or with `None` lifts) a status-update rate limit: while
    /// set, at most one update is multicast per `min_interval`, and
    /// suppressed updates count in `stats.updates_throttled`. This is the
    /// response controller's flooding actuator — polling of the field
    /// device continues untouched, only the overlay-facing update rate is
    /// capped, so a flooding (or flooded) proxy cannot saturate the
    /// replication path.
    pub fn set_update_rate_limit(&mut self, min_interval: Option<SimDuration>) {
        self.update_min_interval = min_interval;
    }

    fn send_modbus(&mut self, ctx: &mut Context<'_>, req: Request) {
        self.transaction = self.transaction.wrapping_add(1);
        let frame = TcpFrame::new(self.transaction, 1, req.encode());
        let pkt = Packet::udp(
            ctx.ip(1),
            self.plc_addr,
            PROXY_MODBUS_PORT,
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

    fn publish_status(&mut self, ctx: &mut Context<'_>) {
        self.poll_seq += 1;
        self.stats.polls_completed += 1;
        obs::prof::charge_msg("proxy;io", 1, 0);
        self.polls_since_update += 1;
        let changed = self.positions != self.last_sent_positions;
        // Steady heartbeat every 10 polls keeps MANA's baseline regular
        // and lets the masters detect a dead proxy.
        if !self.verbose_updates && !changed && self.polls_since_update < 10 {
            return;
        }
        if let Some(min) = self.update_min_interval {
            if ctx.now().since(self.last_update_at) < min {
                self.stats.updates_throttled += 1;
                return;
            }
        }
        self.last_update_at = ctx.now();
        self.polls_since_update = 0;
        self.last_sent_positions = self.positions.clone();
        // The proxy turns field state into a signed client update here;
        // the span covers signing plus the first overlay transmission.
        let publish = self
            .obs
            .start_span(ctx.trace(), obs::Stage::Publish, self.trace_node);
        if publish.is_some() {
            ctx.set_trace(publish);
        }
        let scada_update = ScadaUpdate::RtuStatus {
            scenario: self.scenario.tag(),
            poll_seq: self.poll_seq,
            positions: self.positions.clone(),
            currents: self.currents.clone(),
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
        self.stats.updates_sent += 1;
        self.c_updates_sent.inc();
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
            if scenario != self.scenario.tag() || breaker >= self.breaker_count {
                continue;
            }
            let key = (scenario, breaker, close, exec_seq);
            if self.votes.vote(key, replica) {
                self.stats.commands_actuated += 1;
                self.c_commands_actuated.inc();
                // The f+1-th matching replica command releases the
                // actuation; the winning vote's context parents it.
                let deliver =
                    self.obs
                        .instant_span(ctx.trace(), obs::Stage::Deliver, self.trace_node);
                if deliver.is_some() {
                    ctx.set_trace(deliver);
                }
                self.send_modbus(
                    ctx,
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

impl Process for PlcProxy {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(EXTERNAL_SPINES_PORT);
        ctx.listen(PROXY_MODBUS_PORT);
        self.external
            .set_seq_base(crate::replica_host::restart_seq_base(ctx));
        ctx.set_timer(self.poll_interval, POLL_TIMER);
        ctx.log(format!(
            "plc-proxy {} online ({})",
            self.index,
            self.scenario.tag()
        ));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer != POLL_TIMER {
            return;
        }
        // Start a poll round: positions first, currents on reply.
        self.outstanding = Some(Outstanding::Positions);
        self.send_modbus(
            ctx,
            Request::ReadDiscreteInputs {
                address: 0,
                count: self.breaker_count,
            },
        );
        ctx.set_timer(self.poll_interval, POLL_TIMER);
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
        if pkt.dst_port != PROXY_MODBUS_PORT || pkt.src_ip != self.plc_addr {
            return;
        }
        let Some(frame) = TcpFrame::decode(&pkt.payload) else {
            return;
        };
        match self.outstanding {
            Some(Outstanding::Positions) => {
                let req = Request::ReadDiscreteInputs {
                    address: 0,
                    count: self.breaker_count,
                };
                if let Some(Response::Bits { values, .. }) = Response::decode(&frame.pdu, &req) {
                    self.positions = values;
                    self.outstanding = Some(Outstanding::Currents);
                    self.send_modbus(
                        ctx,
                        Request::ReadInputRegisters {
                            address: 0,
                            count: self.breaker_count,
                        },
                    );
                }
            }
            Some(Outstanding::Currents) => {
                let req = Request::ReadInputRegisters {
                    address: 0,
                    count: self.breaker_count,
                };
                if let Some(Response::Registers { values, .. }) = Response::decode(&frame.pdu, &req)
                {
                    self.currents = values;
                    self.outstanding = None;
                    self.publish_status(ctx);
                }
            }
            None => {} // write acknowledgements and stray replies
        }
    }
}

impl std::fmt::Debug for PlcProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlcProxy")
            .field("index", &self.index)
            .field("scenario", &self.scenario.tag())
            .field("stats", &self.stats)
            .finish()
    }
}
