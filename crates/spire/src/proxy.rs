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

use plc::topology::Scenario;
use scada::updates::ScadaUpdate;
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::{SimDuration, SimTime};
use simnet::types::{IpAddr, Port};
use spines::daemon::SpinesDaemon;

use crate::config::{SpireConfig, EXTERNAL_SPINES_PORT};
use crate::edge::{self, CommandGate, FieldBus, MasterClient, Polled};

const POLL_TIMER: u64 = 1;
/// The proxy's Modbus client port on the cable.
pub const PROXY_MODBUS_PORT: Port = Port(8150);

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
    index: u32,
    scenario: Scenario,
    breaker_count: u16,
    plc_addr: IpAddr,
    /// The external Spines daemon.
    pub external: SpinesDaemon,
    master: MasterClient,
    bus: FieldBus,
    gate: CommandGate,
    poll_seq: u64,
    poll_interval: SimDuration,
    /// Send a status update every poll (true) or only on change/heartbeat.
    pub verbose_updates: bool,
    /// Response-controller throttle: minimum spacing between status
    /// updates. `None` (default) disables the limit entirely.
    update_min_interval: Option<SimDuration>,
    /// When the last status update went out (for throttle spacing).
    last_update_at: SimTime,
    positions: Vec<bool>,
    currents: Vec<u16>,
    last_sent_positions: Vec<bool>,
    polls_since_update: u32,
    /// Counters.
    pub stats: ProxyStats,
    c_updates_sent: obs::Counter,
    c_commands_actuated: obs::Counter,
    obs: obs::ObsHub,
}

impl PlcProxy {
    /// Creates proxy `index` for its configured scenario, registering its
    /// counters and its Spines daemon's on the deployment's `hub`.
    pub fn new(cfg: SpireConfig, index: u32, hub: &obs::ObsHub) -> Self {
        let assignment = cfg
            .proxies
            .iter()
            .find(|p| p.index == index)
            .expect("proxy in config");
        let scenario = assignment.scenario;
        let breaker_count = scenario.topology().breaker_count() as u16;
        let external = SpinesDaemon::with_hub(
            cfg.ext_daemon_of_proxy(index),
            cfg.external_spines(),
            hub,
            &format!("spines.ext.proxy{index}"),
        );
        let plc_addr = cfg.plc_cable_ip(index);
        PlcProxy {
            index,
            scenario,
            breaker_count,
            plc_addr,
            external,
            master: MasterClient::new(cfg.proxy_keypair(index), cfg.client_of_proxy(index)),
            bus: FieldBus::new(PROXY_MODBUS_PORT),
            gate: CommandGate::new(cfg.prime.f, vec![(scenario.tag(), breaker_count, plc_addr)]),
            poll_seq: 0,
            poll_interval: SimDuration::from_millis(100),
            verbose_updates: false,
            update_min_interval: None,
            last_update_at: SimTime::ZERO,
            positions: Vec::new(),
            currents: Vec::new(),
            last_sent_positions: Vec::new(),
            polls_since_update: 0,
            stats: ProxyStats::default(),
            c_updates_sent: hub.counter(&format!("proxy.{index}.updates_sent")),
            c_commands_actuated: hub.counter(&format!("proxy.{index}.commands_actuated")),
            obs: hub.clone(),
        }
    }

    /// The proxied scenario.
    pub fn scenario(&self) -> Scenario {
        self.scenario
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
            .start_span(ctx.trace(), obs::Stage::Publish, ctx.node().0);
        if publish.is_some() {
            ctx.set_trace(publish);
        }
        let scada_update = ScadaUpdate::RtuStatus {
            scenario: self.scenario.tag(),
            poll_seq: self.poll_seq,
            positions: self.positions.clone(),
            currents: self.currents.clone(),
        };
        self.master.submit(&mut self.external, ctx, &scada_update);
        self.obs.end_span(publish);
        self.stats.updates_sent += 1;
        self.c_updates_sent.inc();
    }
}

impl Process for PlcProxy {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        edge::start(&mut self.external, ctx);
        ctx.listen(PROXY_MODBUS_PORT);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer != POLL_TIMER {
            return;
        }
        // Every tick starts a poll round afresh, so a lost reply costs
        // one round.
        self.bus.poll(ctx, self.plc_addr, self.breaker_count);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.dst_port == EXTERNAL_SPINES_PORT {
            edge::receive(&mut self.external, ctx, 0, &pkt);
            let (actuated, pending) =
                self.gate
                    .drain(&mut self.external, &mut self.bus, &self.obs, ctx);
            self.stats.commands_actuated += actuated;
            self.c_commands_actuated.add(actuated);
            self.stats.commands_pending += pending;
        } else if let Polled::Done(positions, currents) = self.bus.on_reply(ctx, &pkt) {
            self.positions = positions;
            self.currents = currents;
            self.publish_status(ctx);
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
