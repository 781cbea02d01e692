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

use scada::updates::{DeviceReport, ScadaUpdate};
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::SimDuration;
use simnet::types::{IpAddr, Port};
use spines::daemon::SpinesDaemon;

use crate::config::{SpireConfig, EXTERNAL_SPINES_PORT};
use crate::edge::{self, CommandGate, FieldBus, MasterClient, Polled};

const SWEEP_TIMER: u64 = 1;
/// The substation proxy's Modbus client port on the station LAN.
pub const SUBSTATION_MODBUS_PORT: Port = Port(8160);

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
    station: u32,
    devices: Vec<DeviceSlot>,
    /// The external Spines daemon.
    pub external: SpinesDaemon,
    master: MasterClient,
    bus: FieldBus,
    gate: CommandGate,
    sweep_seq: u64,
    sweep_interval: SimDuration,
    /// The bank device being read; `devices.len()` between sweeps.
    cursor: usize,
    /// Key-theft compromise: while set, the proxy inverts every breaker
    /// position it reports — a lying aggregator for its own substation
    /// (it cannot speak for any other station's client identity).
    compromised: bool,
    /// Detect span picked up from a poll reply mid-sweep, carried until
    /// the coalesced report publishes (later devices in the sweep would
    /// otherwise overwrite the packet context and orphan the trace).
    sweep_trace: Option<obs::TraceCtx>,
    /// Counters.
    pub stats: SubstationStats,
    c_reports_sent: obs::Counter,
    c_commands_actuated: obs::Counter,
    obs: obs::ObsHub,
}

impl SubstationProxy {
    /// Creates the proxy for substation `station`, registering its
    /// counters and its Spines daemon's on the deployment's `hub`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` carries no substation topology.
    pub fn new(cfg: SpireConfig, station: u32, hub: &obs::ObsHub) -> Self {
        let topo = *cfg.substations.as_ref().expect("regional config");
        let devices: Vec<DeviceSlot> = (0..topo.devices_per)
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
        let external = SpinesDaemon::with_hub(
            cfg.ext_daemon_of_proxy(station),
            cfg.external_spines(),
            hub,
            &format!("spines.ext.sub{station}"),
        );
        let gated = devices
            .iter()
            .map(|d| (d.tag.clone(), d.breaker_count, d.plc_addr));
        SubstationProxy {
            station,
            external,
            master: MasterClient::new(cfg.proxy_keypair(station), cfg.client_of_proxy(station)),
            bus: FieldBus::new(SUBSTATION_MODBUS_PORT),
            gate: CommandGate::new(cfg.prime.f, gated.collect()),
            sweep_seq: 0,
            sweep_interval: SimDuration::from_millis(100),
            cursor: devices.len(),
            devices,
            compromised: false,
            sweep_trace: None,
            stats: SubstationStats::default(),
            c_reports_sent: hub.counter(&format!("substation.{station}.reports_sent")),
            c_commands_actuated: hub.counter(&format!("substation.{station}.commands_actuated")),
            obs: hub.clone(),
        }
    }

    /// Marks (or clears) this proxy as compromised via client key theft:
    /// its coalesced reports lie about every breaker position in its
    /// substation. The blast radius stays local — it cannot forge any
    /// other substation's reports, and actuation still needs `f+1`
    /// replica votes.
    pub fn set_compromised(&mut self, compromised: bool) {
        self.compromised = compromised;
    }

    fn poll_cursor_device(&mut self, ctx: &mut Context<'_>) {
        let device = &self.devices[self.cursor];
        self.bus.poll(ctx, device.plc_addr, device.breaker_count);
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
            .start_span(parent, obs::Stage::Publish, ctx.node().0);
        if publish.is_some() {
            ctx.set_trace(publish);
        }
        let scada_update = ScadaUpdate::SubstationReport {
            station: self.station,
            devices,
        };
        self.master.submit(&mut self.external, ctx, &scada_update);
        self.obs.end_span(publish);
        self.stats.reports_sent += 1;
        self.c_reports_sent.inc();
    }
}

impl Process for SubstationProxy {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        edge::start(&mut self.external, ctx);
        ctx.listen(SUBSTATION_MODBUS_PORT);
        ctx.set_timer(self.sweep_interval, SWEEP_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer != SWEEP_TIMER {
            return;
        }
        ctx.set_timer(self.sweep_interval, SWEEP_TIMER);
        if self.bus.still_moving() {
            // A slow LAN: let the sweep finish rather than interleaving
            // two. One that no reply has advanced since the previous tick
            // lost a reply and would wait for ever, so it starts over.
            return;
        }
        self.cursor = 0;
        self.poll_cursor_device(ctx);
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
            return;
        }
        let polled = self.bus.on_reply(ctx, &pkt);
        if polled == Polled::Ignored {
            return; // stray reply or write acknowledgement
        }
        if let Some(detect) = ctx.trace() {
            // A positions reply observed a physical flip: hold its Detect
            // span until this sweep's report publishes.
            self.sweep_trace = Some(detect);
        }
        if let Polled::Done(positions, currents) = polled {
            let device = &mut self.devices[self.cursor];
            device.positions = positions;
            device.currents = currents;
            device.fresh = true;
            self.stats.device_polls += 1;
            self.cursor += 1;
            if self.cursor < self.devices.len() {
                self.poll_cursor_device(ctx);
            } else {
                // Bank swept: coalesce into one ordered update.
                self.publish_report(ctx);
            }
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
