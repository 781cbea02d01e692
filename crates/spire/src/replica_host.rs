//! The process hosting one SCADA-master replica: a Prime replica with the
//! [`scada::ScadaApp`] application, plus one Spines daemon per network.
//!
//! Interface 0 is on the isolated internal network (replication traffic
//! only); interface 1 is on the external network (client updates in,
//! vote-gated commands/frames out) — exactly Figure 2.

use prime::replica::{OutEvent, Replica, Timing};
use prime::types::ReplicaId;
use scada::master::{MasterAction, ScadaApp};
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::SimDuration;
use simnet::wire::Wire;
use spines::daemon::SpinesDaemon;
use spines::message::Destination;

use crate::config::{
    SpireConfig, EXTERNAL_SPINES_PORT, GROUP_MASTERS, GROUP_PRIME, INTERNAL_SPINES_PORT,
};
use crate::edge;
use crate::messages::ExternalMsg;

const TICK_TIMER: u64 = 1;
const TICK: SimDuration = SimDuration(10_000); // 10 ms

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Client updates submitted into Prime.
    pub updates_submitted: u64,
    /// Ordered updates executed locally.
    pub executed: u64,
    /// PLC commands emitted.
    pub plc_commands_sent: u64,
    /// HMI frames emitted.
    pub hmi_frames_sent: u64,
    /// View changes observed.
    pub view_changes: u64,
    /// Application-level state transfers performed.
    pub state_transfers: u64,
}

/// One SCADA-master replica host.
pub struct ReplicaHost {
    cfg: SpireConfig,
    id: u32,
    /// The internal-network Spines daemon (attackers stop/patch this).
    pub internal: SpinesDaemon,
    /// The external-network Spines daemon.
    pub external: SpinesDaemon,
    /// The Prime replica hosting the SCADA master.
    pub replica: Replica<ScadaApp>,
    /// When set, the next tick performs proactive recovery.
    pub pending_recovery: bool,
    /// Counters.
    pub stats: HostStats,
    /// Observability hub (detached until [`ReplicaHost::attach_obs`]).
    obs: obs::ObsHub,
    /// Ticks elapsed since start, for flight-recorder snapshot cadence.
    health_ticks: u64,
}

impl ReplicaHost {
    /// Creates replica host `id` from the deployment configuration.
    pub fn new(cfg: SpireConfig, id: u32) -> Self {
        let mut internal = SpinesDaemon::new(id, cfg.internal_spines());
        internal.subscribe(GROUP_PRIME);
        let mut external = SpinesDaemon::new(cfg.ext_daemon_of_replica(id), cfg.external_spines());
        external.subscribe(GROUP_MASTERS);
        let app = if cfg.substations.is_some() {
            ScadaApp::regional()
        } else {
            ScadaApp::new()
        };
        let replica = Replica::new(
            ReplicaId(id),
            cfg.prime,
            cfg.replica_keypair(id),
            cfg.registry(),
            app,
        );
        ReplicaHost {
            cfg,
            id,
            internal,
            external,
            replica,
            pending_recovery: false,
            stats: HostStats::default(),
            obs: obs::ObsHub::new(),
            health_ticks: 0,
        }
    }

    /// Joins the shared deployment hub: the Prime replica and both Spines
    /// daemons re-register their metrics under deployment-wide names.
    pub fn attach_obs(&mut self, hub: &obs::ObsHub) {
        self.replica.attach_obs(hub);
        self.internal
            .attach_obs(hub, &format!("spines.int.r{}", self.id));
        self.external
            .attach_obs(hub, &format!("spines.ext.r{}", self.id));
        self.obs = hub.clone();
    }

    /// Overrides Prime timing (tests tighten timeouts).
    pub fn set_timing(&mut self, timing: Timing) {
        self.replica.set_timing(timing);
    }

    /// Routes Prime out-events: protocol messages to the internal overlay,
    /// application actions to the external overlay.
    fn route_events(&mut self, ctx: &mut Context<'_>, events: Vec<OutEvent>) {
        for event in events {
            match event {
                OutEvent::Broadcast(env) => {
                    // Serialize-once: the envelope already carries the
                    // wire bytes from signing time.
                    let sends = self.internal.multicast(GROUP_PRIME, 1, env.wire);
                    edge::transmit(&self.internal, ctx, 0, sends);
                }
                OutEvent::Send(to, env) => {
                    let sends = self.internal.unicast(to.0, 1, env.wire);
                    edge::transmit(&self.internal, ctx, 0, sends);
                }
                OutEvent::Execute { trace, .. } => {
                    self.stats.executed += 1;
                    obs::prof::charge_msg("scada;apply", 1, 0);
                    // Outgoing application messages (commands/frames)
                    // produced by this execution inherit its context.
                    if trace.is_some() {
                        ctx.set_trace(trace);
                    }
                }
                OutEvent::ViewChanged { view } => {
                    self.stats.view_changes += 1;
                    ctx.log(format!("replica {} moved to view {view}", self.id));
                }
                OutEvent::StateTransferRequested => {
                    ctx.log(format!(
                        "replica {} requested app-level state transfer",
                        self.id
                    ));
                }
                OutEvent::StateTransferInstalled { exec_seq } => {
                    self.stats.state_transfers += 1;
                    self.obs
                        .journal(obs::Event::RecoveryEnd { replica: self.id });
                    ctx.log(format!(
                        "replica {} installed app state at exec {exec_seq}",
                        self.id
                    ));
                }
                OutEvent::CheckpointStable { .. } => {}
            }
        }
        // Ship application actions produced by executions.
        let actions = self.replica.app_mut().take_actions();
        for action in actions {
            match action {
                MasterAction::PlcCommand {
                    scenario,
                    breaker,
                    close,
                    exec_seq,
                } => {
                    self.stats.plc_commands_sent += 1;
                    let Some(proxy) = self.cfg.proxy_for_scenario_tag(&scenario) else {
                        continue;
                    };
                    let msg = ExternalMsg::PlcCommand {
                        replica: self.id,
                        scenario,
                        breaker,
                        close,
                        exec_seq,
                    };
                    let group = self.cfg.proxy_group(proxy);
                    let sends = self.external.multicast(group, 1, msg.to_wire());
                    edge::transmit(&self.external, ctx, 1, sends);
                }
                MasterAction::HmiFrame {
                    scenario,
                    positions,
                    currents,
                    exec_seq,
                } => {
                    self.stats.hmi_frames_sent += 1;
                    for h in 0..self.cfg.hmis {
                        let msg = ExternalMsg::HmiFrame {
                            replica: self.id,
                            scenario: scenario.clone(),
                            positions: positions.clone(),
                            currents: currents.clone(),
                            exec_seq,
                        };
                        let group = self.cfg.hmi_group(h);
                        let sends = self.external.multicast(group, 1, msg.to_wire());
                        edge::transmit(&self.external, ctx, 1, sends);
                    }
                }
            }
        }
    }

    fn drain_deliveries(&mut self, ctx: &mut Context<'_>) {
        // Internal: Prime protocol messages.
        for delivery in self.internal.take_deliveries() {
            if let Ok(msg) = prime::messages::SignedMsg::from_wire(&delivery.payload) {
                let events = self.replica.on_message(msg, ctx.now());
                self.route_events(ctx, events);
            }
        }
        // External: client updates.
        for delivery in self.external.take_deliveries() {
            if delivery.dst != Destination::Group(GROUP_MASTERS) {
                continue;
            }
            if let Ok(ExternalMsg::ClientUpdate(update)) = ExternalMsg::from_wire(&delivery.payload)
            {
                self.stats.updates_submitted += 1;
                self.replica.set_incoming_trace(ctx.trace());
                let events = self.replica.submit(update, ctx.now());
                self.route_events(ctx, events);
            }
        }
    }
}

impl Process for ReplicaHost {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        edge::start(&mut self.internal, ctx);
        edge::start(&mut self.external, ctx);
        ctx.set_timer(TICK, TICK_TIMER);
        ctx.log(format!("scada-master replica {} online", self.id));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer != TICK_TIMER {
            return;
        }
        if self.pending_recovery {
            self.pending_recovery = false;
            let events = self.replica.recover(ctx.now());
            self.route_events(ctx, events);
        }
        let events = self.replica.tick(ctx.now());
        self.route_events(ctx, events);
        self.drain_deliveries(ctx);
        let health_every = obs::prof::health_every();
        if health_every > 0 {
            self.health_ticks += 1;
            if self.health_ticks.is_multiple_of(health_every) {
                self.obs.journal(obs::Event::LinkHealth {
                    daemon: self.internal.id(),
                    link: 0,
                    depth: self.internal.forward_depth() as u32,
                });
                self.obs.journal(obs::Event::LinkHealth {
                    daemon: self.external.id(),
                    link: 1,
                    depth: self.external.forward_depth() as u32,
                });
            }
        }
        ctx.set_timer(TICK, TICK_TIMER);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.dst_port == INTERNAL_SPINES_PORT {
            let sends = self.internal.on_wire(pkt.src_ip, &pkt.payload);
            edge::transmit(&self.internal, ctx, 0, sends);
        } else if pkt.dst_port == EXTERNAL_SPINES_PORT {
            edge::receive(&mut self.external, ctx, 1, &pkt);
        }
        self.drain_deliveries(ctx);
    }
}

impl std::fmt::Debug for ReplicaHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHost")
            .field("id", &self.id)
            .field("exec", &self.replica.exec_seq())
            .field("view", &self.replica.view())
            .finish()
    }
}
