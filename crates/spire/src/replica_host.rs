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
    /// The deployment's observability hub.
    obs: obs::ObsHub,
    /// Ticks elapsed since start, for flight-recorder snapshot cadence.
    health_ticks: u64,
}

impl ReplicaHost {
    /// Creates replica host `id` from the deployment configuration, on
    /// the deployment's hub: the Prime replica and both Spines daemons
    /// register their metrics there under deployment-wide names.
    pub fn new(cfg: SpireConfig, id: u32, hub: &obs::ObsHub) -> Self {
        let mut internal =
            SpinesDaemon::with_hub(id, cfg.internal_spines(), hub, &format!("spines.int.r{id}"));
        internal.subscribe(GROUP_PRIME);
        let mut external = SpinesDaemon::with_hub(
            cfg.ext_daemon_of_replica(id),
            cfg.external_spines(),
            hub,
            &format!("spines.ext.r{id}"),
        );
        external.subscribe(GROUP_MASTERS);
        let replica = Replica::new(
            ReplicaId(id),
            cfg.prime,
            cfg.replica_keypair(id),
            cfg.registry(),
            ScadaApp::new(),
            hub,
        );
        ReplicaHost {
            cfg,
            id,
            internal,
            external,
            replica,
            pending_recovery: false,
            obs: hub.clone(),
            health_ticks: 0,
        }
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
                    obs::prof::charge_msg("scada;apply", 1, 0);
                    // Outgoing application messages (commands/frames)
                    // produced by this execution inherit its context.
                    if trace.is_some() {
                        ctx.set_trace(trace);
                    }
                }
                OutEvent::StateTransferInstalled { .. } => {
                    self.obs
                        .journal(obs::Event::RecoveryEnd { replica: self.id });
                }
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
                    let dst = self.cfg.ext_daemon_of_proxy(proxy);
                    let sends = self.external.unicast(dst, 1, msg.to_wire());
                    edge::transmit(&self.external, ctx, 1, sends);
                }
                MasterAction::HmiFrame {
                    scenario,
                    positions,
                    currents,
                    exec_seq,
                } => {
                    for h in 0..self.cfg.hmis {
                        let msg = ExternalMsg::HmiFrame {
                            replica: self.id,
                            scenario: scenario.clone(),
                            positions: positions.clone(),
                            currents: currents.clone(),
                            exec_seq,
                        };
                        let dst = self.cfg.ext_daemon_of_hmi(h);
                        let sends = self.external.unicast(dst, 1, msg.to_wire());
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
