//! The HMI host process: vote-gated display plus the red-team exercise's
//! breaker-cycle update generator.
//!
//! §IV-A: "we were also required to develop an automatic update generation
//! tool for Spire that would cycle through the breakers, flipping each
//! periodically in a predetermined cycle that the red team would attempt
//! to disrupt." [`CycleConfig`] is that tool.

use plc::topology::Scenario;
use scada::hmi::{Hmi, HmiUpdate};
use scada::updates::ScadaUpdate;
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::time::SimDuration;
use simnet::wire::Wire;
use spines::daemon::SpinesDaemon;

use crate::config::{SpireConfig, EXTERNAL_SPINES_PORT};
use crate::edge::{self, MasterClient};
use crate::messages::ExternalMsg;

const CYCLE_TIMER: u64 = 1;

/// The predetermined breaker-flip cycle.
#[derive(Clone, Debug)]
pub struct CycleConfig {
    /// Scenario whose breakers are cycled.
    pub scenario: Scenario,
    /// Time between flips.
    pub period: SimDuration,
    /// Stop after this many flips (0 = run forever).
    pub max_flips: u64,
}

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct HmiStats {
    /// Supervisory commands issued.
    pub commands_sent: u64,
    /// Display frames applied after `f+1` votes.
    pub frames_applied: u64,
    /// Frames received but still below the vote threshold.
    pub frames_pending: u64,
}

/// One HMI location.
pub struct HmiHost {
    index: u32,
    /// The external Spines daemon.
    pub external: SpinesDaemon,
    master: MasterClient,
    /// The display state (rendering, reaction-time log, sensor box).
    pub hmi: Hmi,
    votes: crate::vote::VoteCollector<(String, Vec<bool>, Vec<u16>, u64)>,
    cycle: Option<CycleConfig>,
    cycle_breaker: u16,
    cycle_state: Vec<bool>,
    /// Counters.
    pub stats: HmiStats,
    /// Observability hub (detached until [`HmiHost::attach_obs`]).
    obs: obs::ObsHub,
    c_frames_applied: obs::Counter,
    c_frames_pending: obs::Counter,
    c_commands_sent: obs::Counter,
}

fn hmi_counters(hub: &obs::ObsHub, index: u32) -> [obs::Counter; 3] {
    [
        hub.counter(&format!("hmi.{index}.frames_applied")),
        hub.counter(&format!("hmi.{index}.frames_pending")),
        hub.counter(&format!("hmi.{index}.commands_sent")),
    ]
}

impl HmiHost {
    /// Creates HMI host `index`.
    pub fn new(cfg: SpireConfig, index: u32) -> Self {
        let mut external = SpinesDaemon::new(cfg.ext_daemon_of_hmi(index), cfg.external_spines());
        external.subscribe(cfg.hmi_group(index));
        let hub = obs::ObsHub::new();
        let [frames_applied, frames_pending, commands_sent] = hmi_counters(&hub, index);
        let mut host = HmiHost {
            index,
            external,
            master: MasterClient::new(cfg.hmi_keypair(index), cfg.client_of_hmi(index)),
            hmi: Hmi::new(),
            votes: crate::vote::VoteCollector::new(cfg.prime.f + 1),
            cycle: None,
            cycle_breaker: 0,
            cycle_state: Vec::new(),
            stats: HmiStats::default(),
            obs: hub,
            c_frames_applied: frames_applied,
            c_frames_pending: frames_pending,
            c_commands_sent: commands_sent,
        };
        if index == 0 {
            if let Some((scenario, period, max_flips)) = cfg.cycle {
                host.set_cycle(CycleConfig {
                    scenario,
                    period,
                    max_flips,
                });
            }
        }
        host
    }

    /// Joins the shared deployment hub, carrying over any counts
    /// accumulated while detached.
    pub fn attach_obs(&mut self, hub: &obs::ObsHub) {
        let [frames_applied, frames_pending, commands_sent] = hmi_counters(hub, self.index);
        frames_applied.add(self.c_frames_applied.get());
        frames_pending.add(self.c_frames_pending.get());
        commands_sent.add(self.c_commands_sent.get());
        self.external
            .attach_obs(hub, &format!("spines.ext.hmi{}", self.index));
        self.obs = hub.clone();
        self.c_frames_applied = frames_applied;
        self.c_frames_pending = frames_pending;
        self.c_commands_sent = commands_sent;
    }

    /// Arms the breaker-cycle generator.
    pub fn set_cycle(&mut self, cycle: CycleConfig) {
        self.cycle_state = vec![true; cycle.scenario.topology().breaker_count()];
        self.cycle = Some(cycle);
    }

    /// Issues one supervisory command (operator action or cycle step).
    pub fn issue_command(
        &mut self,
        ctx: &mut Context<'_>,
        scenario: &str,
        breaker: u16,
        close: bool,
    ) {
        // A supervisory command roots a fresh trace: everything from
        // here to the breaker's mechanical actuation hangs off it.
        let root = self.obs.start_root(obs::Stage::Command, ctx.node().0);
        if root.is_some() {
            ctx.set_trace(root);
        }
        let scada_update = ScadaUpdate::HmiCommand {
            scenario: scenario.to_string(),
            breaker,
            close,
        };
        self.master.submit(&mut self.external, ctx, &scada_update);
        self.obs.end_span(root);
        self.stats.commands_sent += 1;
        self.c_commands_sent.inc();
    }

    fn cycle_step(&mut self, ctx: &mut Context<'_>) {
        let Some(cycle) = self.cycle.clone() else {
            return;
        };
        if cycle.max_flips > 0 && self.stats.commands_sent >= cycle.max_flips {
            return;
        }
        let breaker = self.cycle_breaker;
        let next_state = !self.cycle_state[breaker as usize];
        self.cycle_state[breaker as usize] = next_state;
        let tag = cycle.scenario.tag();
        self.issue_command(ctx, &tag, breaker, next_state);
        self.cycle_breaker = (self.cycle_breaker + 1) % self.cycle_state.len() as u16;
        ctx.set_timer(cycle.period, CYCLE_TIMER);
    }

    fn drain_deliveries(&mut self, ctx: &mut Context<'_>) {
        for delivery in self.external.take_deliveries() {
            let Ok(msg) = ExternalMsg::from_wire(&delivery.payload) else {
                continue;
            };
            let ExternalMsg::HmiFrame {
                replica,
                scenario,
                positions,
                currents,
                exec_seq,
            } = msg
            else {
                continue;
            };
            let key = (
                scenario.clone(),
                positions.clone(),
                currents.clone(),
                exec_seq,
            );
            if self.votes.vote(key, replica) {
                self.stats.frames_applied += 1;
                self.c_frames_applied.inc();
                self.obs.journal(obs::Event::FrameEmit {
                    hmi: self.index,
                    seq: exec_seq,
                });
                // The f+1-th matching frame releases the display update;
                // the winning vote's context parents the delivery.
                let deliver = self
                    .obs
                    .instant_span(ctx.trace(), obs::Stage::Deliver, ctx.node().0);
                let changed = self.hmi.apply(
                    HmiUpdate {
                        scenario,
                        positions,
                        currents,
                    },
                    ctx.now(),
                );
                if changed {
                    self.obs
                        .instant_span(deliver, obs::Stage::Render, ctx.node().0);
                }
            } else {
                self.stats.frames_pending += 1;
                self.c_frames_pending.inc();
            }
        }
    }
}

impl Process for HmiHost {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        edge::start(&mut self.external, ctx);
        if let Some(cycle) = &self.cycle {
            ctx.set_timer(cycle.period, CYCLE_TIMER);
        }
        ctx.log(format!("hmi {} online", self.index));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: u64) {
        if timer == CYCLE_TIMER {
            self.cycle_step(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.dst_port != EXTERNAL_SPINES_PORT {
            return;
        }
        edge::receive(&mut self.external, ctx, 0, &pkt);
        self.drain_deliveries(ctx);
    }
}

impl std::fmt::Debug for HmiHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmiHost")
            .field("index", &self.index)
            .field("stats", &self.stats)
            .finish()
    }
}
