//! The chaos driver: executes a [`ChaosPlan`] against a live deployment.
//!
//! The driver owns three responsibilities during a soak:
//!
//! 1. **Injection and healing.** It steps the simulation, injects every
//!    scheduled fault when its time arrives, and heals it when its window
//!    ends — mapping each declarative [`Fault`] onto the concrete
//!    deployment surface (switch partitions, link specs, node up/down,
//!    replica Byzantine modes, the observability clock).
//! 2. **Journaling.** Every injection and heal lands in the observability
//!    journal as [`obs::Event::ChaosInject`] / [`ChaosHeal`], so the full
//!    fault timeline is folded into the run digest and a chaos soak is as
//!    replay-checkable as any other experiment.
//! 3. **Ground truth.** It periodically flips a breaker on the field PLC
//!    (the physical process keeps moving while the system is under
//!    attack), which is what makes the HMI-truth invariant meaningful.
//!
//! After every step it hands the deployment to the invariant checker,
//! which reads the fault state and ground truth from it.
//!
//! [`ChaosHeal`]: obs::Event::ChaosHeal

use std::collections::BTreeMap;

use prime::byzantine::ByzMode;
use simnet::link::{LinkId, LinkSpec};
use simnet::time::{SimDuration, SimTime};
use spire::deploy::Deployment;

use crate::invariants::InvariantChecker;
use crate::plan::{ChaosPlan, Fault, FaultKind, ScheduledFault};

/// A fault currently in force, with whatever must be restored at heal.
struct ActiveFault {
    heal_at: SimTime,
    fault: Fault,
    /// Original spec of a link the fault mutated (loss/latency windows).
    saved: Option<(LinkId, LinkSpec)>,
}

/// Executes a plan against a deployment, sampling an [`InvariantChecker`]
/// after every step.
pub struct ChaosDriver {
    plan: Vec<ScheduledFault>,
    next: usize,
    start: Option<SimTime>,
    active: Vec<ActiveFault>,
    injected: BTreeMap<FaultKind, u64>,
    /// Ground-truth breaker flip cadence.
    flip_interval: SimDuration,
    next_flip: Option<SimTime>,
    breaker_closed: bool,
}

impl ChaosDriver {
    /// Builds a driver for `plan`. Faults run in `at` order.
    pub fn new(plan: ChaosPlan) -> Self {
        let mut faults = plan.faults;
        faults.sort_by_key(|f| f.at.as_micros());
        ChaosDriver {
            plan: faults,
            next: 0,
            start: None,
            active: Vec::new(),
            injected: BTreeMap::new(),
            flip_interval: SimDuration::from_secs(2),
            next_flip: None,
            breaker_closed: true,
        }
    }

    /// Runs the soak for `dur`, stepping the deployment by `step` between
    /// injection/heal/ground-truth work and invariant samples.
    pub fn run_soak(
        &mut self,
        d: &mut Deployment,
        checker: &mut InvariantChecker,
        dur: SimDuration,
        step: SimDuration,
    ) {
        let start = *self.start.get_or_insert(d.now());
        if self.next_flip.is_none() {
            self.breaker_closed = d.plc(0).positions().first().copied().unwrap_or(true);
            self.next_flip = Some(d.now() + self.flip_interval);
        }
        let deadline = d.now() + dur;
        while d.now() < deadline {
            d.run_for(step);
            let now = d.now();
            self.heal_due(d, now);
            while self.next < self.plan.len() && start + self.plan[self.next].at <= now {
                let scheduled = self.plan[self.next].clone();
                self.next += 1;
                self.inject(d, scheduled, now);
            }
            if let Some(flip_at) = self.next_flip {
                if now >= flip_at {
                    self.flip_ground_truth(d, now);
                }
            }
            checker.observe(d);
        }
    }

    /// Heals every still-active fault immediately (end of soak). The
    /// checker sees the heals at its next sample; `_checker` is unused and
    /// stays because `benchmark/src/adapter.rs` calls this signature.
    pub fn heal_all(&mut self, d: &mut Deployment, _checker: &mut InvariantChecker) {
        for active in std::mem::take(&mut self.active) {
            self.heal(d, active);
        }
    }

    /// Quiescence: keep stepping and sampling invariants with no further
    /// injections or ground-truth flips, letting reconvergence complete.
    pub fn run_quiesce(
        &mut self,
        d: &mut Deployment,
        checker: &mut InvariantChecker,
        dur: SimDuration,
        step: SimDuration,
    ) {
        let deadline = d.now() + dur;
        while d.now() < deadline {
            d.run_for(step);
            checker.observe(d);
        }
    }

    /// Injected-fault counts, in [`FaultKind`] tag order.
    pub fn injected_counts(&self) -> Vec<(FaultKind, u64)> {
        self.injected.iter().map(|(k, c)| (*k, *c)).collect()
    }

    /// Number of distinct fault kinds actually injected.
    pub fn distinct_kinds(&self) -> usize {
        self.injected.len()
    }

    /// Total faults injected.
    pub fn total_injected(&self) -> u64 {
        self.injected.values().sum()
    }

    fn flip_ground_truth(&mut self, d: &mut Deployment, now: SimTime) {
        self.breaker_closed = !self.breaker_closed;
        d.plc_mut(0).force_breaker(0, self.breaker_closed, now);
        self.next_flip = Some(now + self.flip_interval);
    }

    fn heal_due(&mut self, d: &mut Deployment, now: SimTime) {
        let mut due = Vec::new();
        self.active.retain_mut(|a| {
            if a.heal_at <= now {
                due.push(ActiveFault {
                    heal_at: a.heal_at,
                    fault: a.fault.clone(),
                    saved: a.saved.take(),
                });
                false
            } else {
                true
            }
        });
        for active in due {
            self.heal(d, active);
        }
    }

    fn inject(&mut self, d: &mut Deployment, scheduled: ScheduledFault, now: SimTime) {
        let kind = scheduled.fault.kind();
        *self.injected.entry(kind).or_insert(0) += 1;
        d.obs.journal(obs::Event::ChaosInject {
            kind: kind.tag(),
            target: scheduled.fault.target(),
        });
        let mut saved = None;
        match &scheduled.fault {
            Fault::Partition { isolated } => {
                d.partition_internal(isolated);
            }
            Fault::LinkLoss { replica, loss } => {
                if let Some(link) = d.replica_link(*replica, 0) {
                    saved = Some((link, d.sim.link_spec(link)));
                    d.sim.set_link_loss(link, *loss);
                }
            }
            Fault::LatencySpike { replica, latency } => {
                if let Some(link) = d.replica_link(*replica, 1) {
                    saved = Some((link, d.sim.link_spec(link)));
                    d.sim.set_link_latency(link, *latency);
                }
            }
            Fault::LinkFlap { replica } => {
                if let Some(link) = d.replica_link(*replica, 0) {
                    saved = Some((link, d.sim.link_spec(link)));
                    d.sim.set_link_up(link, false);
                }
            }
            Fault::NodeCrash { replica } | Fault::Recovery { replica } => {
                d.take_replica_down(*replica);
            }
            Fault::ByzFlip { replica, mode } => {
                d.replica_mut(*replica).replica.byz = *mode;
            }
            Fault::ClockSkew { behind } => {
                // Only the obs hub is offered the earlier time. It refuses
                // to rewind and journals the skew; no replica, link or
                // timer sees it, so this probes the journal alone.
                let current = d.obs.now_us();
                d.obs.set_now_us(current.saturating_sub(behind.as_micros()));
            }
            Fault::SiteSever { site } => {
                let site = *site as usize;
                d.sever_site(site);
                // The management-plane failover runs immediately.
                d.failover_after_site_loss(site);
            }
            Fault::SubstationFlap { station } => {
                d.set_substation_link_up(*station, false);
            }
        }
        if scheduled.duration > SimDuration::ZERO {
            self.active.push(ActiveFault {
                heal_at: now + scheduled.duration,
                fault: scheduled.fault,
                saved,
            });
        }
    }

    fn heal(&mut self, d: &mut Deployment, active: ActiveFault) {
        d.obs.journal(obs::Event::ChaosHeal {
            kind: active.fault.kind().tag(),
            target: active.fault.target(),
        });
        match &active.fault {
            Fault::Partition { .. } => {
                d.heal_internal_partition();
            }
            Fault::LinkLoss { .. } => {
                if let Some((link, spec)) = active.saved {
                    d.sim.set_link_loss(link, spec.loss);
                }
            }
            Fault::LatencySpike { .. } => {
                if let Some((link, spec)) = active.saved {
                    d.sim.set_link_latency(link, spec.latency);
                }
            }
            Fault::LinkFlap { .. } => {
                if let Some((link, _)) = active.saved {
                    d.sim.set_link_up(link, true);
                }
            }
            Fault::NodeCrash { replica } | Fault::Recovery { replica } => {
                d.restore_replica(*replica);
            }
            Fault::ByzFlip { replica, .. } => {
                d.replica_mut(*replica).replica.byz = ByzMode::Correct;
            }
            Fault::ClockSkew { .. } => {}
            Fault::SiteSever { site } => {
                d.heal_site(*site as usize);
                d.failback_full_membership();
            }
            Fault::SubstationFlap { station } => {
                d.set_substation_link_up(*station, true);
            }
        }
    }
}
