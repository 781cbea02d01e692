//! Continuous invariant checking for chaos soaks.
//!
//! The checker is sampled by the [`ChaosDriver`](crate::driver::ChaosDriver)
//! after every simulation step and asserts the paper's core guarantees
//! *while faults are being injected*, not just at the end of a run:
//!
//! * **INV-AGREEMENT** (safety, always on): no two replicas may ever
//!   report different application digests for the same executed sequence
//!   number. Observations are compared across time, so a divergence is
//!   caught even if the two replicas are never sampled simultaneously.
//! * **INV-HMI-TRUTH** (safety, always on): every breaker-position vector
//!   an HMI renders must be a state the PLC ground truth actually held at
//!   some point. Staleness is allowed (the display may lag); fabrication
//!   is not.
//! * **INV-BOUNDED-DELAY** (liveness, armed conditionally): whenever the
//!   active faults fit the deployment's `f`/`k` budget and have done so
//!   for a stability grace window, the maximum executed sequence across
//!   healthy replicas must keep advancing within the configured delay
//!   bound — Prime's bounded-delay guarantee under attack.
//! * **INV-RECONVERGENCE** (liveness): after a crash, recovery, or
//!   partition heals, the affected replicas must catch back up to where
//!   the healthy majority was at heal time within the reconvergence
//!   window. Catch-up latencies are recorded for reporting.
//!
//! Violations are journaled as [`obs::Event::InvariantViolation`], so a
//! tripped invariant changes the run digest — a chaos soak cannot quietly
//! pass while an invariant fired.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use itcrypto::sha256::Digest;
use prime::application::Application;
use simnet::time::{SimDuration, SimTime};
use spire::deploy::Deployment;

use crate::signal::{ChaosSignal, SignalFeed, SignalKind};

/// Checker tuning knobs and the fault budget it enforces.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Replica count.
    pub n: u32,
    /// Byzantine fault budget.
    pub f: u32,
    /// Concurrent-recovery budget.
    pub k: u32,
    /// Ordering quorum (progress needs this many connected replicas).
    pub quorum: u32,
    /// Maximum no-progress interval tolerated while armed. Sized to cover
    /// a leader failure: suspect timeout plus view change plus slack.
    pub delay_bound: SimDuration,
    /// How long a healed replica may take to catch back up.
    pub reconvergence_window: SimDuration,
    /// How long the budget must hold before the delay invariant arms.
    pub stability_grace: SimDuration,
    /// Negative-test mode: treat the budget as always satisfied so the
    /// delay invariant stays armed even under over-budget fault plans.
    pub assume_within_budget: bool,
}

impl CheckerConfig {
    /// Defaults derived from a Prime configuration (fast-timing
    /// deployments: 2 s suspect timeout dominates the delay bound).
    pub fn for_prime(cfg: &prime::types::Config) -> Self {
        CheckerConfig {
            n: cfg.n(),
            f: cfg.f,
            k: cfg.k,
            quorum: cfg.ordering_quorum(),
            delay_bound: SimDuration::from_secs(4),
            reconvergence_window: SimDuration::from_secs(10),
            stability_grace: SimDuration::from_secs(1),
            assume_within_budget: false,
        }
    }
}

/// Per-invariant tally.
#[derive(Clone, Copy, Debug)]
pub struct InvariantReport {
    /// Invariant name.
    pub name: &'static str,
    /// Journal tag (`InvariantViolation { invariant }` value).
    pub tag: u8,
    /// Times the invariant was evaluated.
    pub checks: u64,
    /// Times it fired.
    pub violations: u64,
}

const INV_NAMES: [&str; 4] = [
    "agreement",
    "hmi-ground-truth",
    "bounded-delay",
    "reconvergence",
];
const INV_AGREEMENT: usize = 0;
const INV_HMI_TRUTH: usize = 1;
const INV_BOUNDED_DELAY: usize = 2;
const INV_RECONVERGENCE: usize = 3;

struct PendingReconvergence {
    replica: u32,
    target: u64,
    healed_at: SimTime,
    deadline: SimTime,
}

/// A degraded membership epoch the management plane installed (site
/// failover): while active, the fault budget and the progress baseline
/// are judged against the epoch's members, not the static configuration.
struct EpochView {
    members: Vec<u32>,
    f: u32,
    k: u32,
    quorum: u32,
}

/// The continuous checker. The driver notifies it of every injection and
/// heal (so it can track the live fault budget) and calls
/// [`observe`](InvariantChecker::observe) after each step.
pub struct InvariantChecker {
    cfg: CheckerConfig,
    obs: obs::ObsHub,
    scenario: String,
    /// Replicas whose node is down (crash or recovery down-phase).
    down: BTreeSet<u32>,
    /// Replicas rejoining after a heal, still catching up (k budget).
    recovering: BTreeSet<u32>,
    /// Replicas currently flipped Byzantine (f budget).
    byz: BTreeSet<u32>,
    /// Replicas isolated by an active partition.
    partitioned: Vec<u32>,
    /// Active degraded membership epoch, if any (site failover).
    epoch: Option<EpochView>,
    /// Since when the fault budget has held continuously.
    stable_since: Option<SimTime>,
    last_max_exec: u64,
    last_progress_at: SimTime,
    /// Cross-time agreement record: executed seq -> app digest.
    agreement_seen: BTreeMap<u64, Digest>,
    /// Every breaker-position vector the ground-truth PLC ever held.
    truth_history: Vec<Vec<bool>>,
    pending: Vec<PendingReconvergence>,
    /// Observed catch-up latencies (microseconds) for healed replicas.
    pub reconvergence_us: Vec<u64>,
    checks: [u64; 4],
    violations: [u64; 4],
    /// Optional machine-readable signal feed (`chaos::signal`).
    signals: Option<SignalFeed>,
}

impl InvariantChecker {
    /// Builds a checker bound to a deployment: snapshots the initial PLC
    /// ground truth and shares the deployment's observability hub.
    pub fn new(cfg: CheckerConfig, d: &Deployment) -> Self {
        let scenario = d.cfg.proxies[0].scenario.tag();
        InvariantChecker {
            cfg,
            obs: d.obs.clone(),
            scenario,
            down: BTreeSet::new(),
            recovering: BTreeSet::new(),
            byz: BTreeSet::new(),
            partitioned: Vec::new(),
            epoch: None,
            stable_since: None,
            last_max_exec: 0,
            last_progress_at: d.now(),
            agreement_seen: BTreeMap::new(),
            truth_history: vec![d.plc(0).positions()],
            pending: Vec::new(),
            reconvergence_us: Vec::new(),
            checks: [0; 4],
            violations: [0; 4],
            signals: None,
        }
    }

    /// Attaches a signal feed: reconvergence outcomes and invariant
    /// violations are published as typed [`ChaosSignal`]s in addition to
    /// journaling. Observation-only — the digest is unaffected.
    pub fn attach_signals(&mut self, feed: SignalFeed) {
        self.signals = Some(feed);
    }

    // ---- driver notifications --------------------------------------

    /// The ground-truth PLC changed state (the driver flipped a breaker).
    pub fn note_ground_truth(&mut self, d: &Deployment) {
        let positions = d.plc(0).positions();
        if !self.truth_history.contains(&positions) {
            self.truth_history.push(positions);
        }
    }

    /// A replica's node went down (crash or recovery down-phase).
    pub fn replica_down(&mut self, replica: u32) {
        self.down.insert(replica);
        // If it was still catching up from an earlier heal, that episode
        // is void — a fresh reconvergence clock starts at the next heal.
        self.recovering.remove(&replica);
        self.pending.retain(|p| p.replica != replica);
    }

    /// A downed replica was restored and is rejoining.
    pub fn replica_rejoined(&mut self, replica: u32, d: &Deployment) {
        self.down.remove(&replica);
        self.recovering.insert(replica);
        self.push_pending(replica, d);
    }

    /// A replica flipped Byzantine.
    pub fn byz_started(&mut self, replica: u32) {
        self.byz.insert(replica);
    }

    /// A Byzantine replica was flipped back to correct.
    pub fn byz_healed(&mut self, replica: u32) {
        self.byz.remove(&replica);
    }

    /// A partition isolating `isolated` became active.
    pub fn partition_started(&mut self, isolated: &[u32]) {
        self.partitioned = isolated.to_vec();
    }

    /// The management plane installed a degraded membership epoch: the
    /// fault budget and the progress baseline now come from the epoch
    /// (`f`/`k`/`quorum` over `members`) instead of the static
    /// configuration. The delay invariant re-arms after the grace window.
    pub fn membership_changed(&mut self, members: Vec<u32>, f: u32, k: u32, quorum: u32) {
        self.epoch = Some(EpochView {
            members,
            f,
            k,
            quorum,
        });
        self.stable_since = None;
    }

    /// The full static membership is back in force (site heal + failback).
    pub fn membership_restored(&mut self) {
        self.epoch = None;
        self.stable_since = None;
    }

    /// The active partition healed; the formerly isolated replicas must
    /// now reconverge.
    pub fn partition_healed(&mut self, d: &Deployment) {
        for replica in std::mem::take(&mut self.partitioned) {
            if !self.down.contains(&replica) {
                self.push_pending(replica, d);
            }
        }
    }

    fn push_pending(&mut self, replica: u32, d: &Deployment) {
        let now = d.now();
        self.pending.push(PendingReconvergence {
            replica,
            target: self.max_healthy_exec(d),
            healed_at: now,
            deadline: now + self.cfg.reconvergence_window,
        });
    }

    // ---- the continuous check --------------------------------------

    /// Samples the deployment and evaluates all four invariants.
    pub fn observe(&mut self, d: &Deployment) {
        let now = d.now();
        self.check_agreement(d, now);
        self.check_hmi_truth(d, now);
        self.check_bounded_delay(d, now);
        self.check_reconvergence(d, now);
    }

    fn healthy(&self, replica: u32) -> bool {
        !self.down.contains(&replica) && !self.byz.contains(&replica)
    }

    /// Max executed seq over healthy replicas outside any active
    /// partition's isolated side (progress is defined by the majority).
    /// Under a degraded membership epoch only the epoch's members count —
    /// the severed replicas are not expected to make progress.
    fn max_healthy_exec(&self, d: &Deployment) -> u64 {
        (0..self.cfg.n)
            .filter(|r| {
                self.epoch
                    .as_ref()
                    .map(|e| e.members.contains(r))
                    .unwrap_or(true)
            })
            .filter(|r| self.healthy(*r) && !self.partitioned.contains(r))
            .map(|r| d.replica(r).replica.exec_seq())
            .max()
            .unwrap_or(0)
    }

    fn check_agreement(&mut self, d: &Deployment, now: SimTime) {
        self.checks[INV_AGREEMENT] += 1;
        let healthy: Vec<u32> = (0..self.cfg.n).filter(|r| self.healthy(*r)).collect();
        for r in healthy {
            let replica = &d.replica(r).replica;
            let exec = replica.exec_seq();
            if exec == 0 {
                continue;
            }
            let digest = replica.app().digest();
            match self.agreement_seen.entry(exec) {
                Entry::Vacant(v) => {
                    v.insert(digest);
                }
                Entry::Occupied(o) => {
                    if *o.get() != digest {
                        self.violation(INV_AGREEMENT, exec, now);
                    }
                }
            }
        }
    }

    fn check_hmi_truth(&mut self, d: &Deployment, now: SimTime) {
        for h in 0..d.cfg.hmis {
            if let Some(positions) = d.hmi(h).hmi.positions(&self.scenario) {
                self.checks[INV_HMI_TRUTH] += 1;
                if !self.truth_history.iter().any(|t| t == positions) {
                    self.violation(INV_HMI_TRUTH, h as u64, now);
                }
            }
        }
    }

    fn check_bounded_delay(&mut self, d: &Deployment, now: SimTime) {
        let within = self.cfg.assume_within_budget
            || match &self.epoch {
                None => {
                    (self.down.len() + self.byz.len()) as u32 <= self.cfg.f
                        && self.recovering.len() as u32 <= self.cfg.k
                        && (self.partitioned.is_empty()
                            || self.cfg.n - self.partitioned.len() as u32 >= self.cfg.quorum)
                }
                // Degraded epoch: only faults hitting epoch members count,
                // against the epoch's own (usually zero) budget.
                Some(e) => {
                    let hit = |set: &BTreeSet<u32>| {
                        e.members.iter().filter(|r| set.contains(r)).count() as u32
                    };
                    let partitioned_members = e
                        .members
                        .iter()
                        .filter(|r| self.partitioned.contains(r))
                        .count() as u32;
                    hit(&self.down) + hit(&self.byz) <= e.f
                        && hit(&self.recovering) <= e.k
                        && (partitioned_members == 0
                            || e.members.len() as u32 - partitioned_members >= e.quorum)
                }
            };
        if within {
            if self.stable_since.is_none() {
                self.stable_since = Some(now);
            }
        } else {
            self.stable_since = None;
        }
        let armed = self
            .stable_since
            .map(|t0| now.since(t0).as_micros() >= self.cfg.stability_grace.as_micros())
            .unwrap_or(false);
        let max_exec = self.max_healthy_exec(d);
        if max_exec > self.last_max_exec {
            self.last_max_exec = max_exec;
            self.last_progress_at = now;
        }
        if !armed {
            // The progress clock only runs while the budget holds.
            self.last_progress_at = now;
            return;
        }
        self.checks[INV_BOUNDED_DELAY] += 1;
        if now.since(self.last_progress_at).as_micros() > self.cfg.delay_bound.as_micros() {
            self.violation(INV_BOUNDED_DELAY, max_exec, now);
            // Reset so one stall reports once per bound, not per sample.
            self.last_progress_at = now;
        }
    }

    fn check_reconvergence(&mut self, d: &Deployment, now: SimTime) {
        let mut still = Vec::new();
        for p in self.pending.drain(..) {
            let exec = d.replica(p.replica).replica.exec_seq();
            if exec >= p.target {
                self.checks[INV_RECONVERGENCE] += 1;
                self.recovering.remove(&p.replica);
                let latency = now.since(p.healed_at).as_micros();
                self.reconvergence_us.push(latency);
                if let Some(feed) = &self.signals {
                    feed.publish(ChaosSignal {
                        kind: SignalKind::ReconvergenceDone,
                        code: 0,
                        target: p.replica,
                        value: latency,
                        at: now,
                    });
                }
            } else if now > p.deadline {
                self.checks[INV_RECONVERGENCE] += 1;
                self.recovering.remove(&p.replica);
                self.violations[INV_RECONVERGENCE] += 1;
                self.obs.journal(obs::Event::InvariantViolation {
                    invariant: INV_RECONVERGENCE as u8,
                    detail: p.replica as u64,
                });
                if let Some(feed) = &self.signals {
                    feed.publish(ChaosSignal {
                        kind: SignalKind::ReconvergenceTimeout,
                        code: INV_RECONVERGENCE as u8,
                        target: p.replica,
                        value: 0,
                        at: now,
                    });
                }
            } else {
                still.push(p);
            }
        }
        self.pending = still;
    }

    fn violation(&mut self, invariant: usize, detail: u64, now: SimTime) {
        self.violations[invariant] += 1;
        self.obs.journal(obs::Event::InvariantViolation {
            invariant: invariant as u8,
            detail,
        });
        if let Some(feed) = &self.signals {
            feed.publish(ChaosSignal {
                kind: SignalKind::Violation,
                code: invariant as u8,
                target: 0,
                value: detail,
                at: now,
            });
        }
    }

    // ---- reporting --------------------------------------------------

    /// Per-invariant verdicts.
    pub fn reports(&self) -> Vec<InvariantReport> {
        INV_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| InvariantReport {
                name,
                tag: i as u8,
                checks: self.checks[i],
                violations: self.violations[i],
            })
            .collect()
    }

    /// True when no invariant ever fired.
    pub fn all_green(&self) -> bool {
        self.violations.iter().all(|v| *v == 0)
    }
}
