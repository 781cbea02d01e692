//! Continuous invariant checking for chaos soaks.
//!
//! The checker is sampled by the [`ChaosDriver`](crate::driver::ChaosDriver)
//! after every simulation step and asserts the paper's core guarantees
//! *while faults are being injected*, not just at the end of a run:
//!
//! * **INV-AGREEMENT** (safety, always on): no two replicas may ever
//!   report different application digests for the same executed sequence
//!   number. Observations go into one [`AgreementLedger`] and are compared
//!   across time, so a divergence is caught even if the two replicas are
//!   never sampled simultaneously.
//! * **INV-HMI-TRUTH** (safety, always on): every breaker-position vector
//!   an HMI renders must be a state the PLC ground truth actually held at
//!   some point. Staleness is allowed (the display may lag); fabrication
//!   is not.
//! * **INV-BOUNDED-DELAY** (liveness, armed conditionally): whenever the
//!   active faults fit the deployment's `f`/`k` budget and have done so
//!   for a stability grace window, the maximum executed sequence across
//!   healthy replicas must keep advancing within the delay bound —
//!   Prime's bounded-delay guarantee under attack.
//! * **INV-RECONVERGENCE** (liveness): after a crash, recovery, or
//!   partition heals, the affected replicas must catch back up to where
//!   the healthy majority was at heal time within the reconvergence
//!   window. Each catch-up is journaled as [`obs::Event::Reconverged`]
//!   with its latency.
//!
//! Violations are journaled as [`obs::Event::InvariantViolation`], tagged
//! `obs::event::INV_*`, so a tripped invariant changes the run digest — a
//! chaos soak cannot quietly pass while an invariant fired.
//!
//! The checker reads the fault state from the deployment at every sample
//! (which replicas are down, Byzantine or cut off, and any degraded epoch),
//! so it judges whatever faulted the deployment: the driver, a response
//! policy, or a test's own hands.

use std::collections::BTreeSet;

use obs::event::{INV_AGREEMENT, INV_BOUNDED_DELAY, INV_HMI_TRUTH, INV_RECONVERGENCE};
use prime::byzantine::ByzMode;
use prime::invariants::AgreementLedger;
use prime::types::Membership;
use simnet::time::{SimDuration, SimTime};
use spire::deploy::Deployment;

/// The fault budget the checker enforces.
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// The deployment's full membership: its replicas, their `f`/`k`
    /// budget and ordering quorum.
    pub membership: Membership,
    /// Negative-test mode: treat the budget as always satisfied so the
    /// delay invariant stays armed even under over-budget fault plans.
    pub assume_within_budget: bool,
}

impl CheckerConfig {
    /// The budget of a Prime configuration.
    pub fn for_prime(cfg: &prime::types::Config) -> Self {
        CheckerConfig {
            membership: Membership::full(cfg),
            assume_within_budget: false,
        }
    }
}

/// Maximum no-progress interval tolerated while armed. Sized to cover a
/// leader failure under fast timing: the 2 s suspect timeout plus view
/// change plus slack.
const DELAY_BOUND: SimDuration = SimDuration::from_secs(4);
/// How long a healed replica may take to catch back up.
const RECONVERGENCE_WINDOW: SimDuration = SimDuration::from_secs(10);
/// How long the budget must hold before the delay invariant arms.
const STABILITY_GRACE: SimDuration = SimDuration::from_secs(1);

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

/// Report names, indexed by journal tag (`obs::event::INV_*`). The E12,
/// E13 and E16 tables print these; `--trace` prints the journal's own.
const INV_NAMES: [&str; 4] = [
    "agreement",
    "hmi-ground-truth",
    "bounded-delay",
    "reconvergence",
];

struct PendingReconvergence {
    replica: u32,
    target: u64,
    healed_at: SimTime,
    deadline: SimTime,
}

/// The deployment's fault state at one sample, read from the deployment.
struct Faults {
    /// Replicas whose node is down (f budget).
    down: BTreeSet<u32>,
    /// Up replicas running a Byzantine mode (f budget). A down replica
    /// counts once, as down.
    byz: BTreeSet<u32>,
    /// Replicas the deployment cut off: an internal partition or a
    /// severed site.
    cut_off: BTreeSet<u32>,
    /// The membership the fault budget and the progress baseline are
    /// judged against: the first up replica's whose membership is not the
    /// full one (a degraded epoch installed at site failover), else the
    /// full one.
    epoch: Membership,
}

impl Faults {
    fn read(d: &Deployment, full: &Membership) -> Self {
        let (up, down): (BTreeSet<u32>, _) = full.members().iter().partition(|&&r| d.replica_up(r));
        Faults {
            down,
            byz: up
                .iter()
                .copied()
                .filter(|&r| d.replica(r).replica.byz != ByzMode::Correct)
                .collect(),
            cut_off: d.cut_off().into_iter().collect(),
            epoch: up
                .iter()
                .map(|&r| d.replica(r).replica.membership())
                .find(|&m| m != full)
                .unwrap_or(full)
                .clone(),
        }
    }

    /// Whether the faults fit the epoch's budget: only faults that hit its
    /// members count, against its own `f`, `k` and ordering quorum. Over
    /// the full membership every fault counts against the deployment's.
    fn within_budget(&self, recovering: &BTreeSet<u32>) -> bool {
        let e = &self.epoch;
        let hit =
            |set: &BTreeSet<u32>| e.members().iter().filter(|r| set.contains(r)).count() as u32;
        let cut = hit(&self.cut_off);
        hit(&self.down) + hit(&self.byz) <= e.f
            && hit(recovering) <= e.k
            && (cut == 0 || e.len() - cut >= e.ordering_quorum())
    }

    /// The replicas the agreement ledger is fed: up and not Byzantine,
    /// whether or not still catching up. Progress is measured over them
    /// too, less the cut-off ones.
    fn healthy(&self, replica: u32) -> bool {
        !self.down.contains(&replica) && !self.byz.contains(&replica)
    }
}

/// The continuous checker. The driver calls
/// [`observe`](InvariantChecker::observe) after each step; each call reads
/// the live fault budget from the deployment before it checks anything.
pub struct InvariantChecker {
    cfg: CheckerConfig,
    obs: obs::ObsHub,
    scenario: String,
    /// The fault state at the latest sample.
    faults: Faults,
    /// Replicas back from down, still catching up (k budget).
    recovering: BTreeSet<u32>,
    /// Since when the fault budget has held continuously.
    stable_since: Option<SimTime>,
    last_max_exec: u64,
    last_progress_at: SimTime,
    /// Cross-time agreement record: each execution number's first digest.
    agreement: AgreementLedger,
    /// Every breaker-position vector the ground-truth PLC ever held.
    truth_history: Vec<Vec<bool>>,
    pending: Vec<PendingReconvergence>,
    /// Observed catch-up latencies (microseconds) for healed replicas.
    pub reconvergence_us: Vec<u64>,
    checks: [u64; 4],
    violations: [u64; 4],
}

impl InvariantChecker {
    /// Builds a checker bound to a deployment: snapshots its fault state
    /// and PLC ground truth and shares its observability hub.
    pub fn new(cfg: CheckerConfig, d: &Deployment) -> Self {
        let scenario = d.cfg.proxies[0].scenario.tag();
        let faults = Faults::read(d, &cfg.membership);
        InvariantChecker {
            cfg,
            obs: d.obs.clone(),
            scenario,
            faults,
            recovering: BTreeSet::new(),
            stable_since: None,
            last_max_exec: 0,
            last_progress_at: d.now(),
            agreement: AgreementLedger::default(),
            truth_history: vec![d.plc(0).positions()],
            pending: Vec::new(),
            reconvergence_us: Vec::new(),
            checks: [0; 4],
            violations: [0; 4],
        }
    }

    // ---- the continuous check --------------------------------------

    /// Samples the deployment and evaluates all four invariants.
    pub fn observe(&mut self, d: &Deployment) {
        let now = d.now();
        self.read_faults(d);
        self.check_agreement(d);
        self.check_hmi_truth(d);
        self.check_bounded_delay(d, now);
        self.check_reconvergence(d, now);
    }

    /// Reads this sample's ground truth and fault state. A replica down or
    /// cut off at the previous sample and back now owes a catch-up from
    /// now; one that has gone down owes none (a fresh clock starts when it
    /// is back).
    fn read_faults(&mut self, d: &Deployment) {
        let positions = d.plc(0).positions();
        if !self.truth_history.contains(&positions) {
            self.truth_history.push(positions);
        }
        let last = std::mem::replace(&mut self.faults, Faults::read(d, &self.cfg.membership));
        if last.epoch != self.faults.epoch {
            // The delay invariant re-arms after the grace window.
            self.stable_since = None;
        }
        let down = &self.faults.down;
        self.recovering.retain(|r| !down.contains(r));
        self.pending.retain(|p| !down.contains(&p.replica));
        for r in 0..self.cfg.membership.len() {
            if self.faults.down.contains(&r) {
                continue;
            }
            if last.down.contains(&r) {
                self.recovering.insert(r);
                self.push_pending(r, d);
            }
            if last.cut_off.contains(&r) && !self.faults.cut_off.contains(&r) {
                self.push_pending(r, d);
            }
        }
    }

    fn push_pending(&mut self, replica: u32, d: &Deployment) {
        let now = d.now();
        self.pending.push(PendingReconvergence {
            replica,
            target: self.max_healthy_exec(d),
            healed_at: now,
            deadline: now + RECONVERGENCE_WINDOW,
        });
    }

    /// Max executed seq over the epoch's healthy members that are not cut
    /// off (progress is defined by the majority). Under a degraded epoch
    /// the severed replicas are not members and are not expected to make
    /// progress.
    fn max_healthy_exec(&self, d: &Deployment) -> u64 {
        let f = &self.faults;
        f.epoch
            .members()
            .iter()
            .copied()
            .filter(|&r| f.healthy(r) && !f.cut_off.contains(&r))
            .map(|r| d.replica(r).replica.exec_seq())
            .max()
            .unwrap_or(0)
    }

    fn check_agreement(&mut self, d: &Deployment) {
        self.checks[INV_AGREEMENT as usize] += 1;
        let healthy: Vec<u32> = (0..self.cfg.membership.len())
            .filter(|&r| self.faults.healthy(r))
            .collect();
        for r in healthy {
            if let Err(diverged) = self.agreement.record_state(&d.replica(r).replica) {
                self.violation(INV_AGREEMENT, diverged.exec_seq);
            }
        }
    }

    fn check_hmi_truth(&mut self, d: &Deployment) {
        for h in 0..d.cfg.hmis {
            if let Some(positions) = d.hmi(h).hmi.positions(&self.scenario) {
                self.checks[INV_HMI_TRUTH as usize] += 1;
                if !self.truth_history.iter().any(|t| t == positions) {
                    self.violation(INV_HMI_TRUTH, h as u64);
                }
            }
        }
    }

    fn check_bounded_delay(&mut self, d: &Deployment, now: SimTime) {
        let within = self.cfg.assume_within_budget || self.faults.within_budget(&self.recovering);
        if within {
            if self.stable_since.is_none() {
                self.stable_since = Some(now);
            }
        } else {
            self.stable_since = None;
        }
        let armed = self
            .stable_since
            .map(|t0| now.since(t0).as_micros() >= STABILITY_GRACE.as_micros())
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
        self.checks[INV_BOUNDED_DELAY as usize] += 1;
        if now.since(self.last_progress_at).as_micros() > DELAY_BOUND.as_micros() {
            self.violation(INV_BOUNDED_DELAY, max_exec);
            // Reset so one stall reports once per bound, not per sample.
            self.last_progress_at = now;
        }
    }

    fn check_reconvergence(&mut self, d: &Deployment, now: SimTime) {
        let mut still = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            let exec = d.replica(p.replica).replica.exec_seq();
            if exec >= p.target {
                self.checks[INV_RECONVERGENCE as usize] += 1;
                self.recovering.remove(&p.replica);
                let latency_us = now.since(p.healed_at).as_micros();
                self.reconvergence_us.push(latency_us);
                self.obs.journal(obs::Event::Reconverged {
                    replica: p.replica,
                    latency_us,
                });
            } else if now > p.deadline {
                self.checks[INV_RECONVERGENCE as usize] += 1;
                self.recovering.remove(&p.replica);
                self.violation(INV_RECONVERGENCE, p.replica as u64);
            } else {
                still.push(p);
            }
        }
        self.pending = still;
    }

    fn violation(&mut self, invariant: u8, detail: u64) {
        self.violations[invariant as usize] += 1;
        self.obs
            .journal(obs::Event::InvariantViolation { invariant, detail });
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

#[cfg(test)]
mod tests {
    use super::*;
    use prime::types::Config;

    /// The one budget rule, over the plant's full membership (`f = 1`,
    /// `k = 1`, quorum 4 of 6) and over the degraded epoch `{0, 1, 2}`
    /// (`f = 0`, `k = 1`, quorum 2).
    #[test]
    fn budget_counts_faults_that_hit_members_against_the_membership() {
        let full = Membership::full(&Config::plant());
        let epoch = Membership::degraded(vec![0, 1, 2]);
        let set = |ids: &[u32]| ids.iter().copied().collect::<BTreeSet<u32>>();
        // (membership, [down, byz, recovering, cut off], within budget)
        let cases: [(&Membership, [&[u32]; 4], bool); 11] = [
            (&full, [&[], &[], &[], &[]], true),
            (&full, [&[3], &[], &[], &[]], true),
            (&full, [&[3, 4], &[], &[], &[]], false),
            (&full, [&[3], &[4], &[], &[]], false),
            (&full, [&[], &[], &[2], &[]], true),
            (&full, [&[], &[], &[2, 3], &[]], false),
            (&full, [&[], &[], &[], &[4, 5]], true),
            (&full, [&[], &[], &[], &[3, 4, 5]], false),
            (&epoch, [&[4], &[], &[], &[3, 4, 5]], true),
            (&epoch, [&[1], &[], &[], &[3, 4, 5]], false),
            (&epoch, [&[], &[], &[2], &[3, 4, 5]], true),
        ];
        for (m, [down, byz, recovering, cut_off], want) in cases {
            let faults = Faults {
                down: set(down),
                byz: set(byz),
                cut_off: set(cut_off),
                epoch: m.clone(),
            };
            assert_eq!(
                faults.within_budget(&set(recovering)),
                want,
                "{:?}: down {down:?} byz {byz:?} recovering {recovering:?} cut {cut_off:?}",
                m.members()
            );
        }
    }
}
