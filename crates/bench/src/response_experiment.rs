//! Experiment E16: closed-loop intrusion response under multi-stage
//! attack campaigns (see EXPERIMENTS.md, "E16").
//!
//! The same seed-deterministic campaign — a Byzantine implant whose
//! spoofed exfiltration traffic lights up the per-replica MANA instances,
//! plus link noise and a proxy-attributed flood — runs twice against the
//! E4 plant deployment: once with the paper's *periodic* proactive
//! recovery (round-robin rejuvenation on a fixed schedule, blind to the
//! detectors) and once with the *feedback* policy
//! (`response::Controller`), which triggers recoveries toward suspected
//! replicas, throttles flooding proxies, and tracks degraded modes. The
//! comparison is time-in-compromised-state, reaction time, and
//! availability — the closed loop must shorten the first two without
//! hurting the third.
//!
//! Detection is honest: the controller never sees the fault schedule. A
//! compromise window is *ground truth* for scoring only (opened by the
//! journaled `ChaosInject`, closed by a policy takedown or the journaled
//! `ChaosHeal`); the controller acts on MANA window scores, Prime health
//! gauges, reachability, and the journal's reconvergence and violation
//! records alone.

use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker, InvariantReport};
use chaos::plan::{ChaosPlan, Fault, FaultKind, ScheduledFault};
use diversity::recovery::RecoveryScheduler;
use mana::ids::ManaInstance;
use prime::byzantine::ByzMode;
use prime::types::Config as PrimeConfig;
use redteam::attacker::{AttackStep, Attacker};
use response::{Actuation, Controller, ControllerInput, ProxyObservation, ReplicaObservation};
use simnet::capture::PacketRecord;
use simnet::time::{SimDuration, SimTime};
use simnet::types::IpAddr;
use spire::config::EXTERNAL_SPINES_PORT;
use spire::deploy::Deployment;

use crate::chaos_experiment::chaos_rig;
use crate::json::{self, Json};
use crate::redteam_experiments::attacker_spec;
use crate::registry::RunMeta;

/// Controller/scheduler tick.
const TICK: SimDuration = SimDuration::from_millis(100);
/// Warm-up before anything else (ARP, overlay discovery, first orders).
const WARMUP: SimDuration = SimDuration::from_secs(1);
/// MANA baseline capture per run (fixed; `--days` scales campaigns only).
const TRAINING: SimDuration = SimDuration::from_secs(12);
/// MANA analysis window.
const MANA_WINDOW: SimDuration = SimDuration::from_millis(250);
/// Ticks a window score is held for the controller before decaying to 0
/// (windows close every 250 ms; ticks are 100 ms).
const Z_HOLD_TICKS: u32 = 5;
/// Periodic-baseline rejuvenation interval (one full round-robin cycle
/// per shape-A wave — the paper's schedule, compressed).
const PERIODIC_INTERVAL: SimDuration = SimDuration::from_secs(3);
/// Recovery downtime: the controller's, shared by both policies for a
/// fair comparison.
const DOWNTIME: SimDuration = response::controller::RECOVERY_DOWNTIME;
/// MANA subject id convention for proxy `p` (replicas use their index).
const PROXY_SUBJECT_BASE: u32 = 1_000;

/// Which recovery policy drives the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The paper's schedule: blind round-robin rejuvenation.
    Periodic,
    /// The closed loop: `response::Controller` + triggered recoveries.
    Feedback,
}

impl Policy {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Periodic => "periodic",
            Policy::Feedback => "feedback",
        }
    }
}

/// The two campaign shapes E16 pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// E16a: one implant (mute-leader flip on replica 4) exfiltrating
    /// spoofed flood traffic, then a proxy-attributed flood that should
    /// engage the throttle actuator. One wave is 24 s.
    ImplantFlood,
    /// E16b: two sequential implants (replicas 2 then 5), each exfiltrating
    /// under its own address, with link noise between. One wave is 28 s.
    DoubleCompromise,
}

impl Shape {
    /// Experiment id ("e16a" / "e16b").
    pub fn id(self) -> &'static str {
        match self {
            Shape::ImplantFlood => "e16a",
            Shape::DoubleCompromise => "e16b",
        }
    }

    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            Shape::ImplantFlood => "implant-flood",
            Shape::DoubleCompromise => "double-compromise",
        }
    }

    /// One wave's length; `--days` repeats waves back to back.
    fn wave(self) -> SimDuration {
        match self {
            Shape::ImplantFlood => SimDuration::from_secs(24),
            Shape::DoubleCompromise => SimDuration::from_secs(28),
        }
    }

    /// The chaos timeline for `waves` waves, offsets relative to the
    /// driver's start. Deliberately contains no `NodeCrash`/`Recovery`
    /// faults: every node down/up in an E16 run is a *policy* decision,
    /// so the two policies are compared on identical ground truth.
    fn plan(self, waves: u64) -> ChaosPlan {
        let mut faults = Vec::new();
        for w in 0..waves {
            let base = self.wave().saturating_mul(w);
            let at = |ms: u64| base + SimDuration::from_millis(ms);
            match self {
                Shape::ImplantFlood => {
                    faults.push(ScheduledFault {
                        at: at(1_000),
                        duration: SimDuration::from_secs(10),
                        fault: Fault::ByzFlip {
                            replica: 4,
                            mode: ByzMode::MuteLeader,
                        },
                    });
                    faults.push(ScheduledFault {
                        at: at(4_000),
                        duration: SimDuration::from_millis(1_500),
                        fault: Fault::LinkLoss {
                            replica: 2,
                            loss: 0.2,
                        },
                    });
                    faults.push(ScheduledFault {
                        at: at(15_000),
                        duration: SimDuration::from_millis(1_500),
                        fault: Fault::LatencySpike {
                            replica: 1,
                            latency: SimDuration::from_millis(4),
                        },
                    });
                }
                Shape::DoubleCompromise => {
                    faults.push(ScheduledFault {
                        at: at(1_000),
                        duration: SimDuration::from_secs(8),
                        fault: Fault::ByzFlip {
                            replica: 2,
                            mode: ByzMode::DelayLeader(SimDuration::from_millis(100)),
                        },
                    });
                    faults.push(ScheduledFault {
                        at: at(6_000),
                        duration: SimDuration::from_millis(1_500),
                        fault: Fault::LinkLoss {
                            replica: 0,
                            loss: 0.2,
                        },
                    });
                    faults.push(ScheduledFault {
                        at: at(14_000),
                        duration: SimDuration::from_secs(8),
                        fault: Fault::ByzFlip {
                            replica: 5,
                            mode: ByzMode::MuteLeader,
                        },
                    });
                }
            }
        }
        ChaosPlan { faults }
    }

    /// The attacker's exfiltration schedule: floods spoofed under the
    /// compromised replica's (or the proxy's) source address, so the
    /// per-subject MANA instances attribute them honestly. Times are
    /// absolute; `t0` is the campaign start.
    fn attacker(self, d: &Deployment, t0: SimTime, waves: u64) -> Attacker {
        let mut attacker = Attacker::new();
        let mut burst = |at: SimTime, spoof: IpAddr, pps: u32, dur_ms: u64| {
            attacker.schedule(
                at,
                AttackStep::DosBurst {
                    target: d.cfg.replica_external_ip(1),
                    port: EXTERNAL_SPINES_PORT,
                    pps,
                    duration: SimDuration::from_millis(dur_ms),
                    spoof_src: Some(spoof),
                    payload: 600,
                },
            );
        };
        for w in 0..waves {
            let base = t0 + self.wave().saturating_mul(w);
            match self {
                Shape::ImplantFlood => {
                    burst(
                        base + SimDuration::from_millis(1_200),
                        d.cfg.replica_external_ip(4),
                        2_000,
                        2_500,
                    );
                    burst(
                        base + SimDuration::from_millis(9_000),
                        d.cfg.proxy_ip(0),
                        2_000,
                        2_000,
                    );
                }
                Shape::DoubleCompromise => {
                    burst(
                        base + SimDuration::from_millis(1_200),
                        d.cfg.replica_external_ip(2),
                        1_800,
                        2_500,
                    );
                    burst(
                        base + SimDuration::from_millis(14_200),
                        d.cfg.replica_external_ip(5),
                        1_800,
                        2_500,
                    );
                }
            }
        }
        attacker
    }
}

/// One policy's verdict for a campaign.
#[derive(Clone, Debug)]
pub struct PolicyOutcome {
    /// Policy label ("periodic" / "feedback").
    pub policy: &'static str,
    /// Recoveries the policy started (node actually taken down): the
    /// campaign's journaled `RecoveryStart` records.
    pub recoveries: u64,
    /// Ground-truth time spent with a live implant, microseconds.
    pub compromised_us: u64,
    /// Per-compromise end-to-end reaction samples (inject → takedown, or
    /// the full window when the scheduled heal got there first).
    pub reaction_us: Vec<u64>,
    /// Compromise windows closed by the policy.
    pub reacted: u64,
    /// Compromise windows the policy never caught (heal closed them).
    pub missed: u64,
    /// Throttle actuations (feedback only): journaled
    /// `ResponseActuation`s with the throttle tag.
    pub throttles: u64,
    /// Proxy updates suppressed by the rate cap.
    pub updates_throttled: u64,
    /// MANA windows flagged anomalous across all instances.
    pub anomaly_windows: u64,
    /// Degraded-mode transitions journaled (feedback only).
    pub transitions: u64,
    /// Per-invariant verdicts.
    pub invariants: Vec<InvariantReport>,
    /// True when no invariant fired.
    pub all_green: bool,
    /// Minimum executed update count across replicas at the end.
    pub min_executed: u64,
    /// Longest interval with no global execution progress, microseconds.
    pub longest_stall_us: u64,
    /// Determinism capture (journal digest + event count).
    pub meta: RunMeta,
}

impl PolicyOutcome {
    /// p99 (effectively max for the few windows per run) reaction time.
    pub fn reaction_p99_us(&self) -> u64 {
        let mut sorted = self.reaction_us.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        let idx = (sorted.len() - 1).min(sorted.len() * 99 / 100);
        sorted[idx]
    }
}

/// E16 result: one campaign shape, both policies.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Experiment id ("e16a" / "e16b").
    pub id: &'static str,
    /// Shape label.
    pub shape: &'static str,
    /// Waves run (`--days`).
    pub waves: u64,
    /// The blind periodic baseline.
    pub periodic: PolicyOutcome,
    /// The closed loop.
    pub feedback: PolicyOutcome,
}

/// Ground-truth compromise bookkeeping (scoring only — never shown to
/// the controller).
struct CompromiseLog {
    /// Open implants: (replica, injected at).
    open: Vec<(u32, SimTime)>,
    compromised_us: u64,
    reaction_us: Vec<u64>,
    reacted: u64,
    missed: u64,
}

impl CompromiseLog {
    fn new() -> Self {
        CompromiseLog {
            open: Vec::new(),
            compromised_us: 0,
            reaction_us: Vec::new(),
            reacted: 0,
            missed: 0,
        }
    }

    /// Scores the journal's `ByzFlip` injections and heals. The driver
    /// journals at `d.now()`, so a record's time is the fault's.
    fn note_journal(&mut self, journal: &[obs::TimedEvent]) {
        let byz = FaultKind::ByzFlip.tag();
        for rec in journal {
            let at = SimTime(rec.at_us);
            match rec.event {
                obs::Event::ChaosInject { kind, target } if kind == byz => {
                    self.open.push((target, at))
                }
                obs::Event::ChaosHeal { kind, target } if kind == byz => {
                    self.close(target, at, false)
                }
                _ => {}
            }
        }
    }

    fn close(&mut self, replica: u32, at: SimTime, by_policy: bool) {
        let Some(pos) = self.open.iter().position(|(r, _)| *r == replica) else {
            return;
        };
        let (_, injected) = self.open.remove(pos);
        let lived = at.since(injected).as_micros();
        self.compromised_us += lived;
        self.reaction_us.push(lived);
        if by_policy {
            self.reacted += 1;
        } else {
            self.missed += 1;
        }
    }
}

/// Held per-subject anomaly score: the latest window's peak z, decayed to
/// zero after `Z_HOLD_TICKS` controller ticks without a fresh window.
struct HeldScore {
    z: f64,
    age: u32,
}

impl HeldScore {
    fn new() -> Self {
        HeldScore {
            z: 0.0,
            age: Z_HOLD_TICKS,
        }
    }

    fn tick(&mut self, fresh_max: Option<f64>) {
        match fresh_max {
            Some(z) => {
                self.z = z;
                self.age = 0;
            }
            None => {
                self.age = self.age.saturating_add(1);
                if self.age >= Z_HOLD_TICKS {
                    self.z = 0.0;
                }
            }
        }
    }
}

/// Per-subject MANA routing: instance `i < n` watches traffic *sent* by
/// replica `i`'s external address (spoofed exfiltration is attributed to
/// the replica it impersonates); the last instance watches the proxy.
struct SubjectMana {
    instances: Vec<(IpAddr, ManaInstance, HeldScore)>,
}

impl SubjectMana {
    fn new(d: &Deployment, n: u32) -> Self {
        let mut instances = Vec::new();
        for r in 0..n {
            let mut inst = ManaInstance::new(format!("MANA r{r}"), MANA_WINDOW);
            inst.journal_scores(d.obs.clone(), r);
            instances.push((d.cfg.replica_external_ip(r), inst, HeldScore::new()));
        }
        let mut proxy = ManaInstance::new("MANA proxy0", MANA_WINDOW);
        proxy.journal_scores(d.obs.clone(), PROXY_SUBJECT_BASE);
        instances.push((d.cfg.proxy_ip(0), proxy, HeldScore::new()));
        SubjectMana { instances }
    }

    fn ingest(&mut self, records: &[PacketRecord], now: SimTime) {
        for (ip, inst, _) in &mut self.instances {
            inst.ingest(records.iter().filter(|r| r.src_ip == *ip).cloned());
            inst.advance_to(now);
        }
    }

    fn finish_training(&mut self, now: SimTime) {
        for (_, inst, _) in &mut self.instances {
            inst.advance_to(now);
            inst.finish_training();
        }
    }

    /// Drains fresh window scores and updates each subject's held z.
    fn tick_scores(&mut self) {
        for (_, inst, held) in &mut self.instances {
            let fresh = inst
                .take_window_scores()
                .iter()
                .map(|s| s.max_z)
                .fold(None, |acc: Option<f64>, z| {
                    Some(acc.map_or(z, |a| a.max(z)))
                });
            held.tick(fresh);
        }
    }

    fn replica_z(&self, r: usize) -> f64 {
        self.instances[r].2.z
    }

    fn proxy_z(&self) -> f64 {
        self.instances[self.instances.len() - 1].2.z
    }

    fn flagged_windows(&self) -> u64 {
        self.instances
            .iter()
            .map(|(_, inst, _)| inst.windows_flagged)
            .sum()
    }
}

/// A recovery policy's hands on the deployment, ticked by the campaign and
/// by the negative control alike: the feedback controller's actuations, or
/// the periodic schedule's takedowns and its restores once due.
struct Responder {
    policy: Policy,
    scheduler: RecoveryScheduler,
    controller: Controller,
    /// Periodic policy's pending restores: (replica, due).
    pending_restore: Vec<(u32, SimTime)>,
}

impl Responder {
    fn new(policy: Policy, scheduler: RecoveryScheduler, controller: Controller) -> Self {
        Responder {
            policy,
            scheduler,
            controller,
            pending_restore: Vec::new(),
        }
    }

    /// One policy tick at `now`; `input` builds what the feedback
    /// controller observes.
    fn tick(
        &mut self,
        d: &mut Deployment,
        log: &mut CompromiseLog,
        now: SimTime,
        input: impl FnOnce(&Deployment) -> ControllerInput,
    ) {
        match self.policy {
            Policy::Feedback => {
                for act in self.controller.step(&input(d)) {
                    match act {
                        Actuation::TakeDown { replica } => {
                            // Variant rotation rides the same scheduler as
                            // the periodic path; budget honored by both.
                            self.scheduler.trigger(replica, now);
                            take_down(d, log, replica, now);
                        }
                        Actuation::Restore { replica } => restore(d, replica),
                        Actuation::Throttle {
                            proxy,
                            min_interval,
                        } => d.set_proxy_rate_limit(proxy, Some(min_interval)),
                        Actuation::Unthrottle { proxy } => d.set_proxy_rate_limit(proxy, None),
                    }
                }
            }
            Policy::Periodic => {
                for ev in self.scheduler.poll(now) {
                    if take_down(d, log, ev.replica, now) {
                        self.pending_restore.push((ev.replica, ev.finish));
                    }
                }
                let (due, later) = std::mem::take(&mut self.pending_restore)
                    .into_iter()
                    .partition(|&(_, t)| now >= t);
                self.pending_restore = later;
                for (r, _) in due {
                    restore(d, r);
                }
            }
        }
    }

    /// End of campaign: restores every replica the policy still holds down.
    fn restore_all(&mut self, d: &mut Deployment) {
        for r in self.controller.isolated() {
            restore(d, r);
        }
        for (r, _) in std::mem::take(&mut self.pending_restore) {
            restore(d, r);
        }
    }
}

/// Takes `replica` down for recovery if it is up. A live implant on it
/// ends there: the clean-image recovery neutralizes it.
fn take_down(d: &mut Deployment, log: &mut CompromiseLog, replica: u32, now: SimTime) -> bool {
    if !d.replica_up(replica) {
        return false;
    }
    log.close(replica, now, true);
    d.take_replica_down(replica);
    true
}

/// Brings `replica` back with a clean image unless it is already up.
fn restore(d: &mut Deployment, replica: u32) {
    if !d.replica_up(replica) {
        d.restore_replica(replica);
    }
}

/// Runs one (shape, policy) campaign end to end.
fn run_policy(seed: u64, shape: Shape, policy: Policy, waves: u64) -> PolicyOutcome {
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(seed, prime_cfg, None);
    let n = prime_cfg.n();

    // Train the per-subject MANA instances on clean operation. A zero-wave
    // run has no campaign to detect, so it skips straight to quiescence
    // (keeps the `--days 0` CLI smoke cheap).
    let mut mana = SubjectMana::new(&d, n);
    let chunks = if waves == 0 {
        0
    } else {
        TRAINING.as_micros() / SimDuration::from_millis(500).as_micros()
    };
    // The capture starts here, after boot and ARP.
    let tap = d.sim.add_tap(d.external_switch);
    for _ in 0..chunks {
        d.run_for(SimDuration::from_millis(500));
        let records = d.sim.drain_tap(tap);
        mana.ingest(&records, d.now());
    }
    mana.finish_training(d.now());

    // Campaign setup: plan + attacker + checker + policy.
    let t0 = d.now();
    let horizon = shape.wave().saturating_mul(waves);
    let attacker = shape.attacker(&d, t0, waves);
    d.attach_external_attacker(attacker_spec(attacker));

    let mut checker = InvariantChecker::new(CheckerConfig::for_prime(&prime_cfg), &d);
    let mut driver = ChaosDriver::new(shape.plan(waves));
    // The controller and the score read what the campaign journals.
    let mut cursor = d.obs.journal_len();

    let mut scheduler = match policy {
        Policy::Periodic => RecoveryScheduler::new(n, prime_cfg.k, PERIODIC_INTERVAL, DOWNTIME),
        // Feedback never uses the periodic clock; the huge interval
        // leaves only the trigger path (and its variant rotation) live.
        Policy::Feedback => RecoveryScheduler::new(n, prime_cfg.k, horizon + WARMUP, DOWNTIME),
    };
    scheduler.align(t0);
    let controller = Controller::new(prime_cfg, &d.obs);
    let mut responder = Responder::new(policy, scheduler, controller);

    let mut log = CompromiseLog::new();
    // Availability probe: longest interval without global exec progress.
    let mut max_exec = 0u64;
    let mut last_progress = t0;
    let mut longest_stall = SimDuration::ZERO;

    let deadline = t0 + horizon;
    while d.now() < deadline {
        driver.run_soak(&mut d, &mut checker, TICK, TICK);
        let now = d.now();

        let records = d.sim.drain_tap(tap);
        mana.ingest(&records, now);
        mana.tick_scores();
        let journal = d.obs.journal_since(&mut cursor);
        log.note_journal(&journal);

        responder.tick(&mut d, &mut log, now, |d| ControllerInput {
            now,
            replicas: (0..n)
                .map(|r| {
                    let health = d.replica_health(r);
                    ReplicaObservation {
                        replica: r,
                        up: d.replica_up(r),
                        anomaly_z: mana.replica_z(r as usize),
                        po_queue: health.po_queue,
                        tat_us: health.tat_us,
                        view: health.view,
                        catching_up: health.catching_up,
                    }
                })
                .collect(),
            proxies: vec![ProxyObservation {
                proxy: 0,
                anomaly_z: mana.proxy_z(),
            }],
            journal,
        });

        let exec = (0..n)
            .filter(|&r| d.replica_up(r))
            .map(|r| d.replica(r).replica.exec_seq())
            .max()
            .unwrap_or(0);
        if exec > max_exec {
            max_exec = exec;
            last_progress = now;
        }
        longest_stall = longest_stall.max(now.since(last_progress));
    }

    // End of campaign: bring every policy-downed replica back, heal the
    // remaining chaos windows, and let reconvergence finish.
    responder.restore_all(&mut d);
    driver.heal_all(&mut d, &mut checker);
    d.set_proxy_rate_limit(0, None);
    driver.run_quiesce(&mut d, &mut checker, SimDuration::from_secs(8), TICK);
    log.note_journal(&d.obs.journal_since(&mut cursor));

    let label = format!("{}.{}", shape.id(), policy.name());
    let meta = RunMeta::capture(&label, &d.obs, &d.sim);
    PolicyOutcome {
        policy: policy.name(),
        recoveries: d
            .obs
            .journal_count(|e| matches!(e, obs::Event::RecoveryStart { .. }))
            as u64,
        compromised_us: log.compromised_us,
        reaction_us: log.reaction_us,
        reacted: log.reacted,
        missed: log.missed,
        throttles: d
            .obs
            .journal_count(|e| matches!(e, obs::Event::ResponseActuation { actuator: 2, .. }))
            as u64,
        updates_throttled: d.proxy(0).stats.updates_throttled,
        anomaly_windows: mana.flagged_windows(),
        transitions: d
            .obs
            .journal_count(|e| matches!(e, obs::Event::ResponseTransition { .. }))
            as u64,
        invariants: checker.reports(),
        all_green: checker.all_green(),
        min_executed: d.min_executed(),
        longest_stall_us: longest_stall.as_micros(),
        meta,
    }
}

/// E16 — one campaign shape, both policies, same seed and ground truth.
/// `days` is the wave count (0 = setup smoke only).
pub fn e16_campaign(seed: u64, shape: Shape, days: u64) -> CampaignRun {
    CampaignRun {
        id: shape.id(),
        shape: shape.name(),
        waves: days,
        periodic: run_policy(seed, shape, Policy::Periodic, days),
        feedback: run_policy(seed, shape, Policy::Feedback, days),
    }
}

/// Negative control: a deliberately over-budget crash plan (no MANA, no
/// attacker) with the checker forced armed. Bounded-delay must trip under
/// *both* policies — the closed loop does not mask genuine over-budget
/// outages. Returns the per-invariant reports.
pub fn e16_beyond_budget(seed: u64, policy: Policy) -> Vec<InvariantReport> {
    let prime_cfg = PrimeConfig::plant();
    let mut d = chaos_rig(seed, prime_cfg, None);
    let n = prime_cfg.n();
    let horizon = SimDuration::from_secs(10);

    let mut checker_cfg = CheckerConfig::for_prime(&prime_cfg);
    checker_cfg.assume_within_budget = true;
    let mut checker = InvariantChecker::new(checker_cfg, &d);
    let mut driver = ChaosDriver::new(ChaosPlan::beyond_budget_crashes(prime_cfg.f, horizon));
    let mut cursor = d.obs.journal_len();

    let mut scheduler = RecoveryScheduler::new(n, prime_cfg.k, PERIODIC_INTERVAL, DOWNTIME);
    scheduler.align(d.now());
    let controller = Controller::new(prime_cfg, &d.obs);
    let mut responder = Responder::new(policy, scheduler, controller);
    let mut log = CompromiseLog::new();

    let deadline = d.now() + horizon;
    while d.now() < deadline {
        driver.run_soak(&mut d, &mut checker, TICK, TICK);
        let now = d.now();
        let journal = d.obs.journal_since(&mut cursor);
        responder.tick(&mut d, &mut log, now, |d| ControllerInput {
            now,
            replicas: (0..n)
                .map(|r| ReplicaObservation {
                    replica: r,
                    up: d.replica_up(r),
                    ..ReplicaObservation::default()
                })
                .collect(),
            proxies: Vec::new(),
            journal,
        });
    }
    checker.reports()
}

fn render_policy(out: &mut String, p: &PolicyOutcome) {
    out.push_str(&format!(
        "  {:<9} compromised {:>7.3}s  reaction p99 {:>7.3}s  reacted {}/{}  \
         recoveries {:>2}  throttles {}  stall {:>6.3}s  min-exec {:>5}  {}\n",
        p.policy,
        p.compromised_us as f64 / 1e6,
        p.reaction_p99_us() as f64 / 1e6,
        p.reacted,
        p.reacted + p.missed,
        p.recoveries,
        p.throttles,
        p.longest_stall_us as f64 / 1e6,
        p.min_executed,
        if p.all_green { "GREEN" } else { "RED" },
    ));
}

/// Renders one campaign's periodic-vs-feedback table.
pub fn render_campaign(run: &CampaignRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} campaign \"{}\": {} wave(s)\n",
        run.id, run.shape, run.waves
    ));
    render_policy(&mut out, &run.periodic);
    render_policy(&mut out, &run.feedback);
    let (p, f) = (run.periodic.compromised_us, run.feedback.compromised_us);
    if p > 0 {
        out.push_str(&format!(
            "  feedback cuts time-in-compromised-state {:.1}x ({:.3}s -> {:.3}s)\n",
            p as f64 / (f.max(1)) as f64,
            p as f64 / 1e6,
            f as f64 / 1e6
        ));
    }
    out.push_str(&format!(
        "  anomaly windows flagged: periodic {} feedback {}   mode transitions: {}\n",
        run.periodic.anomaly_windows, run.feedback.anomaly_windows, run.feedback.transitions
    ));
    out
}

fn policy_json(p: &PolicyOutcome) -> Json {
    Json::Obj(vec![
        ("policy", p.policy.into()),
        ("compromised_us", p.compromised_us.into()),
        ("reaction_p99_us", p.reaction_p99_us().into()),
        ("reaction_us", p.reaction_us.iter().copied().collect()),
        ("reacted", p.reacted.into()),
        ("missed", p.missed.into()),
        ("recoveries", p.recoveries.into()),
        ("throttles", p.throttles.into()),
        ("updates_throttled", p.updates_throttled.into()),
        ("anomaly_windows", p.anomaly_windows.into()),
        ("transitions", p.transitions.into()),
        ("longest_stall_us", p.longest_stall_us.into()),
        ("min_executed", p.min_executed.into()),
        ("all_green", p.all_green.into()),
        ("invariants", json::invariants(&p.invariants)),
        ("journal_digest", p.meta.journal_digest.as_str().into()),
    ])
}

/// One campaign as JSON (for `spire-sim e16 --json`).
pub fn campaign_json(run: &CampaignRun) -> Json {
    Json::Obj(vec![
        ("id", run.id.into()),
        ("shape", run.shape.into()),
        ("waves", run.waves.into()),
        ("periodic", policy_json(&run.periodic)),
        ("feedback", policy_json(&run.feedback)),
    ])
}
