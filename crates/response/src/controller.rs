//! The deterministic feedback controller.
//!
//! Inputs are *observations* a real deployment could make — detector
//! scores, protocol health gauges, reachability, and the journal's
//! reconvergences and violations. The controller never reads fault
//! schedules or any other oracle: a compromised replica is found because
//! spoofed traffic lights up its MANA instance or its gauges degrade, not
//! because the harness whispered the injection.
//!
//! Safety argument (the budget guard): the controller initiates at most
//! `k` concurrent recoveries, refuses to start one while any replica is
//! unreachable for reasons it did not cause, and serializes its own
//! disruptive windows with a global cool-down plus a per-replica
//! re-recovery cool-down. With at most `f` intrusions assumed, the
//! live-fault set it can add to never exceeds the `3f + 2k + 1` sizing
//! the deployment was built for — mirroring the discipline
//! `ChaosPlan::within_budget` applies to fault schedules.

use obs::event::{Event, TimedEvent, INV_RECONVERGENCE};
use prime::types::Config;
use simnet::time::{SimDuration, SimTime};

/// Degraded-mode states, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResponseState {
    /// All quiet; no suspicion outstanding.
    Normal,
    /// At least one replica has accumulated (unconfirmed) suspicion.
    Suspicious,
    /// A proxy update-rate cap is in force.
    Throttled,
    /// A controller-initiated recovery has the suspect down.
    Isolating,
    /// A restored replica is still catching back up.
    Recovering,
}

impl ResponseState {
    /// Journal tag.
    pub fn tag(self) -> u8 {
        match self {
            ResponseState::Normal => 0,
            ResponseState::Suspicious => 1,
            ResponseState::Throttled => 2,
            ResponseState::Isolating => 3,
            ResponseState::Recovering => 4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ResponseState::Normal => "normal",
            ResponseState::Suspicious => "suspicious",
            ResponseState::Throttled => "throttled",
            ResponseState::Isolating => "isolating",
            ResponseState::Recovering => "recovering",
        }
    }
}

/// Transition/actuation cause tags (journaled in
/// [`obs::Event::ResponseTransition`]).
pub const REASON_ANOMALY: u8 = 0;
/// Health-gauge degradation (PO queue / TAT over the red line).
pub const REASON_HEALTH: u8 = 1;
/// View churn implicating an abandoned leader.
pub const REASON_VIEW_CHURN: u8 = 2;
/// Proxy flooding.
pub const REASON_FLOOD: u8 = 3;
/// A scheduled restore came due.
pub const REASON_RESTORE: u8 = 4;
/// The calm hysteresis window elapsed.
pub const REASON_CALM: u8 = 5;

/// One replica's observation for a controller tick.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaObservation {
    /// Replica index.
    pub replica: u32,
    /// Whether the replica's node is reachable.
    pub up: bool,
    /// Latest MANA peak z-score attributed to this replica's traffic
    /// (0.0 when no window scored recently).
    pub anomaly_z: f64,
    /// Flight-recorder PO-queue depth.
    pub po_queue: u32,
    /// Flight-recorder turnaround-time estimate, microseconds.
    pub tat_us: u64,
    /// Current view number.
    pub view: u64,
    /// Whether a catch-up (state transfer) is in progress.
    pub catching_up: bool,
}

/// One proxy's observation for a controller tick.
#[derive(Clone, Copy, Debug)]
pub struct ProxyObservation {
    /// Proxy index.
    pub proxy: u32,
    /// Latest MANA peak z-score attributed to this proxy's traffic.
    pub anomaly_z: f64,
}

/// Everything the controller sees in one tick.
#[derive(Clone, Debug, Default)]
pub struct ControllerInput {
    /// Simulated time of the tick.
    pub now: SimTime,
    /// Per-replica observations, in replica-index order.
    pub replicas: Vec<ReplicaObservation>,
    /// Per-proxy observations, in proxy-index order.
    pub proxies: Vec<ProxyObservation>,
    /// Journal records appended since the previous tick.
    pub journal: Vec<TimedEvent>,
}

impl Default for ReplicaObservation {
    fn default() -> Self {
        ReplicaObservation {
            replica: 0,
            up: true,
            anomaly_z: 0.0,
            po_queue: 0,
            tat_us: 0,
            view: 0,
            catching_up: false,
        }
    }
}

/// An actuator command the caller must apply to the deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Actuation {
    /// Take `replica` down for an immediate clean-image recovery.
    TakeDown {
        /// Suspect replica.
        replica: u32,
    },
    /// Restore `replica` (its recovery downtime elapsed).
    Restore {
        /// Recovering replica.
        replica: u32,
    },
    /// Cap proxy `proxy`'s status-update rate.
    Throttle {
        /// Flooding proxy.
        proxy: u32,
        /// Minimum spacing between updates.
        min_interval: SimDuration,
    },
    /// Lift the cap on proxy `proxy`.
    Unthrottle {
        /// Calmed proxy.
        proxy: u32,
    },
}

impl Actuation {
    /// Journal actuator tag.
    pub fn tag(self) -> u8 {
        match self {
            Actuation::TakeDown { .. } => 0,
            Actuation::Restore { .. } => 1,
            Actuation::Throttle { .. } => 2,
            Actuation::Unthrottle { .. } => 3,
        }
    }

    /// Target component.
    pub fn target(self) -> u32 {
        match self {
            Actuation::TakeDown { replica } | Actuation::Restore { replica } => replica,
            Actuation::Throttle { proxy, .. } | Actuation::Unthrottle { proxy } => proxy,
        }
    }

    /// Journal parameter (throttle interval in µs, else 0).
    pub fn param(self) -> u64 {
        match self {
            Actuation::Throttle { min_interval, .. } => min_interval.as_micros(),
            _ => 0,
        }
    }
}

/// Per-replica z-score at/above which a tick counts anomalous.
const SUSPECT_Z: f64 = 6.0;
/// Per-proxy z-score at/above which a throttle engages.
const FLOOD_Z: f64 = 8.0;
/// Consecutive anomalous ticks before a recovery is triggered.
const CONFIRM_TICKS: u32 = 3;
/// Consecutive calm ticks before de-escalating to Normal (and before a
/// throttle lifts) — the hysteresis that prevents flapping.
const CALM_TICKS: u32 = 30;
/// TAT red line, microseconds.
const TAT_RED_US: u64 = 3_000_000;
/// PO-queue red line.
const PO_QUEUE_RED: u32 = 500;
/// How long a triggered recovery keeps the replica down.
pub const RECOVERY_DOWNTIME: SimDuration = SimDuration::from_millis(1_200);
/// Minimum spacing between controller-initiated disruptive windows
/// (measured restore-to-next-takedown).
pub const COOLDOWN: SimDuration = SimDuration::from_secs(3);
/// Minimum spacing between recoveries of the *same* replica.
pub const REPLICA_COOLDOWN: SimDuration = SimDuration::from_secs(10);
/// Update cap pushed into a throttled proxy.
const THROTTLE_INTERVAL: SimDuration = SimDuration::from_millis(400);

/// The feedback controller. Pure state machine: [`Controller::step`] is
/// deterministic in (config, observation stream); all time comes from
/// the input.
pub struct Controller {
    /// The deployment's configuration: its replicas, leader rotation and
    /// the recovery budget `k` the controller must respect.
    cfg: Config,
    state: ResponseState,
    obs: obs::ObsHub,
    /// Per-replica consecutive-anomalous-tick counters.
    suspicion: Vec<u32>,
    /// Cause tag of each replica's latest suspicion increment.
    suspect_reason: Vec<u8>,
    /// Highest view observed so far.
    last_view: u64,
    /// Controller-initiated downs: (replica, restore due).
    down: Vec<(u32, SimTime)>,
    /// Restored replicas not yet confirmed reconverged, with a
    /// consecutive-healthy-tick streak as the journal-less fallback.
    awaiting: Vec<(u32, u32)>,
    /// When the controller's last disruptive window ended.
    last_window_end: SimTime,
    /// Per-replica last restore time.
    last_recovered: Vec<Option<SimTime>>,
    /// Per-proxy throttle flags and calm streaks.
    throttled: Vec<bool>,
    proxy_calm: Vec<u32>,
    /// Consecutive globally-calm ticks (hysteresis toward Normal).
    calm_streak: u32,
}

impl Controller {
    /// A controller in `Normal` state for the deployment built with `cfg`.
    /// Every actuation and state transition is journaled on `hub` as
    /// [`obs::Event::ResponseActuation`] / [`ResponseTransition`], folding
    /// the controller's behavior into the run digest.
    ///
    /// [`ResponseTransition`]: obs::Event::ResponseTransition
    pub fn new(cfg: Config, hub: &obs::ObsHub) -> Self {
        let n = cfg.n() as usize;
        Controller {
            cfg,
            state: ResponseState::Normal,
            obs: hub.clone(),
            suspicion: vec![0; n],
            suspect_reason: vec![REASON_ANOMALY; n],
            last_view: 0,
            down: Vec::new(),
            awaiting: Vec::new(),
            last_window_end: SimTime::ZERO,
            last_recovered: vec![None; n],
            throttled: Vec::new(),
            proxy_calm: Vec::new(),
            calm_streak: 0,
        }
    }

    /// Current degraded-mode state.
    pub fn state(&self) -> ResponseState {
        self.state
    }

    /// Replicas currently down on the controller's initiative.
    pub fn isolated(&self) -> Vec<u32> {
        self.down.iter().map(|(r, _)| *r).collect()
    }

    /// Journals `act` and hands it to the caller through `out`.
    fn emit(&self, act: Actuation, out: &mut Vec<Actuation>) {
        self.obs.journal(obs::Event::ResponseActuation {
            actuator: act.tag(),
            target: act.target(),
            param: act.param(),
        });
        out.push(act);
    }

    fn transition(&mut self, to: ResponseState, reason: u8) {
        if to == self.state {
            return;
        }
        let from = self.state;
        self.state = to;
        self.obs.journal(obs::Event::ResponseTransition {
            from: from.tag(),
            to: to.tag(),
            reason,
        });
    }

    /// One controller tick: consumes the observations, returns the
    /// actuations the caller must apply. Call at a fixed cadence.
    pub fn step(&mut self, input: &ControllerInput) -> Vec<Actuation> {
        let now = input.now;
        let n = self.cfg.n() as usize;
        self.throttled
            .resize(input.proxies.len().max(self.throttled.len()), false);
        self.proxy_calm.resize(self.throttled.len(), 0);
        let mut out = Vec::new();

        // 1. Journal: recovery confirmations and violation evidence. All
        //    else, injections above all, is ignored — detection must come
        //    from observable behavior, not the fault schedule.
        let mut violation_seen = false;
        for rec in &input.journal {
            match rec.event {
                Event::Reconverged { replica, .. } => {
                    self.awaiting.retain(|(r, _)| *r != replica);
                }
                Event::InvariantViolation {
                    invariant: INV_RECONVERGENCE,
                    detail,
                } => {
                    // A failed catch-up keeps the replica suspect; the
                    // per-replica cool-down spaces any re-recovery.
                    self.awaiting.retain(|(r, _)| u64::from(*r) != detail);
                    if detail < n as u64 {
                        self.suspicion[detail as usize] = CONFIRM_TICKS;
                        self.suspect_reason[detail as usize] = REASON_HEALTH;
                    }
                }
                Event::InvariantViolation { .. } => violation_seen = true,
                _ => {}
            }
        }

        // 2. Restores that came due.
        let due: Vec<u32> = self
            .down
            .iter()
            .filter(|(_, t)| now >= *t)
            .map(|(r, _)| *r)
            .collect();
        for r in due {
            self.down.retain(|(dr, _)| *dr != r);
            self.last_window_end = now;
            self.last_recovered[r as usize] = Some(now);
            self.awaiting.push((r, 0));
            self.emit(Actuation::Restore { replica: r }, &mut out);
            self.transition(ResponseState::Recovering, REASON_RESTORE);
        }

        // 3. View churn: a view change abandons a leader; the abandoned
        //    leader earns suspicion (classic BFT forensics heuristic).
        let max_view = input
            .replicas
            .iter()
            .map(|r| r.view)
            .max()
            .unwrap_or(self.last_view);
        if max_view > self.last_view {
            let suspect = self.cfg.leader_of(self.last_view).0 as usize;
            self.suspicion[suspect] = self.suspicion[suspect].saturating_add(1);
            self.suspect_reason[suspect] = REASON_VIEW_CHURN;
            self.last_view = max_view;
        }

        // 4. Per-replica suspicion from detector scores and gauges.
        let mut external_down = false;
        for ob in &input.replicas {
            let r = ob.replica as usize;
            if r >= n {
                continue;
            }
            let ours = self.down.iter().any(|(dr, _)| *dr == ob.replica);
            if !ob.up && !ours {
                external_down = true;
            }
            if !ob.up || ob.catching_up || ours {
                continue;
            }
            let anomalous_det = ob.anomaly_z >= SUSPECT_Z;
            let anomalous_health = ob.tat_us >= TAT_RED_US || ob.po_queue >= PO_QUEUE_RED;
            if anomalous_det || anomalous_health {
                self.suspicion[r] = self.suspicion[r].saturating_add(1);
                self.suspect_reason[r] = if anomalous_det {
                    REASON_ANOMALY
                } else {
                    REASON_HEALTH
                };
            } else {
                self.suspicion[r] = self.suspicion[r].saturating_sub(1);
            }
            // A restored replica that looks healthy for a confirmation
            // streak counts as reconverged even with no journal record.
            if let Some(entry) = self.awaiting.iter_mut().find(|(ar, _)| *ar == ob.replica) {
                if !ob.catching_up && self.suspicion[r] == 0 {
                    entry.1 += 1;
                } else {
                    entry.1 = 0;
                }
            }
        }
        self.awaiting.retain(|(_, streak)| *streak < CONFIRM_TICKS);

        // 5. Proxy throttling.
        for ob in &input.proxies {
            let p = ob.proxy as usize;
            if p >= self.throttled.len() {
                continue;
            }
            if !self.throttled[p] && ob.anomaly_z >= FLOOD_Z {
                self.throttled[p] = true;
                self.proxy_calm[p] = 0;
                self.emit(
                    Actuation::Throttle {
                        proxy: ob.proxy,
                        min_interval: THROTTLE_INTERVAL,
                    },
                    &mut out,
                );
                self.transition(ResponseState::Throttled, REASON_FLOOD);
            } else if self.throttled[p] {
                if ob.anomaly_z < SUSPECT_Z {
                    self.proxy_calm[p] += 1;
                } else {
                    self.proxy_calm[p] = 0;
                }
                if self.proxy_calm[p] >= CALM_TICKS {
                    self.throttled[p] = false;
                    self.emit(Actuation::Unthrottle { proxy: ob.proxy }, &mut out);
                }
            }
        }

        // 6. The budget-guarded recovery trigger: pick the most-suspect
        //    confirmed replica, if any, and only when a new disruptive
        //    window is safe to open.
        let budget_free = (self.down.len() as u32) < self.cfg.k
            && !external_down
            && now.since(self.last_window_end) >= COOLDOWN;
        if budget_free {
            let mut best: Option<(u32, u32)> = None; // (suspicion, replica)
            for ob in &input.replicas {
                let r = ob.replica as usize;
                if r >= n || !ob.up || ob.catching_up {
                    continue;
                }
                if self.down.iter().any(|(dr, _)| *dr == ob.replica) {
                    continue;
                }
                if self.suspicion[r] < CONFIRM_TICKS {
                    continue;
                }
                if let Some(at) = self.last_recovered[r] {
                    if now.since(at) < REPLICA_COOLDOWN {
                        continue;
                    }
                }
                let candidate = (self.suspicion[r], ob.replica);
                // Highest suspicion wins; ties go to the lowest index.
                let better = match best {
                    None => true,
                    Some((s, r0)) => candidate.0 > s || (candidate.0 == s && candidate.1 < r0),
                };
                if better {
                    best = Some(candidate);
                }
            }
            if let Some((_, r)) = best {
                let reason = self.suspect_reason[r as usize];
                self.suspicion[r as usize] = 0;
                self.down.push((r, now + RECOVERY_DOWNTIME));
                self.emit(Actuation::TakeDown { replica: r }, &mut out);
                self.transition(ResponseState::Isolating, reason);
            }
        }

        // 7. Resolve the degraded-mode state with hysteresis.
        let active = if !self.down.is_empty() {
            Some(ResponseState::Isolating)
        } else if !self.awaiting.is_empty() {
            Some(ResponseState::Recovering)
        } else if self.throttled.iter().any(|t| *t) {
            Some(ResponseState::Throttled)
        } else if self.suspicion.iter().any(|s| *s > 0) {
            Some(ResponseState::Suspicious)
        } else {
            None
        };
        match active {
            Some(state) => {
                self.calm_streak = 0;
                // Escalation is immediate; de-escalation between elevated
                // states also tracks the live condition (the calm window
                // only gates the final drop to Normal).
                let reason = match state {
                    ResponseState::Isolating => self
                        .suspect_reason
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(REASON_ANOMALY),
                    ResponseState::Recovering => REASON_RESTORE,
                    ResponseState::Throttled => REASON_FLOOD,
                    _ => self
                        .suspect_reason
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(REASON_ANOMALY),
                };
                self.transition(state, reason);
            }
            None => {
                if violation_seen {
                    self.calm_streak = 0;
                } else if self.state != ResponseState::Normal {
                    self.calm_streak += 1;
                    if self.calm_streak >= CALM_TICKS {
                        self.transition(ResponseState::Normal, REASON_CALM);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::event::{INV_AGREEMENT, INV_BOUNDED_DELAY, INV_HMI_TRUTH};

    /// Actuations with journal tag `tag` that `hub` holds.
    fn actuations(hub: &obs::ObsHub, tag: u8) -> usize {
        hub.journal_count(
            |e| matches!(e, Event::ResponseActuation { actuator, .. } if *actuator == tag),
        )
    }

    fn quiet_input(now_ms: u64, n: u32) -> ControllerInput {
        ControllerInput {
            now: SimTime(now_ms * 1_000),
            replicas: (0..n)
                .map(|r| ReplicaObservation {
                    replica: r,
                    ..ReplicaObservation::default()
                })
                .collect(),
            proxies: vec![ProxyObservation {
                proxy: 0,
                anomaly_z: 0.0,
            }],
            journal: Vec::new(),
        }
    }

    #[test]
    fn quiet_stream_stays_normal_and_silent() {
        let hub = obs::ObsHub::new();
        let mut c = Controller::new(Config::plant(), &hub);
        for t in 0..100 {
            let acts = c.step(&quiet_input(t * 100, 6));
            assert!(acts.is_empty());
        }
        assert_eq!(c.state(), ResponseState::Normal);
        assert_eq!(hub.journal_len(), 0, "nothing journaled");
    }

    #[test]
    fn confirmed_anomaly_triggers_one_bounded_recovery() {
        let hub = obs::ObsHub::new();
        let mut c = Controller::new(Config::plant(), &hub);
        // Past the initial cool-down, replica 4 scores hot every tick.
        let mut took_down_at = None;
        for t in 0..200u64 {
            let mut input = quiet_input(4000 + t * 100, 6);
            if c.isolated().is_empty() {
                input.replicas[4].anomaly_z = 9.0;
            } else {
                input.replicas[4].up = false;
            }
            for act in c.step(&input) {
                if let Actuation::TakeDown { replica } = act {
                    assert_eq!(replica, 4);
                    assert!(took_down_at.is_none() || actuations(&hub, 0) <= 2);
                    took_down_at.get_or_insert(t);
                }
            }
            assert!(c.isolated().len() <= 1, "k = 1 respected");
        }
        let first = took_down_at.expect("recovery triggered");
        assert!(first >= 2, "confirmation ticks enforced, got {first}");
        assert!(actuations(&hub, 1) >= 1, "restored");
    }

    #[test]
    fn no_takedown_while_external_replica_down() {
        let mut c = Controller::new(Config::plant(), &obs::ObsHub::new());
        for t in 0..100u64 {
            let mut input = quiet_input(10_000 + t * 100, 6);
            input.replicas[2].up = false; // externally down, not ours
            input.replicas[4].anomaly_z = 12.0;
            for act in c.step(&input) {
                assert!(
                    !matches!(act, Actuation::TakeDown { .. }),
                    "budget guard must refuse while replica 2 is down"
                );
            }
        }
        assert!(c.suspicion.iter().any(|s| *s > 0));
        assert_eq!(c.state(), ResponseState::Suspicious);
    }

    #[test]
    fn flood_throttles_then_calm_unthrottles_with_hysteresis() {
        let hub = obs::ObsHub::new();
        let mut c = Controller::new(Config::plant(), &hub);
        let mut throttle_at = None;
        let mut unthrottle_at = None;
        for t in 0..100u64 {
            let mut input = quiet_input(t * 100, 6);
            input.proxies[0].anomaly_z = if t < 10 { 11.0 } else { 0.0 };
            for act in c.step(&input) {
                match act {
                    Actuation::Throttle { proxy, .. } => {
                        assert_eq!(proxy, 0);
                        throttle_at.get_or_insert(t);
                    }
                    Actuation::Unthrottle { .. } => {
                        unthrottle_at.get_or_insert(t);
                    }
                    _ => panic!("unexpected {act:?}"),
                }
            }
        }
        assert_eq!(throttle_at, Some(0));
        let lifted = unthrottle_at.expect("throttle lifted");
        // Last hot tick is t = 9, so the calm streak completes no
        // earlier than 9 + CALM_TICKS.
        assert!(
            lifted >= 9 + CALM_TICKS as u64,
            "hysteresis: lifted at {lifted}"
        );
        assert_eq!((actuations(&hub, 2), actuations(&hub, 3)), (1, 1));
    }

    /// Drives replica 4 hot until the controller takes it down, then down
    /// until it is restored. Returns the time of the restoring tick (ms).
    fn recover_replica_4(c: &mut Controller) -> u64 {
        for t in 0..200u64 {
            let now_ms = 4000 + t * 100;
            let mut input = quiet_input(now_ms, 6);
            if c.isolated().is_empty() {
                input.replicas[4].anomaly_z = 9.0;
            } else {
                input.replicas[4].up = false;
            }
            let acts = c.step(&input);
            if acts.contains(&Actuation::Restore { replica: 4 }) {
                return now_ms;
            }
        }
        panic!("replica 4 never restored");
    }

    fn record(event: obs::Event) -> TimedEvent {
        TimedEvent { at_us: 0, event }
    }

    #[test]
    fn reconverged_record_confirms_the_awaited_replica_once() {
        let mut c = Controller::new(Config::plant(), &obs::ObsHub::new());
        let restored_ms = recover_replica_4(&mut c);
        assert_eq!(c.awaiting, vec![(4, 0)]);
        let caught_up = record(Event::Reconverged {
            replica: 4,
            latency_us: 700_000,
        });
        for tick in 1..=2 {
            let mut input = quiet_input(restored_ms + tick * 100, 6);
            input.journal = vec![caught_up.clone()];
            c.step(&input);
            assert!(c.awaiting.is_empty());
        }
    }

    #[test]
    fn reconvergence_timeout_marks_the_replica_suspect() {
        let mut c = Controller::new(Config::plant(), &obs::ObsHub::new());
        let restored_ms = recover_replica_4(&mut c);
        // Replica 4 reports catching up, so this tick's observations
        // neither raise nor decay its suspicion.
        let mut input = quiet_input(restored_ms + 100, 6);
        input.replicas[4].catching_up = true;
        input.journal = vec![record(Event::InvariantViolation {
            invariant: INV_RECONVERGENCE,
            detail: 4,
        })];
        c.step(&input);
        assert!(c.awaiting.is_empty(), "a timeout ends the wait");
        assert_eq!(c.suspicion[4], CONFIRM_TICKS);
        assert_eq!(c.suspect_reason[4], REASON_HEALTH);
    }

    /// Feeds `c` quiet ticks with `event` journaled on every one, after a
    /// throttle put it in a non-Normal state. Returns the tick at which it
    /// settled back to Normal, if it did within the window.
    fn ticks_to_normal(event: Option<obs::Event>) -> Option<u64> {
        let mut c = Controller::new(Config::plant(), &obs::ObsHub::new());
        let mut input = quiet_input(0, 6);
        input.proxies[0].anomaly_z = 11.0;
        c.step(&input);
        for t in 1..200u64 {
            let mut input = quiet_input(t * 100, 6);
            input.journal = event.clone().map(record).into_iter().collect();
            c.step(&input);
            if c.state() == ResponseState::Normal {
                return Some(t);
            }
        }
        None
    }

    #[test]
    fn only_a_violation_other_than_a_timeout_resets_the_calm_streak() {
        let quiet = ticks_to_normal(None).expect("calm returns to Normal");
        // A timeout naming no replica the controller manages sets no
        // suspicion, which isolates its effect on the calm streak: none.
        let timeout = Event::InvariantViolation {
            invariant: INV_RECONVERGENCE,
            detail: 6,
        };
        assert_eq!(ticks_to_normal(Some(timeout)), Some(quiet));
        for invariant in [INV_AGREEMENT, INV_HMI_TRUTH, INV_BOUNDED_DELAY] {
            let violation = Event::InvariantViolation {
                invariant,
                detail: 0,
            };
            assert_eq!(ticks_to_normal(Some(violation)), None, "tag {invariant}");
        }
    }

    #[test]
    fn transitions_are_journaled_when_attached() {
        let hub = obs::ObsHub::new();
        let mut c = Controller::new(Config::plant(), &hub);
        let mut input = quiet_input(0, 6);
        input.proxies[0].anomaly_z = 11.0;
        c.step(&input);
        assert_eq!(
            hub.journal_count(|e| matches!(e, obs::Event::ResponseTransition { .. })),
            1
        );
        assert_eq!(
            hub.journal_count(|e| matches!(e, obs::Event::ResponseActuation { actuator: 2, .. })),
            1
        );
    }
}
