//! A deterministic in-memory cluster harness for tests and benchmarks.
//!
//! Runs `n` replicas over a simulated message fabric with uniform latency
//! and optional per-replica partitions. This is *not* the full `simnet`
//! deployment (the `spire` crate does that); it exists so Prime's protocol
//! logic can be exercised and benchmarked in isolation.

use std::collections::BTreeSet;

use bytes::Bytes;
use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use simnet::queue::EventQueue;
use simnet::time::{SimDuration, SimTime};

use crate::application::KvApp;
use crate::invariants::AgreementLedger;
use crate::messages::SignedMsg;
use crate::replica::{OutEvent, Replica, Timing};
use crate::types::{Config, ReplicaId, SignedUpdate, Update};

/// Seed base for replica keys (distinct from client seeds).
const REPLICA_KEY_SEED: u64 = 0x5250; // "RP"
const CLIENT_KEY_SEED: u64 = 0x434C; // "CL"

/// Uniform one-way message latency.
const LATENCY: SimDuration = SimDuration::from_millis(1);
/// Spacing of the replicas' ticks.
const TICK_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// The tick's queue key: above every message's creation sequence, so a
/// tick pops after every delivery due at the same instant.
const TICK_KEY: u64 = u64::MAX;

/// What the cluster's event queue holds.
enum Event {
    /// A message arriving at a replica.
    Deliver { to: ReplicaId, msg: SignedMsg },
    /// Every reachable replica runs its timers.
    Tick,
}

/// A deterministic cluster of [`Replica<KvApp>`]s.
pub struct Cluster {
    /// The replicas (index = id).
    pub replicas: Vec<Replica<KvApp>>,
    /// The hub every replica counts and journals on.
    pub obs: obs::ObsHub,
    now: SimTime,
    /// Creation sequence of the next message: its queue key.
    seq: u64,
    queue: EventQueue<Event>,
    client_keys: Vec<KeyPair>,
    client_seqs: Vec<u64>,
    /// Replica ids currently partitioned away (drop all their traffic).
    pub partitioned: BTreeSet<u32>,
    /// Execution log per replica: (exec_seq, client, client_seq).
    pub exec_logs: Vec<Vec<(u64, u32, u64)>>,
    /// Virtual time of each execution, parallel to `exec_logs`.
    pub exec_times: Vec<Vec<SimTime>>,
    /// Outbound-bandwidth model: virtual time a replica's NIC spends
    /// serializing one outgoing message. `None` (the default) keeps the
    /// classic infinite-capacity fabric that the protocol tests and E8
    /// rely on; E11 sets it to expose the ordering-saturation knee.
    out_cost: Option<SimDuration>,
    /// Per-replica NIC-free time under the bandwidth model.
    next_free: Vec<SimTime>,
    /// Uniform message-loss probability (0.0 = the classic lossless
    /// fabric). Applied per enqueued message with a seeded generator so
    /// lossy runs stay deterministic.
    loss: f64,
    /// splitmix64 state driving the loss rolls.
    loss_state: u64,
}

impl Cluster {
    /// Builds a cluster for `config` with `clients` registered clients and
    /// a uniform message latency of 1 ms.
    pub fn new(config: Config, clients: u32) -> Self {
        let n = config.n();
        let mut registry = KeyRegistry::new();
        let mut replica_keys = Vec::new();
        for i in 0..n {
            let kp = KeyPair::generate(REPLICA_KEY_SEED + i as u64);
            registry.register(Principal::Replica(i), kp.public_key());
            replica_keys.push(kp);
        }
        let mut client_keys = Vec::new();
        for c in 0..clients {
            let kp = KeyPair::generate(CLIENT_KEY_SEED + c as u64);
            registry.register(Principal::Client(c), kp.public_key());
            client_keys.push(kp);
        }
        let hub = obs::ObsHub::new();
        let replicas = replica_keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                Replica::new(
                    ReplicaId(i as u32),
                    config,
                    key,
                    registry.clone(),
                    KvApp::new(),
                    &hub,
                )
            })
            .collect();
        let mut queue = EventQueue::new();
        queue.insert(SimTime::ZERO.as_micros(), TICK_KEY, Event::Tick);
        Cluster {
            replicas,
            obs: hub,
            now: SimTime::ZERO,
            seq: 0,
            queue,
            client_keys,
            client_seqs: vec![0; clients as usize],
            partitioned: BTreeSet::new(),
            exec_logs: vec![Vec::new(); n as usize],
            exec_times: vec![Vec::new(); n as usize],
            out_cost: None,
            next_free: vec![SimTime::ZERO; n as usize],
            loss: 0.0,
            loss_state: 0,
        }
    }

    /// Enables the finite outbound-capacity model: every message a replica
    /// sends occupies its NIC for `per_msg` of virtual time, so a sender's
    /// messages serialize and queueing delay appears once the offered load
    /// exceeds what the NIC drains (the E11 saturation knee).
    pub fn set_out_cost(&mut self, per_msg: SimDuration) {
        self.out_cost = Some(per_msg);
    }

    /// Enables uniform message loss: each enqueued message is dropped with
    /// probability `loss`, rolled from a splitmix64 stream seeded by
    /// `seed` (same seed + same run ⇒ same drops).
    pub fn set_loss(&mut self, loss: f64, seed: u64) {
        self.loss = loss;
        self.loss_state = seed;
    }

    /// One deterministic Bernoulli roll from the loss stream.
    fn loss_roll(&mut self) -> bool {
        if self.loss <= 0.0 {
            return false;
        }
        // splitmix64: tiny, seedable, and plenty for a drop decision.
        self.loss_state = self.loss_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.loss_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.loss
    }

    /// Applies tighter timing to every replica (tests).
    pub fn set_timing(&mut self, timing: Timing) {
        for r in &mut self.replicas {
            r.set_timing(timing);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Signs and submits a client update to every replica (Spire clients
    /// multicast through Spines; every replica hears every update).
    pub fn submit(&mut self, client: u32, payload: impl Into<Bytes>) {
        let payload = payload.into();
        self.client_seqs[client as usize] += 1;
        let update = Update::new(client, self.client_seqs[client as usize], payload);
        let signed = SignedUpdate::sign(update, &mut self.client_keys[client as usize]);
        let now = self.now;
        for i in 0..self.replicas.len() {
            if self.partitioned.contains(&(i as u32)) {
                continue;
            }
            let events = self.replicas[i].submit(signed.clone(), now);
            self.dispatch(ReplicaId(i as u32), events);
        }
    }

    fn dispatch(&mut self, from: ReplicaId, events: Vec<OutEvent>) {
        for ev in events {
            match ev {
                OutEvent::Broadcast(env) => {
                    // Serialize-once: `env.wire` is the message's exact
                    // wire image, so its length is the per-copy byte cost.
                    obs::prof::charge_msg(
                        env.msg.msg.prof_stack(),
                        0,
                        env.wire.len() as u64 * (self.replicas.len() as u64 - 1),
                    );
                    for to in 0..self.replicas.len() as u32 {
                        if to != from.0 {
                            self.enqueue(ReplicaId(to), env.msg.clone());
                        }
                    }
                }
                OutEvent::Send(to, env) => {
                    obs::prof::charge_msg(env.msg.msg.prof_stack(), 0, env.wire.len() as u64);
                    self.enqueue(to, env.msg)
                }
                OutEvent::Execute {
                    exec_seq, update, ..
                } => {
                    let from = from.0 as usize;
                    self.exec_logs[from].push((exec_seq, update.client, update.client_seq));
                    self.exec_times[from].push(self.now);
                }
                _ => {}
            }
        }
    }

    fn enqueue(&mut self, to: ReplicaId, msg: SignedMsg) {
        if self.partitioned.contains(&msg.from.0) || self.partitioned.contains(&to.0) {
            return;
        }
        if self.loss_roll() {
            self.obs.journal(obs::Event::PacketDrop {
                node: to.0,
                kind: obs::event::DropKind::Loss,
            });
            return;
        }
        let at = match self.out_cost {
            Some(cost) => {
                let lane = &mut self.next_free[msg.from.0 as usize];
                let depart = (*lane).max(self.now) + cost;
                *lane = depart;
                depart + LATENCY
            }
            None => self.now + LATENCY,
        };
        self.queue
            .insert(at.as_micros(), self.seq, Event::Deliver { to, msg });
        self.seq += 1;
    }

    /// Runs the cluster for `dur` of virtual time.
    ///
    /// When `obs::prof` is enabled, this loop is the profiler's time
    /// source: every gap of virtual time is charged to exactly one
    /// stack — the message delivery or tick that ends it, or `idle`
    /// for the trailing drain — so the per-phase attribution rows
    /// telescope to the elapsed virtual time with zero remainder.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now + dur;
        let profiling = obs::prof::enabled();
        while let Some((at, _, event)) = self.queue.pop_due(deadline.as_micros()) {
            let dt = SimTime(at).since(self.now).as_micros();
            self.now = SimTime(at);
            let now = self.now;
            match event {
                Event::Deliver { to, msg } => {
                    if profiling {
                        let stack = msg.msg.prof_stack();
                        obs::prof::charge_time(stack, dt);
                        obs::prof::charge_msg(stack, 1, 0);
                    }
                    let events = self.replicas[to.0 as usize].on_message(msg, now);
                    self.dispatch(to, events);
                }
                Event::Tick => {
                    if profiling {
                        obs::prof::charge_time("prime;timer", dt);
                        obs::prof::charge_msg("prime;timer", 1, 0);
                    }
                    for i in 0..self.replicas.len() {
                        if self.partitioned.contains(&(i as u32)) {
                            continue;
                        }
                        let events = self.replicas[i].tick(now);
                        self.dispatch(ReplicaId(i as u32), events);
                    }
                    let next = (now + TICK_INTERVAL).as_micros();
                    self.queue.insert(next, TICK_KEY, Event::Tick);
                }
            }
        }
        if profiling {
            obs::prof::charge_time("idle", deadline.since(self.now).as_micros());
        }
        self.now = deadline;
    }

    /// Triggers proactive recovery on one replica.
    pub fn recover_replica(&mut self, id: ReplicaId) {
        let now = self.now;
        let events = self.replicas[id.0 as usize].recover(now);
        self.dispatch(id, events);
    }

    /// Ids of the reachable correct replicas: not partitioned, not Byzantine.
    fn correct(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.replicas.len()).filter(|&i| {
            !self.partitioned.contains(&(i as u32)) && !self.replicas[i].byz.is_byzantine()
        })
    }

    /// Minimum executed count across non-partitioned, correct replicas.
    pub fn min_executed(&self) -> u64 {
        let exec = self.correct().map(|i| self.replicas[i].exec_seq());
        exec.min().unwrap_or(0)
    }

    /// Asserts, through one [`AgreementLedger`], that the reachable
    /// correct replicas executed the same update at every execution
    /// sequence any of them logged, and hold the same application digest
    /// wherever two of them stand at the same sequence. Returns the
    /// number of distinct execution sequences logged.
    ///
    /// Logs are compared *by execution sequence*, not by log index: a
    /// replica that recovered mid-run resumes from a snapshot, so its
    /// local log legitimately starts (or has a gap) mid-stream.
    ///
    /// # Panics
    ///
    /// Panics (test-style) on divergence.
    pub fn assert_consistent(&self) -> usize {
        let mut ledger = AgreementLedger::default();
        for i in self.correct() {
            for &(exec_seq, client, client_seq) in &self.exec_logs[i] {
                let agreed = ledger.record_update(i as u32, exec_seq, (client, client_seq));
                agreed.unwrap_or_else(|d| panic!("{d}"));
            }
        }
        for i in self.correct() {
            let agreed = ledger.record_state(&self.replicas[i]);
            agreed.unwrap_or_else(|d| panic!("{d}"));
        }
        ledger.updates_recorded()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::application::Application;
    use crate::byzantine::ByzMode;

    /// Protocol timing tightened for short tests: a stalled leader is
    /// suspected after 400 ms.
    pub(crate) fn fast_timing() -> Timing {
        Timing {
            aru_interval: SimDuration::from_millis(10),
            pp_interval: SimDuration::from_millis(10),
            suspect_timeout: SimDuration::from_millis(400),
            checkpoint_interval: 10,
            catchup_timeout: SimDuration::from_millis(200),
        }
    }

    #[test]
    fn orders_and_executes_updates() {
        let mut c = Cluster::new(Config::red_team(), 2);
        c.set_timing(fast_timing());
        for i in 0..10 {
            c.submit(0, format!("k{i}=v{i}"));
            c.run_for(SimDuration::from_millis(50));
        }
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.min_executed(), 10);
        let len = c.assert_consistent();
        assert_eq!(len, 10);
        // Application state reflects the updates.
        assert_eq!(c.replicas[0].app().get(b"k3"), Some(b"v3".as_ref()));
    }

    /// Two correct replicas at one execution number are compared even when
    /// a replica standing elsewhere sits between them in id order.
    #[test]
    #[should_panic(expected = "application state diverged at seq 10: r0 vs r2")]
    fn assert_consistent_compares_non_adjacent_replicas() {
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        c.replicas[5].byz = ByzMode::Crashed;
        for i in 0..9 {
            c.submit(0, format!("k{i}=v"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.run_for(SimDuration::from_millis(500));
        // r1 misses the tenth update; r0, r2, r3 and r4 execute it.
        c.partitioned.insert(1);
        c.submit(0, "k9=v");
        c.run_for(SimDuration::from_millis(500));
        c.partitioned.clear();
        let execs: Vec<u64> = c.replicas[..5].iter().map(|r| r.exec_seq()).collect();
        assert_eq!(execs, [10, 9, 10, 10, 10]);
        // r0's state forks from its peers' at exec 10.
        let forged = Update::new(0, 99, "forged=1");
        c.replicas[0].app_mut().execute(&forged, 10);
        c.assert_consistent();
    }

    #[test]
    fn six_replica_plant_config_works() {
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        for i in 0..5 {
            c.submit(0, format!("b{i}=closed"));
        }
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.min_executed(), 5);
        c.assert_consistent();
    }

    #[test]
    fn tolerates_one_crashed_replica() {
        let mut c = Cluster::new(Config::red_team(), 1);
        c.set_timing(fast_timing());
        c.replicas[3].byz = ByzMode::Crashed;
        for i in 0..8 {
            c.submit(0, format!("x{i}=1"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_secs(1));
        assert_eq!(c.min_executed(), 8);
        c.assert_consistent();
    }

    /// Leader faults run at both ordering depths: one sequence in flight,
    /// and a batched four-deep window whose view-change votes can carry
    /// several prepared certificates.
    fn leader_fault_configs() -> [Config; 2] {
        [Config::red_team(), Config::red_team().with_batching(16, 4)]
    }

    #[test]
    fn crashed_leader_triggers_view_change_and_recovers_liveness() {
        for config in leader_fault_configs() {
            let mut c = Cluster::new(config, 1);
            c.set_timing(fast_timing());
            // Replica 0 leads view 0; crash it.
            c.replicas[0].byz = ByzMode::Crashed;
            c.submit(0, "a=1");
            c.run_for(SimDuration::from_secs(3));
            // The remaining replicas must have moved to view ≥ 1 and executed.
            for r in c.replicas.iter().skip(1) {
                assert!(r.view() >= 1, "{config:?}: {:?} still in view 0", r.id());
                assert_eq!(r.exec_seq(), 1, "{config:?}");
            }
            c.assert_consistent();
        }
    }

    #[test]
    fn delaying_leader_is_deposed() {
        for config in leader_fault_configs() {
            let mut c = Cluster::new(config, 1);
            c.set_timing(fast_timing());
            c.replicas[0].byz = ByzMode::DelayLeader(SimDuration::from_secs(30));
            for i in 0..3 {
                c.submit(0, format!("d{i}=1"));
            }
            c.run_for(SimDuration::from_secs(3));
            assert!(
                c.replicas[1].view() >= 1,
                "{config:?}: delaying leader was not deposed"
            );
            assert_eq!(c.min_executed(), 3, "{config:?}");
            c.assert_consistent();
        }
    }

    #[test]
    fn mute_leader_is_deposed() {
        for config in leader_fault_configs() {
            let mut c = Cluster::new(config, 1);
            c.set_timing(fast_timing());
            c.replicas[0].byz = ByzMode::MuteLeader;
            c.submit(0, "m=1");
            c.run_for(SimDuration::from_secs(3));
            assert!(c.replicas[2].view() >= 1, "{config:?}");
            assert_eq!(c.min_executed(), 1, "{config:?}");
            c.assert_consistent();
        }
    }

    #[test]
    fn proactive_recovery_catches_up_via_state_transfer() {
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        for i in 0..12 {
            c.submit(0, format!("pre{i}=x"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.min_executed(), 12);
        // Recover replica 5: it wipes state and must state-transfer back.
        c.recover_replica(ReplicaId(5));
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.replicas[5].exec_seq(), 12, "recovered replica caught up");
        c.assert_consistent();
        assert_eq!(
            c.exec_logs[5].len(),
            12,
            "by a snapshot, not by re-executing"
        );
        // And it continues executing new updates.
        c.submit(0, "post=1");
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.replicas[5].exec_seq(), 13);
    }

    #[test]
    fn recovery_during_load_keeps_cluster_live() {
        // Plant config: f=1, k=1 → can lose one to recovery and one to
        // intrusion simultaneously.
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        c.replicas[4].byz = ByzMode::Crashed; // the "intrusion"
        for i in 0..5 {
            c.submit(0, format!("w{i}=1"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.recover_replica(ReplicaId(5));
        for i in 5..10 {
            c.submit(0, format!("w{i}=1"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.run_for(SimDuration::from_secs(1));
        // The four healthy replicas plus the recovered one all execute.
        for (i, r) in c.replicas.iter().enumerate() {
            if i != 4 {
                assert_eq!(r.exec_seq(), 10, "replica {i}");
            }
        }
        c.assert_consistent();
    }

    #[test]
    fn partitioned_replica_catches_up_after_heal() {
        let mut c = Cluster::new(Config::red_team(), 1);
        c.set_timing(fast_timing());
        c.partitioned.insert(3);
        for i in 0..15 {
            c.submit(0, format!("p{i}=1"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.run_for(SimDuration::from_millis(300));
        assert_eq!(c.replicas[3].exec_seq(), 0);
        // Heal; checkpoints + catch-up bring it back.
        c.partitioned.clear();
        c.submit(0, "heal=1");
        c.run_for(SimDuration::from_secs(3));
        assert!(
            c.replicas[3].exec_seq() >= 15,
            "partitioned replica caught up, got {}",
            c.replicas[3].exec_seq()
        );
    }

    #[test]
    fn catchup_backoff_schedule_doubles_then_caps() {
        use crate::replica::catchup_backoff;
        let base = SimDuration::from_millis(200);
        // First retry waits one plain timeout (pre-backoff behaviour),
        // then the wait doubles per unanswered round and caps at 16×.
        let expect_ms = [200u64, 400, 800, 1600, 3200, 3200, 3200];
        for (attempt, &ms) in expect_ms.iter().enumerate() {
            assert_eq!(
                catchup_backoff(base, attempt as u32),
                SimDuration::from_millis(ms),
                "attempt {attempt}"
            );
        }
        assert_eq!(catchup_backoff(base, 40), SimDuration::from_millis(3200));
    }

    #[test]
    fn catchup_retransmits_follow_backoff_and_stay_bounded() {
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        for i in 0..5 {
            c.submit(0, format!("k{i}=v"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.min_executed(), 5);
        // Total blackout: every catch-up round goes unanswered. The
        // recovering replica must retransmit on the backoff schedule
        // (10 bounded retries ≈ 22 s at a 200 ms base) and then give up
        // rather than spin forever. It is cut off from the cluster and
        // ticked by hand, so what it sends is what its ticks return.
        c.partitioned.insert(5);
        c.recover_replica(ReplicaId(5));
        let start = c.now();
        let mut retransmits = 0;
        for step in 1..=3000u64 {
            let out = c.replicas[5].tick(start + TICK_INTERVAL.saturating_mul(step));
            retransmits += out
                .iter()
                .filter(|e| {
                    matches!(e, OutEvent::Broadcast(m)
                        if matches!(m.msg.msg, crate::messages::PrimeMsg::CatchupRequest { .. }))
                })
                .count();
            if step == 1000 {
                assert!(
                    (6..10).contains(&retransmits),
                    "backoff should have spaced retries out, got {retransmits} in 10 s"
                );
            }
        }
        assert_eq!(retransmits, 10);
        assert!(
            !c.replicas[5].is_catching_up(),
            "replica must give up after the attempt budget"
        );
    }

    /// Satellite: `Replica::recover()` + `request_catchup` under 30 %
    /// message loss must still reconverge (retransmit-with-backoff rides
    /// over lost catch-up rounds). Returns the recovered replica's
    /// application digest for pinning.
    fn recovery_reconverges_under_loss(seed: u64) -> String {
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        for i in 0..20 {
            c.submit(0, format!("k{i}=v{i}"));
            c.run_for(SimDuration::from_millis(30));
        }
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.min_executed(), 20);
        c.set_loss(0.3, seed);
        c.recover_replica(ReplicaId(5));
        c.run_for(SimDuration::from_secs(20));
        assert_eq!(
            c.replicas[5].exec_seq(),
            20,
            "recovered replica reconverged under 30% loss (seed {seed})"
        );
        c.assert_consistent();
        c.replicas[5].app().digest().to_hex()
    }

    /// The reconvergence digest is a pure function of the 20 executed
    /// updates, so both loss seeds land on the same pinned state. It is a
    /// [`KvApp`] digest: the value follows that definition (an additive
    /// accumulator over the entries), not anything Prime does.
    const RECONVERGENCE_DIGEST: &str =
        "277bb372f444c174bcaac2c94eed51ca81384853caa6150a95cf1830bf2cb957";

    /// The pin is the fixture's, not the protocol's: the same twenty
    /// updates executed on a bare [`KvApp`] give it.
    #[test]
    fn reconvergence_digest_is_a_plain_kv_digest() {
        let mut app = KvApp::new();
        for i in 0..20 {
            app.execute(&Update::new(0, i + 1, format!("k{i}=v{i}")), i + 1);
        }
        assert_eq!(app.digest().to_hex(), RECONVERGENCE_DIGEST);
    }

    #[test]
    fn recovery_reconverges_under_30pct_loss_seed_42() {
        assert_eq!(recovery_reconverges_under_loss(42), RECONVERGENCE_DIGEST);
    }

    #[test]
    fn recovery_reconverges_under_30pct_loss_seed_1111() {
        assert_eq!(recovery_reconverges_under_loss(1111), RECONVERGENCE_DIGEST);
    }

    /// A recovered replica inherits its peers' duplicate-suppression
    /// table through catch-up: every update
    /// reaches every replica (each introduces it, like Spire's proxy
    /// multicast), so duplicate orderings keep arriving after the
    /// snapshot install, and without the table the recovered replica
    /// executes copies its peers suppressed — forking its execution
    /// numbering. Found by the chaos engine's agreement invariant.
    #[test]
    fn dedup_table_transfers_across_proactive_recovery() {
        let mut c = Cluster::new(Config::plant(), 2);
        c.set_timing(fast_timing());
        for i in 0..12 {
            c.submit(i % 2, format!("d{i}=v"));
            c.run_for(SimDuration::from_millis(60));
        }
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.min_executed(), 12);
        c.recover_replica(ReplicaId(5));
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.replicas[5].exec_seq(), 12, "recovery caught up");
        assert_eq!(
            c.exec_logs[5].len(),
            12,
            "by a snapshot, not by re-executing"
        );
        for i in 0..12 {
            c.submit(i % 2, format!("p{i}=v"));
            c.run_for(SimDuration::from_millis(60));
        }
        c.run_for(SimDuration::from_secs(1));
        // Identical execution numbering everywhere: duplicates suppressed
        // by veterans were also suppressed by the recovered replica.
        for r in &c.replicas {
            assert_eq!(r.exec_seq(), 24, "no duplicate executions leaked");
        }
        c.assert_consistent();
    }

    /// Losing a full "site" (replicas 3–5) leaves three survivors — below
    /// the static quorum of 4 — so ordering halts until the management
    /// plane installs a degraded membership epoch; under the epoch's
    /// majority quorum (2) ordering must continue among the survivors.
    #[test]
    fn degraded_epoch_orders_after_site_loss() {
        use crate::types::Membership;
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        for i in 0..6 {
            c.submit(0, format!("pre{i}=v"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_millis(400));
        assert_eq!(c.min_executed(), 6);
        c.partitioned.extend([3, 4, 5]);
        let now = c.now();
        for i in 0..3 {
            c.replicas[i].set_membership(Membership::degraded(vec![0, 1, 2]), now);
        }
        for i in 0..8 {
            c.submit(0, format!("sev{i}=v"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_secs(1));
        assert_eq!(c.min_executed(), 14, "ordering live in the degraded epoch");
        c.assert_consistent();
    }

    /// Losing the site that holds the view-0 leader: the epoch rotates
    /// leadership over its own member list, so members[0] leads the same
    /// view and no view change is needed to restore liveness.
    #[test]
    fn degraded_epoch_rotates_leadership_over_members() {
        use crate::types::Membership;
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        c.submit(0, "warm=v");
        c.run_for(SimDuration::from_secs(1));
        assert_eq!(c.min_executed(), 1);
        c.partitioned.extend([0, 1, 2]);
        let now = c.now();
        for i in 3..6 {
            c.replicas[i].set_membership(Membership::degraded(vec![3, 4, 5]), now);
        }
        assert!(c.replicas[3].is_leader(), "members[0] leads the epoch");
        for i in 0..5 {
            c.submit(0, format!("s{i}=v"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_secs(2));
        for r in c.replicas.iter().skip(3) {
            assert_eq!(r.exec_seq(), 6, "{:?} executed under the epoch", r.id());
        }
        c.assert_consistent();
    }

    /// Heal + failback: clearing the epoch restores the static quorum,
    /// the healed replicas catch up via checkpoints + state transfer, and
    /// the whole cluster converges on one history.
    #[test]
    fn failback_after_site_heal_restores_full_membership() {
        use crate::types::Membership;
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        for i in 0..6 {
            c.submit(0, format!("pre{i}=v"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_millis(400));
        assert_eq!(c.min_executed(), 6);
        c.partitioned.extend([3, 4, 5]);
        let now = c.now();
        for i in 0..3 {
            c.replicas[i].set_membership(Membership::degraded(vec![0, 1, 2]), now);
        }
        for i in 0..8 {
            c.submit(0, format!("sev{i}=v"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_secs(1));
        assert_eq!(c.min_executed(), 14);
        // Site heals: failback to the full configuration.
        c.partitioned.clear();
        for i in 0..3 {
            c.replicas[i].clear_membership();
        }
        for i in 0..6 {
            c.submit(0, format!("post{i}=v"));
            c.run_for(SimDuration::from_millis(40));
        }
        c.run_for(SimDuration::from_secs(5));
        for r in &c.replicas {
            assert_eq!(r.exec_seq(), 20, "{:?} converged after failback", r.id());
        }
        c.assert_consistent();
    }

    /// Messages from outside the epoch membership are dropped while the
    /// epoch is active: stale votes from the severed side must not count
    /// toward the reduced thresholds.
    #[test]
    fn epoch_ignores_non_member_messages() {
        use crate::types::Membership;
        let mut c = Cluster::new(Config::plant(), 1);
        c.set_timing(fast_timing());
        c.submit(0, "a=1");
        c.run_for(SimDuration::from_secs(1));
        let now = c.now();
        c.replicas[0].set_membership(Membership::degraded(vec![0, 1, 2]), now);
        // A perfectly valid checkpoint vote from r5 (a non-member) must
        // not be admitted while the epoch is active.
        let env = {
            let r5 = &mut c.replicas[5];
            let digest = r5.app().digest();
            let exec = r5.exec_seq();
            crate::messages::Envelope::sign(
                ReplicaId(5),
                crate::messages::PrimeMsg::Checkpoint {
                    exec_seq: exec,
                    app_digest: digest,
                },
                &mut KeyPair::generate(REPLICA_KEY_SEED + 5),
            )
        };
        let out = c.replicas[0].on_message(env.msg, now);
        assert!(out.is_empty(), "non-member message produced no effects");
        assert_eq!(
            c.obs.counter_value("prime.r0.bad_sigs"),
            0,
            "dropped unverified"
        );
        c.replicas[0].clear_membership();
        assert_eq!(
            c.replicas[0].membership(),
            &Membership::full(&Config::plant())
        );
    }

    #[test]
    fn duplicate_submissions_execute_once() {
        let mut c = Cluster::new(Config::red_team(), 1);
        c.set_timing(fast_timing());
        // submit() already fans out to all four replicas: each introduces
        // the update. Execution must happen exactly once per replica.
        c.submit(0, "only=once");
        c.run_for(SimDuration::from_secs(1));
        for log in &c.exec_logs {
            assert_eq!(log.len(), 1, "executed exactly once");
        }
        // Each replica introduced it separately; duplicates suppressed.
        for r in &c.replicas {
            assert_eq!(
                r.health_sample(c.now()).aru,
                4,
                "pre-ordered by every origin"
            );
        }
    }

    #[test]
    fn throughput_many_updates() {
        let mut c = Cluster::new(Config::red_team(), 4);
        c.set_timing(fast_timing());
        for batch in 0..20 {
            for client in 0..4 {
                c.submit(client, format!("c{client}b{batch}=v"));
            }
            c.run_for(SimDuration::from_millis(20));
        }
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.min_executed(), 80);
        c.assert_consistent();
    }
}
