//! The only file that names a product crate.
//!
//! Everything the benchmark asks of the system goes through the types
//! and functions here, in plain numbers and strings, so that the list of
//! product symbols a refactor must keep compiling is this file's `use`
//! block (repeated in README.md) and nothing else. Workload definitions
//! (sizes, rates, schedules, timing values) live in `workloads.rs` and
//! arrive here as arguments; nothing in this file chooses them.

use std::collections::VecDeque;
use std::hint::black_box;

use bytes::Bytes;
use chaos::driver::ChaosDriver;
use chaos::invariants::{CheckerConfig, InvariantChecker};
use chaos::plan::ChaosPlan;
use diversity::recovery::RecoveryScheduler;
use itcrypto::hmac::HmacKey;
use itcrypto::keys::KeyPair;
use itcrypto::merkle::MerkleTree;
use itcrypto::sha256::{sha256, Sha256};
use itcrypto::verify_cache::VerifyCache;
use modbus::frame::TcpFrame;
use modbus::pdu::{Request, Response};
use obs::event::{DropKind, Event};
use obs::prof;
use obs::ObsHub;
use plc::topology::Scenario;
use prime::application::Application;
use prime::harness::Cluster;
use prime::replica::Timing;
use prime::types::Config as PrimeConfig;
use scada::state::{Partitioning, ScadaState};
use scada::updates::{DeviceReport, ScadaUpdate};
use simnet::link::LinkSpec;
use simnet::packet::Packet;
use simnet::process::{Context, Process};
use simnet::queue::EventQueue;
use simnet::sim::{set_default_threads, InterfaceSpec, NodeSpec, Simulation};
use simnet::switch::SwitchMode;
use simnet::time::SimDuration;
use simnet::types::{IpAddr, Port};
use spines::config::{SpinesConfig, SpinesMode};
use spines::daemon::SpinesDaemon;
use spire::config::SpireConfig;
use spire::deploy::Deployment;
use spire::hardening::HardeningProfile;
use spire::latency::measure_spire;
use spire::site::SubstationTopology;

fn us(micros: u64) -> SimDuration {
    SimDuration::from_micros(micros)
}

// ---------------------------------------------------------------------
// Prime configuration, as plain numbers
// ---------------------------------------------------------------------

/// Prime's protocol cadence.
#[derive(Clone, Copy, Debug)]
pub struct PrimeTiming {
    pub aru_ms: u64,
    pub pre_prepare_ms: u64,
    pub suspect_ms: u64,
    pub checkpoint_every: u64,
    pub catchup_ms: u64,
}

impl PrimeTiming {
    fn to_product(self) -> Timing {
        Timing {
            aru_interval: SimDuration::from_millis(self.aru_ms),
            pp_interval: SimDuration::from_millis(self.pre_prepare_ms),
            suspect_timeout: SimDuration::from_millis(self.suspect_ms),
            checkpoint_interval: self.checkpoint_every,
            catchup_timeout: SimDuration::from_millis(self.catchup_ms),
        }
    }
}

/// The plant's Prime (f = 1, k = 1, six replicas). `batch_max` 0 is the
/// legacy per-update path; otherwise Merkle batches of up to `batch_max`
/// with `pipeline` sequences in flight.
#[derive(Clone, Copy, Debug)]
pub struct PrimeShape {
    pub batch_max: u32,
    pub pipeline: u32,
    pub transfer_dedup: bool,
}

impl PrimeShape {
    fn to_product(self) -> PrimeConfig {
        let mut cfg = if self.batch_max > 0 {
            PrimeConfig::plant().with_batching(self.batch_max, self.pipeline)
        } else {
            PrimeConfig::plant()
        };
        cfg.transfer_dedup = self.transfer_dedup;
        cfg
    }
}

// ---------------------------------------------------------------------
// Full-stack deployments
// ---------------------------------------------------------------------

/// Which deployment `Deployment::build` is asked for.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// `SpireConfig::plant()` cut to `proxies` proxies and `hmis` HMIs,
    /// HMI 0 cycling a breaker every `cycle_us`.
    Plant {
        proxies: usize,
        hmis: u32,
        cycle_us: u64,
    },
    /// `SpireConfig::minimal`: one proxy on the plant subset, one HMI.
    Minimal,
    /// `SpireConfig::regional`: `substations` proxies, each sweeping a
    /// bank of `devices_per` PLCs into one coalesced report.
    Regional { substations: u32, devices_per: u32 },
}

/// Counters and journal length of a run so far.
pub struct ObsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub journal_records: u64,
}

/// One row of the simulated-cost profile (`obs::prof`).
pub struct ProfRow {
    pub stack: String,
    pub time_us: u64,
    pub bytes: u64,
    pub sign: u64,
    pub verify: u64,
    pub hmac: u64,
    pub events: u64,
}

/// A built deployment.
pub struct Spire {
    d: Deployment,
}

impl Spire {
    /// `Deployment::build` with the deployed hardening profile, then
    /// `timing` applied to every replica.
    pub fn build(topology: Topology, prime: PrimeShape, timing: PrimeTiming, seed: u64) -> Spire {
        let prime_cfg = prime.to_product();
        let cfg = match topology {
            Topology::Plant {
                proxies,
                hmis,
                cycle_us,
            } => {
                let mut cfg = SpireConfig::plant();
                cfg.prime = prime_cfg;
                cfg.proxies.truncate(proxies);
                cfg.hmis = hmis;
                cfg.with_cycle(Scenario::PlantSubset, us(cycle_us), 0)
            }
            Topology::Minimal => SpireConfig::minimal(prime_cfg, Scenario::PlantSubset),
            Topology::Regional {
                substations,
                devices_per,
            } => {
                SpireConfig::regional(prime_cfg, SubstationTopology::new(substations, devices_per))
            }
        };
        let mut d = Deployment::build(cfg, HardeningProfile::deployed(), seed);
        for i in 0..prime_cfg.n() {
            d.replica_mut(i).set_timing(timing.to_product());
        }
        Spire { d }
    }

    /// Sets proxy `proxy`'s poll interval; `verbose` makes it report
    /// every poll, not only changes.
    pub fn set_polling(&mut self, proxy: u32, interval_us: u64, verbose: bool) {
        self.d.proxy_mut(proxy).set_poll_interval(us(interval_us));
        self.d.proxy_mut(proxy).verbose_updates = verbose;
    }

    pub fn run_us(&mut self, micros: u64) {
        self.d.run_for(us(micros));
    }

    pub fn now_us(&self) -> u64 {
        self.d.now().as_micros()
    }

    /// `Simulation::events_processed`.
    pub fn events(&self) -> u64 {
        self.d.sim.events_processed()
    }

    /// Updates executed by every replica that is up (`min_executed`).
    pub fn executed(&self) -> u64 {
        self.d.min_executed()
    }

    pub fn journal_digest(&self) -> String {
        self.d.obs.journal_digest().to_hex()
    }

    pub fn view_changes(&self) -> u64 {
        self.d
            .obs
            .journal_count(|e| matches!(e, Event::ViewChange { .. })) as u64
    }

    /// Whether the replicas at the head of the execution sequence hold
    /// identical application state.
    pub fn replicas_consistent(&self) -> bool {
        let states: Vec<_> = (0..self.d.cfg.n())
            .map(|i| {
                let r = &self.d.replica(i).replica;
                (r.exec_seq(), r.app().digest())
            })
            .collect();
        let head = states.iter().map(|(seq, _)| *seq).max().unwrap_or(0);
        let mut at_head = states.iter().filter(|(seq, _)| *seq == head);
        let first = at_head.next().map(|(_, digest)| *digest);
        at_head.all(|(_, digest)| Some(*digest) == first)
    }

    /// When HMI `hmi` applied each display update, µs.
    pub fn display_times_us(&self, hmi: u32) -> Vec<u64> {
        let log = &self.d.hmi(hmi).hmi.update_log;
        log.iter().map(|(at, _)| at.as_micros()).collect()
    }

    /// The §V measurement device (`spire::latency::measure_spire`): flips
    /// `breaker` behind proxy `proxy`, `period_us` apart, and reads HMI
    /// `hmi`'s sensor box. `None` is a flip the display never showed.
    pub fn measure_flips(
        &mut self,
        proxy: u32,
        breaker: u16,
        hmi: u32,
        flips: usize,
        period_us: u64,
    ) -> Vec<Option<u64>> {
        measure_spire(&mut self.d, proxy, breaker, hmi, flips, us(period_us))
            .iter()
            .map(|s| s.reaction().map(SimDuration::as_micros))
            .collect()
    }

    /// Points HMI `hmi`'s sensor box at `breaker` of the scenario `tag`.
    pub fn watch(&mut self, hmi: u32, tag: &str, breaker: u16) {
        self.d.hmi_mut(hmi).hmi.set_sensor_breaker(tag, breaker);
    }

    /// Physically operates `breaker` of PLC `plc` to the opposite
    /// position. Returns the new position.
    pub fn flip(&mut self, plc: u32, breaker: u16) -> bool {
        let now = self.d.now();
        let closed = !self.d.plc(plc).positions()[breaker as usize];
        self.d.plc_mut(plc).force_breaker(breaker, closed, now);
        closed
    }

    /// HMI `hmi`'s sensor-box transitions so far: `(at_us, white)`.
    pub fn box_transitions(&self, hmi: u32) -> Vec<(u64, bool)> {
        let log = &self.d.hmi(hmi).hmi.box_transitions;
        log.iter()
            .map(|&(at, white)| (at.as_micros(), white))
            .collect()
    }

    /// Every physical position change of PLC `plc`: `(at_us, breaker,
    /// closed)`.
    pub fn position_log(&self, plc: u32) -> Vec<(u64, u16, bool)> {
        let log = &self.d.plc(plc).position_log;
        log.iter()
            .map(|&(at, breaker, closed)| (at.as_micros(), breaker, closed))
            .collect()
    }

    /// `(device polls completed, status reports sent)` over every field
    /// proxy, whichever kind the topology has.
    pub fn poll_stats(&self) -> (u64, u64) {
        if self.d.cfg.substations.is_some() {
            (0..self.d.substation_count())
                .map(|s| self.d.substation_proxy(s).stats)
                .fold((0, 0), |(polls, reports), st| {
                    (polls + st.device_polls, reports + st.reports_sent)
                })
        } else {
            (0..self.d.cfg.proxies.len() as u32)
                .map(|p| self.d.proxy(p).stats)
                .fold((0, 0), |(polls, reports), st| {
                    (polls + st.polls_completed, reports + st.updates_sent)
                })
        }
    }

    /// `ObsHub::report()`, reduced to what the benchmark reads.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let report = self.d.obs.report();
        ObsSnapshot {
            counters: report.counters,
            journal_records: report.journal_len as u64,
        }
    }
}

/// Proactive recovery, one step at a time: what
/// `Deployment::run_with_recovery` does between its 500 ms steps, kept
/// here so the benchmark can time (and trace) each step on its own. A
/// `RecoveryScheduler(n, k, interval, downtime)` decides who goes down;
/// at most one replica is down at a time.
pub struct Recovery {
    scheduler: RecoveryScheduler,
    /// The replica that is down, and when its downtime ends, µs.
    down: Option<(u32, u64)>,
}

impl Recovery {
    pub fn new(spire: &Spire, k: u32, interval_us: u64, downtime_us: u64) -> Recovery {
        let n = spire.d.cfg.n();
        Recovery {
            scheduler: RecoveryScheduler::new(n, k, us(interval_us), us(downtime_us)),
            down: None,
        }
    }

    /// After the deployment advanced one step: restore the replica whose
    /// downtime is over, then take down whichever the scheduler says is
    /// due.
    pub fn after_step(&mut self, spire: &mut Spire) {
        let now = spire.d.now();
        if let Some((replica, finish_us)) = self.down {
            if now.as_micros() >= finish_us {
                spire.d.restore_replica(replica);
                self.down = None;
            }
        }
        if self.down.is_none() {
            for event in self.scheduler.poll(now) {
                spire.d.take_replica_down(event.replica);
                self.down = Some((event.replica, event.finish.as_micros()));
            }
        }
    }

    /// Restores a replica still down at the end. Returns the recoveries
    /// completed.
    pub fn finish(mut self, spire: &mut Spire) -> u64 {
        if let Some((replica, _)) = self.down.take() {
            spire.d.restore_replica(replica);
        }
        self.scheduler.completed
    }
}

/// Worker threads for every simulation built afterwards
/// (`simnet::sim::set_default_threads`).
pub fn set_threads(n: usize) {
    set_default_threads(n);
}

/// Runs `f` with `obs::prof` enabled on this thread and returns the
/// charges made meanwhile.
pub fn profiled<T>(f: impl FnOnce() -> T) -> (T, Vec<ProfRow>) {
    prof::set_enabled(true);
    let (out, profile) = prof::capture(f);
    prof::set_enabled(false);
    let rows = profile
        .rows()
        .map(|(stack, cost)| ProfRow {
            stack: stack.to_string(),
            time_us: cost.time_us,
            bytes: cost.bytes,
            sign: cost.sign,
            verify: cost.verify,
            hmac: cost.hmac,
            events: cost.events,
        })
        .collect();
    (out, rows)
}

// ---------------------------------------------------------------------
// Chaos
// ---------------------------------------------------------------------

/// A `ChaosPlan::within_budget` schedule with its driver and checker.
pub struct Soak {
    driver: ChaosDriver,
    checker: InvariantChecker,
    planned: u64,
    plan_text: String,
}

impl Soak {
    pub fn new(seed: u64, prime: PrimeShape, spire: &Spire, horizon_us: u64) -> Soak {
        let cfg = prime.to_product();
        let plan = ChaosPlan::within_budget(seed, cfg.n(), cfg.ordering_quorum(), us(horizon_us));
        Soak {
            planned: plan.faults.len() as u64,
            plan_text: plan.render(),
            checker: InvariantChecker::new(CheckerConfig::for_prime(&cfg), &spire.d),
            driver: ChaosDriver::new(plan),
        }
    }

    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// The fault plan as text (`ChaosPlan::render`), for the input digest.
    pub fn plan_text(&self) -> &str {
        &self.plan_text
    }

    /// `ChaosDriver::run_soak`: inject, heal, flip ground truth and check
    /// invariants every `step_us` for `dur_us`.
    pub fn run(&mut self, spire: &mut Spire, dur_us: u64, step_us: u64) {
        self.driver
            .run_soak(&mut spire.d, &mut self.checker, us(dur_us), us(step_us));
    }

    pub fn heal_all(&mut self, spire: &mut Spire) {
        self.driver.heal_all(&mut spire.d, &mut self.checker);
    }

    pub fn quiesce(&mut self, spire: &mut Spire, dur_us: u64, step_us: u64) {
        self.driver
            .run_quiesce(&mut spire.d, &mut self.checker, us(dur_us), us(step_us));
    }

    pub fn injected(&self) -> u64 {
        self.driver.total_injected()
    }

    /// `(invariant, checks, violations)` per invariant.
    pub fn invariants(&self) -> Vec<(String, u64, u64)> {
        self.checker
            .reports()
            .into_iter()
            .map(|r| (r.name.to_string(), r.checks, r.violations))
            .collect()
    }

    /// Heal → all replicas agree again, µs, one per heal that needed it.
    pub fn reconvergence_us(&self) -> Vec<u64> {
        self.checker.reconvergence_us.clone()
    }
}

// ---------------------------------------------------------------------
// Prime alone
// ---------------------------------------------------------------------

/// `prime::harness::Cluster`: six replicas over an in-memory fabric with
/// 1 ms latency; no `simnet`, no `spines`, no journal.
pub struct Ordering {
    c: Cluster,
}

impl Ordering {
    /// One client. `nic_us` is the outbound serialization cost per
    /// message (`set_out_cost`), the capacity model of the ramp.
    pub fn new(prime: PrimeShape, timing: PrimeTiming, nic_us: u64) -> Ordering {
        let mut c = Cluster::new(prime.to_product(), 1);
        c.set_timing(timing.to_product());
        c.set_out_cost(us(nic_us));
        Ordering { c }
    }

    pub fn run_us(&mut self, micros: u64) {
        self.c.run_for(us(micros));
    }

    pub fn now_us(&self) -> u64 {
        self.c.now().as_micros()
    }

    /// Signs and submits one update from client 0 to every replica.
    pub fn submit(&mut self, payload: String) {
        self.c.submit(0, payload);
    }

    /// Replica 0's executions of client 0's updates: `(client_seq,
    /// at_us)`, in execution order.
    pub fn executions(&self) -> Vec<(u64, u64)> {
        self.c.exec_logs[0]
            .iter()
            .zip(&self.c.exec_times[0])
            .filter(|((_, client, _), _)| *client == 0)
            .map(|(&(_, _, client_seq), at)| (client_seq, at.as_micros()))
            .collect()
    }

    /// `Cluster::assert_consistent`: panics if two correct replicas
    /// executed different updates at one sequence number. Returns the
    /// sequence numbers checked.
    pub fn assert_consistent(&self) -> u64 {
        self.c.assert_consistent() as u64
    }

    /// SHA-256 over replica 0's execution log and times: the cluster's
    /// stand-in for a journal digest.
    pub fn execution_digest(&self) -> String {
        let mut h = Sha256::new();
        for (&(seq, client, client_seq), at) in
            self.c.exec_logs[0].iter().zip(&self.c.exec_times[0])
        {
            h.update(&seq.to_be_bytes());
            h.update(&client.to_be_bytes());
            h.update(&client_seq.to_be_bytes());
            h.update(&at.as_micros().to_be_bytes());
        }
        h.finalize().to_hex()
    }
}

/// Hex SHA-256 of `text` (digests of generated inputs).
pub fn digest_hex(text: &str) -> String {
    sha256(text.as_bytes()).to_hex()
}

// ---------------------------------------------------------------------
// Replay kernels: one layer's public functions, alone, on inputs of a
// workload's size. Each kernel is built once (set-up excluded from the
// timing) and then called repeatedly; a call performs one batch and
// returns the operations it did.
// ---------------------------------------------------------------------

pub type Kernel = Box<dyn FnMut() -> u64>;

fn message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// `sha256` over `len` bytes.
pub fn kernel_sha256(len: usize) -> Kernel {
    let msg = message(len);
    let batch = (4_000_000 / (len as u64 + 64)).max(64);
    Box::new(move || {
        for _ in 0..batch {
            black_box(sha256(black_box(&msg)));
        }
        batch
    })
}

/// `HmacKey::mac` over `len` bytes (the Spines link tag).
pub fn kernel_hmac(len: usize) -> Kernel {
    let key = HmacKey::new(&[0x5E; 32]);
    let msg = message(len);
    let batch = (2_000_000 / (len as u64 + 128)).max(64);
    Box::new(move || {
        for _ in 0..batch {
            black_box(key.mac(black_box(&msg)));
        }
        batch
    })
}

/// `KeyPair::sign` over `len` bytes.
pub fn kernel_sign(len: usize) -> Kernel {
    let mut key = KeyPair::generate(7);
    let msg = message(len);
    Box::new(move || {
        for _ in 0..2_000 {
            black_box(key.sign(black_box(&msg)));
        }
        2_000
    })
}

/// `PublicKey::verify` over `len` bytes (a verify-cache miss).
pub fn kernel_verify(len: usize) -> Kernel {
    let mut key = KeyPair::generate(7);
    let msg = message(len);
    let sig = key.sign(&msg);
    let public = key.public_key();
    Box::new(move || {
        for _ in 0..2_000 {
            assert!(black_box(public.verify(black_box(&msg), &sig)));
        }
        2_000
    })
}

/// `VerifyCache::check` on a cached verdict (a verify-cache hit,
/// including building the cache key).
pub fn kernel_verify_cached(len: usize) -> Kernel {
    let mut key = KeyPair::generate(7);
    let msg = message(len);
    let sig = key.sign(&msg);
    let public = key.public_key();
    let mut cache = VerifyCache::new(1024);
    Box::new(move || {
        for _ in 0..20_000 {
            let k = VerifyCache::key(b"bench", public.0, black_box(&msg), &sig.to_bytes());
            assert!(black_box(cache.check(k, || public.verify(&msg, &sig))));
        }
        20_000
    })
}

/// `MerkleTree::from_leaves(..).root()` over `leaves` leaves of
/// `leaf_len` bytes (one Prime batch).
pub fn kernel_merkle_root(leaves: usize, leaf_len: usize) -> Kernel {
    let data: Vec<Vec<u8>> = (0..leaves).map(|i| message(leaf_len + i % 3)).collect();
    Box::new(move || {
        for _ in 0..2_000 {
            black_box(MerkleTree::from_leaves(black_box(&data)).root());
        }
        2_000
    })
}

/// `EventQueue` insert + pop held at `depth` pending events.
pub fn kernel_queue(depth: usize) -> Kernel {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut at = 0u64;
    // A fixed multiplicative scramble spreads insert times the way
    // timers and frame arrivals interleave; the queue never drains.
    let mut next_at = move || {
        at += 1;
        at + (at.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52)
    };
    for i in 0..depth as u64 {
        q.insert(next_at(), i, i);
    }
    Box::new(move || {
        for i in 0..200_000u64 {
            q.insert(next_at(), i, i);
            black_box(q.pop());
        }
        200_000
    })
}

const PING_PORT: Port = Port(4000);

/// Answers every datagram with one of the same size until `remaining`
/// runs out: all engine (queue, link, switch, host stack, dispatch), no
/// application work.
struct Pinger {
    peer: IpAddr,
    remaining: u64,
    starts: bool,
    payload: Bytes,
}

impl Pinger {
    fn send(&mut self, ctx: &mut Context<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let pkt = Packet::udp(
            ctx.ip(0),
            self.peer,
            PING_PORT,
            PING_PORT,
            self.payload.clone(),
        );
        ctx.send(0, pkt);
    }
}

impl Process for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.listen(PING_PORT);
        if self.starts {
            self.send(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _pkt: Packet) {
        self.send(ctx);
    }
}

/// The `simnet` engine alone: two hosts ping-pong `payload_len`-byte
/// datagrams through one switch. Operations are engine events.
pub fn kernel_engine(payload_len: usize) -> Kernel {
    const SENDS_PER_HOST: u64 = 10_000;
    let payload = Bytes::from(message(payload_len));
    Box::new(move || {
        let (ip_a, ip_b) = (IpAddr::new(10, 9, 0, 1), IpAddr::new(10, 9, 0, 2));
        let mut sim = Simulation::new(1);
        let mut host = |name: &str, ip: IpAddr, peer: IpAddr, starts: bool| {
            sim.add_node(NodeSpec::new(
                name,
                vec![InterfaceSpec::dynamic(ip)],
                Box::new(Pinger {
                    peer,
                    remaining: SENDS_PER_HOST,
                    starts,
                    payload: payload.clone(),
                }),
            ))
        };
        let a = host("a", ip_a, ip_b, true);
        let b = host("b", ip_b, ip_a, false);
        let sw = sim.add_switch(2, SwitchMode::Learning);
        sim.connect(a, 0, sw, 0, LinkSpec::lan());
        sim.connect(b, 0, sw, 1, LinkSpec::lan());
        sim.run_for(SimDuration::from_secs(3600));
        let done = sim.process_ref::<Pinger>(b).map_or(1, |p| p.remaining);
        assert_eq!(done, 0, "ping-pong ran to completion");
        sim.events_processed()
    })
}

/// The `spines` hop alone: `daemons` intrusion-tolerant daemons in a
/// full mesh; each call floods multicasts of `payload_len` bytes and
/// carries every resulting frame to its neighbour by hand (`multicast`
/// → `on_wire` → `take_deliveries`). Operations are frames opened.
pub fn kernel_spines(daemons: u32, payload_len: usize) -> Kernel {
    const GROUP: u16 = 1;
    let addr = |id: u32| IpAddr::new(10, 8, 0, id as u8 + 1);
    let cfg = SpinesConfig::full_mesh(
        (0..daemons).map(|id| (id, addr(id))),
        Port(8100),
        [0x6F; 32],
        SpinesMode::IntrusionTolerant,
    );
    let mut mesh: Vec<SpinesDaemon> = (0..daemons)
        .map(|id| {
            let mut d = SpinesDaemon::new(id, cfg.clone());
            d.subscribe(GROUP);
            d
        })
        .collect();
    let payload = Bytes::from(message(payload_len));
    Box::new(move || {
        let mut opened = 0;
        let mut wire: VecDeque<(IpAddr, IpAddr, Bytes)> = VecDeque::new();
        for round in 0..40 {
            let origin = round % daemons;
            let sends = mesh[origin as usize].multicast(GROUP, 1, payload.clone());
            wire.extend(
                sends
                    .into_iter()
                    .map(|(to, bytes)| (addr(origin), to, bytes)),
            );
            while let Some((from, to, bytes)) = wire.pop_front() {
                let id = to.0[3] as u32 - 1;
                let forwards = mesh[id as usize].on_wire(from, &bytes);
                opened += 1;
                wire.extend(forwards.into_iter().map(|(next, b)| (to, next, b)));
            }
            for d in &mut mesh {
                black_box(d.take_deliveries());
            }
        }
        opened
    })
}

/// Prime alone at a workload's own ordering load: a fresh `Cluster`
/// runs `sim_us` of simulated time with `updates` submissions spread
/// evenly over it. Operations are updates submitted (at least 1, so an
/// idle cluster still reports its cadence cost).
pub fn kernel_cluster(prime: PrimeShape, timing: PrimeTiming, updates: u64, sim_us: u64) -> Kernel {
    Box::new(move || {
        let mut c = Cluster::new(prime.to_product(), 1);
        c.set_timing(timing.to_product());
        let gap = sim_us / (updates + 1);
        for i in 0..updates {
            c.run_for(us(gap));
            c.submit(0, format!("k{i}=1"));
        }
        c.run_for(us(sim_us - gap * updates));
        black_box(c.min_executed());
        updates.max(1)
    })
}

/// `ScadaState::apply` of one status report covering `devices` devices
/// (1 = a plant `RtuStatus`; more = a regional `SubstationReport` into
/// a state partitioned by substation).
pub fn kernel_scada_apply(devices: u32) -> Kernel {
    let positions = vec![true, false, true];
    let currents = vec![120, 0, 95];
    let report = |poll_seq: u64| {
        if devices <= 1 {
            ScadaUpdate::RtuStatus {
                scenario: "plant".into(),
                poll_seq,
                positions: positions.clone(),
                currents: currents.clone(),
            }
        } else {
            ScadaUpdate::SubstationReport {
                station: (poll_seq % 10) as u32,
                devices: (0..devices)
                    .map(|d| DeviceReport {
                        scenario: format!("s{}d{d}", poll_seq % 10),
                        poll_seq,
                        positions: positions.clone(),
                        currents: currents.clone(),
                    })
                    .collect(),
            }
        }
    };
    let mut state = if devices <= 1 {
        ScadaState::new()
    } else {
        ScadaState::partitioned(Partitioning::BySubstation)
    };
    let updates: Vec<ScadaUpdate> = (1..=2_000).map(report).collect();
    let mut generation = 0u64;
    Box::new(move || {
        // Poll sequences must rise for a report to supersede the last.
        generation += 1;
        let mut applied = 0;
        for update in &updates {
            let mut update = update.clone();
            bump_poll_seq(&mut update, generation * 10_000);
            black_box(state.apply(black_box(&update)));
            applied += 1;
        }
        applied
    })
}

fn bump_poll_seq(update: &mut ScadaUpdate, by: u64) {
    match update {
        ScadaUpdate::RtuStatus { poll_seq, .. } => *poll_seq += by,
        ScadaUpdate::SubstationReport { devices, .. } => {
            for d in devices {
                d.poll_seq += by;
            }
        }
        _ => {}
    }
}

/// One Modbus/TCP poll's codec work: encode and decode the request and
/// the response for `points` discrete inputs.
pub fn kernel_modbus_codec(points: u16) -> Kernel {
    let request = Request::ReadDiscreteInputs {
        address: 0,
        count: points,
    };
    let response = Response::Bits {
        function: 0x02,
        values: (0..points).map(|i| i % 2 == 0).collect(),
    };
    Box::new(move || {
        for i in 0..20_000u16 {
            let wire = TcpFrame::new(i, 1, black_box(&request).encode()).encode();
            let frame = TcpFrame::decode(&wire).expect("request frame");
            let decoded = Request::decode(&frame.pdu).expect("request pdu");
            let wire = TcpFrame::new(i, 1, black_box(&response).encode()).encode();
            let frame = TcpFrame::decode(&wire).expect("response frame");
            black_box(Response::decode(&frame.pdu, &decoded).expect("response pdu"));
        }
        20_000
    })
}

/// `ObsHub::journal` appends. Operations are records.
pub fn kernel_journal() -> Kernel {
    Box::new(move || {
        let hub = ObsHub::new();
        for i in 0..50_000u32 {
            hub.set_now_us(u64::from(i));
            hub.journal(Event::PacketDrop {
                node: i % 16,
                kind: DropKind::Firewall,
            });
        }
        black_box(hub.journal_len()) as u64
    })
}

/// `ObsHub::journal_digest` over a journal of `records` records.
/// Operations are digests.
pub fn kernel_journal_digest(records: u64) -> Kernel {
    let hub = ObsHub::new();
    for i in 0..records {
        hub.set_now_us(i);
        hub.journal(Event::PacketDrop {
            node: (i % 16) as u32,
            kind: DropKind::Firewall,
        });
    }
    Box::new(move || {
        black_box(hub.journal_digest());
        1
    })
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// The product crates: this package's own dependency list.
    fn product_crates() -> Vec<String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let text = std::fs::read_to_string(manifest).expect("Cargo.toml");
        let deps = text
            .split("[dependencies]")
            .nth(1)
            .expect("a [dependencies] table");
        deps.lines()
            .take_while(|line| !line.starts_with('['))
            .filter_map(|line| {
                line.split_once('=')
                    .map(|(name, _)| name.trim().to_string())
            })
            .filter(|name| !name.is_empty() && !name.starts_with('#'))
            .collect()
    }

    /// Whether `code` names `krate` as a path root (`krate::…`).
    fn names_crate(code: &str, krate: &str) -> bool {
        let needle = format!("{krate}::");
        code.match_indices(&needle).any(|(at, _)| {
            let before = code[..at].chars().next_back();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':')
        })
    }

    #[test]
    fn only_the_adapter_names_a_product_crate() {
        let crates = product_crates();
        assert!(crates.len() >= 10, "dependency list parsed: {crates:?}");
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).expect("src/") {
            let path = entry.expect("dir entry").path();
            if path.file_name().is_some_and(|name| name == "adapter.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            for (number, line) in text.lines().enumerate() {
                // Comments may cite product paths; code may not use them.
                let code = line.split("//").next().unwrap_or("");
                for krate in &crates {
                    assert!(
                        !names_crate(code, krate),
                        "{}:{}: names product crate `{krate}`; go through adapter.rs",
                        path.display(),
                        number + 1
                    );
                }
            }
        }
    }

    #[test]
    fn crate_naming_is_told_from_lookalikes() {
        assert!(names_crate(
            "let x = prime::harness::Cluster::new();",
            "prime"
        ));
        assert!(names_crate("use obs::prof;", "obs"));
        assert!(!names_crate("crate::spans::Spans", "spines"));
        assert!(!names_crate("crate::adapter::Spire", "spire"));
        assert!(!names_crate("my_prime::x", "prime"));
        assert!(
            !names_crate("crate::prime::x", "prime"),
            "a module of our own"
        );
    }

    /// README.md lists the pinned symbols; this keeps the list honest.
    #[test]
    fn readme_lists_every_product_import() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let readme = std::fs::read_to_string(dir.join("README.md")).expect("README.md");
        let adapter = std::fs::read_to_string(dir.join("src/adapter.rs")).expect("adapter.rs");
        let crates = product_crates();
        let imports = adapter
            .lines()
            .filter_map(|line| line.strip_prefix("use "))
            .filter(|path| crates.iter().any(|k| path.starts_with(&format!("{k}::"))));
        let mut seen = 0;
        for import in imports {
            let import = import.trim_end_matches(';');
            assert!(
                readme.contains(import),
                "README.md does not list `{import}`"
            );
            seen += 1;
        }
        assert!(seen >= 30, "found the import block ({seen} lines)");
    }
}
