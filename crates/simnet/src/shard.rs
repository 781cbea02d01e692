//! Conservative parallel scheduler: shards the world along high-latency
//! link boundaries and runs lookahead windows on worker threads, then
//! replays each window's bookkeeping to assign global sequence numbers in
//! the exact order the sequential engine would have — which is what makes
//! the run digest bit-for-bit identical at every thread count.
//!
//! # Shard boundaries and lookahead
//!
//! The planner contracts every link faster than a threshold θ (trying the
//! distinct link latencies from slowest down) until the remaining graph
//! splits into at least `threads` components, then bin-packs components
//! onto shards by weight. Every cross-shard link therefore has latency of
//! at least θ, and the minimum cross latency `L` is the lookahead: an
//! event executed at time `t` can only influence another shard at `t + L`
//! or later, so all shards may run `[t0, t0 + L)` concurrently without
//! ever seeing a message from the "future". This is the classic
//! conservative window-barrier rule; on the paper's topologies the natural
//! cuts are the site/WAN boundaries (5 ms) and the LAN links (50 µs)
//! between hardened hosts.
//!
//! # Determinism argument
//!
//! The sequential engine dispatches in `(time, seq)` order, where `seq`
//! is assigned at *creation*. A shard cannot know the global sequence
//! numbers of events it creates mid-window (another shard may be creating
//! events "earlier" in sequential order), so it keys them provisionally:
//! `PENDING_BIT | rank` with a per-shard monotone rank. At equal times a
//! provisional key sorts after every already-assigned sequence number —
//! exactly where the sequential engine would put a just-created event —
//! and two provisional keys sort in shard-local creation order, which is
//! a suborder of the global creation order. Both match the sequential
//! tie-break, so *within a window* each shard pops the same local
//! sub-schedule the sequential engine would.
//!
//! At the barrier the coordinator replays the window: every dispatch with
//! side effects was recorded as `(time, id, #created, #journal, #logs)`,
//! and a k-way merge over the per-shard records in `(time, seq)` order
//! assigns fresh global sequence numbers to created events in merge
//! order. Because merge order equals sequential dispatch order, the
//! assignment reproduces the sequential `seq` counter exactly; pending
//! keys still sitting in shard queues are rekeyed to their real numbers,
//! cross-shard events are delivered with their real numbers (their
//! arrival lies at or beyond the next window by the lookahead rule), and
//! journal/log record runs are spliced in merge order, byte-identical to
//! the sequential journal. Anything the shards cannot reproduce exactly —
//! live trace echo, trace spans, lossy links drawing the shared RNG — is
//! declared ineligible up front and the run falls back to the sequential
//! loop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use obs::event::TimedEvent;
use obs::sink;

use crate::exec::{EventKind, EventSink, Exec, World};
use crate::link::Link;
use crate::queue::{EventHandle, EventQueue};
use crate::sim::{EndpointRef, Simulation};
use crate::time::SimTime;
use crate::types::NodeId;

/// High bit marking a provisional (not yet globally sequenced) event key.
/// Real sequence numbers stay far below this for any feasible run length.
const PENDING_BIT: u64 = 1 << 63;

/// Sentinel for "no sequence number assigned yet" in replay bookkeeping.
const UNASSIGNED: u64 = u64::MAX;

/// A sharding of the world onto worker threads.
pub(crate) struct Plan {
    /// Shard owning each node.
    node_owner: Vec<u8>,
    /// Shard owning each switch (and its taps).
    switch_owner: Vec<u8>,
    /// Number of shards (>= 2).
    shards: usize,
    /// Minimum cross-shard link latency in µs; `None` when no link
    /// crosses a shard boundary (windows then run to the deadline).
    lookahead_us: Option<u64>,
}

/// Union-find over the node+switch vertex set, used to contract
/// fast links when computing shard boundaries.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Deterministic union: the smaller root wins, so component roots are
    /// stable regardless of link iteration order.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

fn endpoint_vertex(e: &EndpointRef, n_nodes: usize) -> u32 {
    match e {
        EndpointRef::Nic { node, .. } => node.0,
        EndpointRef::SwitchPort { switch, .. } => n_nodes as u32 + switch.0,
    }
}

/// Computes a shard plan, or `None` when the topology cannot support at
/// least two shards with a positive lookahead.
fn make_plan(world: &World, threads: usize) -> Option<Plan> {
    let n_nodes = world.nodes.len();
    let n_switches = world.switches.len();
    let verts = n_nodes + n_switches;
    if verts < 2 || threads < 2 {
        return None;
    }
    let links: Vec<(u32, u32, u64)> = world
        .links
        .iter()
        .flatten()
        .map(|(l, a, b)| {
            (
                endpoint_vertex(a, n_nodes),
                endpoint_vertex(b, n_nodes),
                l.spec.latency.as_micros(),
            )
        })
        .collect();
    // Candidate contraction thresholds: the distinct positive latencies.
    // Zero-latency links are always contracted (a zero-lookahead window
    // cannot advance), so all-zero topologies stay sequential.
    let mut thetas: Vec<u64> = links
        .iter()
        .map(|&(_, _, lat)| lat)
        .filter(|&l| l > 0)
        .collect();
    thetas.sort_unstable();
    thetas.dedup();
    // Try the slowest threshold first: contracting everything faster than
    // θ yields the fewest shards but the largest lookahead. Take the first
    // θ that yields enough components for every thread; if none does,
    // keep the most parallel plan seen (ties favor the larger θ).
    let mut chosen: Option<(usize, Dsu)> = None;
    for &theta in thetas.iter().rev() {
        let mut dsu = Dsu::new(verts);
        for &(a, b, lat) in &links {
            if lat < theta {
                dsu.union(a, b);
            }
        }
        let mut comps = 0usize;
        for v in 0..verts as u32 {
            if dsu.find(v) == v {
                comps += 1;
            }
        }
        if comps >= 2 && chosen.as_ref().is_none_or(|&(best, _)| comps > best) {
            let enough = comps >= threads;
            chosen = Some((comps, dsu));
            if enough {
                break;
            }
        }
    }
    let (comps, mut dsu) = chosen?;
    // Pack components onto shards: heaviest first onto the least-loaded
    // bin, all ties broken by index so the plan is a pure function of the
    // topology.
    let bins = threads.min(comps).min(u8::MAX as usize);
    let mut weight_by_root: BTreeMap<u32, u64> = BTreeMap::new();
    for v in 0..verts as u32 {
        *weight_by_root.entry(dsu.find(v)).or_insert(0) += 1;
    }
    let mut comps_sorted: Vec<(u64, u32)> =
        weight_by_root.iter().map(|(&root, &w)| (w, root)).collect();
    comps_sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut bin_of_root: BTreeMap<u32, u8> = BTreeMap::new();
    let mut load = vec![0u64; bins];
    for (w, root) in comps_sorted {
        let bin = (0..bins).min_by_key(|&b| (load[b], b)).expect("bins >= 2");
        load[bin] += w;
        bin_of_root.insert(root, bin as u8);
    }
    let node_owner: Vec<u8> = (0..n_nodes as u32)
        .map(|v| bin_of_root[&dsu.find(v)])
        .collect();
    let switch_owner: Vec<u8> = (0..n_switches as u32)
        .map(|v| bin_of_root[&dsu.find(n_nodes as u32 + v)])
        .collect();
    // Lookahead: the fastest link that still crosses a shard boundary.
    let mut lookahead_us: Option<u64> = None;
    for (l, a, b) in world.links.iter().flatten() {
        if owner_of_endpoint(a, &node_owner, &switch_owner)
            != owner_of_endpoint(b, &node_owner, &switch_owner)
        {
            let lat = l.spec.latency.as_micros();
            debug_assert!(lat > 0, "zero-latency link crossed a shard boundary");
            lookahead_us = Some(lookahead_us.map_or(lat, |cur| cur.min(lat)));
        }
    }
    if lookahead_us == Some(0) {
        return None;
    }
    Some(Plan {
        node_owner,
        switch_owner,
        shards: bins,
        lookahead_us,
    })
}

fn owner_of_endpoint(e: &EndpointRef, node_owner: &[u8], switch_owner: &[u8]) -> u8 {
    match e {
        EndpointRef::Nic { node, .. } => node_owner[node.0 as usize],
        EndpointRef::SwitchPort { switch, .. } => switch_owner[switch.0 as usize],
    }
}

fn owner_of_event(kind: &EventKind, node_owner: &[u8], switch_owner: &[u8]) -> u8 {
    match kind {
        EventKind::FrameAt { to, .. } => owner_of_endpoint(to, node_owner, switch_owner),
        EventKind::Timer { node, .. }
        | EventKind::Start { node, .. }
        | EventKind::ArpRetry { node, .. } => node_owner[node.0 as usize],
    }
}

/// What became of an event scheduled during a window, in creation order.
/// The replay merge walks this list to hand out global sequence numbers.
enum CreatedMeta {
    /// Stayed in the creating shard's queue (or was already dispatched
    /// later in the same window) under a provisional key.
    Local,
    /// Crosses a shard boundary: parked here until the barrier assigns
    /// its sequence number, then delivered to `dest`'s inbox.
    Cross { dest: u8, at: u64, kind: EventKind },
}

/// Identity of a dispatched event in a shard's window log.
#[derive(Clone, Copy)]
enum EvId {
    /// Already globally sequenced (pre-window queue or inbox delivery).
    Global(u64),
    /// Created this window; index into the shard's created list.
    Pending(u32),
}

/// One dispatch's bookkeeping: which event ran and how many created
/// events / journal records / log lines it produced. Dispatches with no
/// side effects are not recorded (pops are counted separately).
struct DispatchRec {
    at: u64,
    id: EvId,
    created: u32,
    journal: u32,
    logs: u32,
}

/// Everything a shard hands the coordinator at a window barrier.
struct WindowEnd {
    dispatch: Vec<DispatchRec>,
    created: Vec<CreatedMeta>,
    journal: Vec<TimedEvent>,
    logs: Vec<(SimTime, NodeId, String)>,
    /// Earliest queued event time after the window, for the next t0.
    next_at: Option<u64>,
    /// Events dispatched (side effects or not) — the throughput count.
    pops: u64,
}

/// Everything the coordinator hands a shard at a window start.
struct WindowStart {
    /// Final window: apply assignments/inbox, then return the shard state.
    stop: bool,
    /// Exclusive end of the window; events at `t >= t1` wait.
    t1: u64,
    /// Global sequence numbers for the previous window's created list.
    assignments: Vec<u64>,
    /// Cross-shard deliveries `(at, seq, kind)` landing in this shard.
    inbox: Vec<(u64, u64, EventKind)>,
}

/// A shard's complete private state between barriers.
struct ShardState {
    me: u8,
    world: World,
    queue: EventQueue<EventKind>,
    /// Queue handles for the previous window's created list (None for
    /// cross-shard entries), awaiting rekey to assigned numbers.
    slots: Vec<Option<EventHandle>>,
    rank_next: u64,
    now_us: u64,
}

/// Coordinator/worker handshake for one shard. The coordinator stores
/// the window number into `gen` after depositing a start (idle windows
/// are skipped, so `gen` may jump); the worker echoes it into `done`
/// after depositing an end (or, on stop, the shard state).
#[derive(Default)]
struct WorkerSlot {
    gen: AtomicU64,
    done: AtomicU64,
    /// The worker's thread handle, for unparking; set by the coordinator
    /// right after spawn, before the first `gen` store.
    thread: Mutex<Option<std::thread::Thread>>,
    start: Mutex<Option<WindowStart>>,
    end: Mutex<Option<WindowEnd>>,
    ret: Mutex<Option<ShardState>>,
}

/// Locks a mutex, shrugging off poison: the shared state is only touched
/// between handshake points, so a panicked peer cannot leave it torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// How long to busy-spin on a handshake before giving up the CPU.
/// Windows on the paper's topologies are a few events long (tens of µs
/// of work), so on a machine with a spare core per shard, parking in the
/// OS every window would dominate — spin. On an oversubscribed machine
/// (fewer cores than shards) spinning only steals cycles from the thread
/// being waited on — don't spin at all.
fn spin_budget(shards: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > shards {
        10_000
    } else {
        0
    }
}

/// Worker side: waits until `gen` moves past `last` and returns its new
/// value. Spins `spin` times, then parks (the coordinator unparks after
/// every store).
fn worker_wait(slot: &WorkerSlot, last: u64, spin: u32) -> u64 {
    let mut spins = 0u32;
    loop {
        let g = slot.gen.load(Ordering::Acquire);
        if g != last {
            return g;
        }
        if spins < spin {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}

/// Coordinator side: waits until `counter` reaches `target`. The peer is
/// actively running a window, so spin/yield rather than park.
fn wait_done(counter: &AtomicU64, target: u64, spin: u32) {
    let mut spins = 0u32;
    while counter.load(Ordering::Acquire) < target {
        if spins < spin {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The shard-side event sink: local events get provisional keys, cross
/// events are parked for the barrier. Both consume one creation slot so
/// the assignments vector stays index-aligned.
struct ShardSched<'a> {
    queue: &'a mut EventQueue<EventKind>,
    created: &'a mut Vec<CreatedMeta>,
    slots: &'a mut Vec<Option<EventHandle>>,
    node_owner: &'a [u8],
    switch_owner: &'a [u8],
    me: u8,
    rank_next: &'a mut u64,
}

impl EventSink for ShardSched<'_> {
    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let rank = *self.rank_next;
        *self.rank_next += 1;
        let dest = owner_of_event(&kind, self.node_owner, self.switch_owner);
        if dest == self.me {
            let handle = self.queue.insert(at.as_micros(), PENDING_BIT | rank, kind);
            self.created.push(CreatedMeta::Local);
            self.slots.push(Some(handle));
        } else {
            self.created.push(CreatedMeta::Cross {
                dest,
                at: at.as_micros(),
                kind,
            });
            self.slots.push(None);
        }
    }
}

/// Applies a window-start message: rekeys the previous window's surviving
/// provisional events to their assigned numbers, then lands the inbox.
fn apply_start(state: &mut ShardState, start: &mut WindowStart) {
    debug_assert_eq!(start.assignments.len(), state.slots.len());
    for (slot, &seq) in state.slots.iter().zip(start.assignments.iter()) {
        if let Some(handle) = slot {
            debug_assert_ne!(seq, UNASSIGNED);
            // A dead handle means the event already ran inside its
            // creation window; nothing left to rekey.
            let _ = state.queue.rekey(*handle, seq);
        }
    }
    state.slots.clear();
    for (at, seq, kind) in start.inbox.drain(..) {
        debug_assert_ne!(seq, UNASSIGNED);
        state.queue.insert(at, seq, kind);
    }
}

/// Runs one shard's share of the window `[.., t1)` and packages the
/// bookkeeping for the barrier.
fn run_window(
    state: &mut ShardState,
    node_owner: &[u8],
    switch_owner: &[u8],
    t1: u64,
) -> WindowEnd {
    let mut dispatch: Vec<DispatchRec> = Vec::new();
    let mut created: Vec<CreatedMeta> = Vec::new();
    let mut slots: Vec<Option<EventHandle>> = Vec::new();
    let rank_base = state.rank_next;
    let mut pops = 0u64;
    sink::install(state.now_us, Vec::new());
    loop {
        match state.queue.peek() {
            Some((at, _)) if at < t1 => {}
            _ => break,
        }
        let (at, key, kind) = state.queue.pop().expect("peeked");
        state.now_us = at;
        state.world.obs.set_now_us(at);
        let journal_before = sink::len();
        let logs_before = state.world.logs.len();
        let created_before = created.len();
        let mut sched = ShardSched {
            queue: &mut state.queue,
            created: &mut created,
            slots: &mut slots,
            node_owner,
            switch_owner,
            me: state.me,
            rank_next: &mut state.rank_next,
        };
        Exec {
            world: &mut state.world,
            now: SimTime(at),
            sink: &mut sched,
        }
        .dispatch(kind);
        pops += 1;
        let created_n = (created.len() - created_before) as u32;
        let journal_n = (sink::len() - journal_before) as u32;
        let logs_n = (state.world.logs.len() - logs_before) as u32;
        if created_n | journal_n | logs_n != 0 {
            let id = if key & PENDING_BIT != 0 {
                EvId::Pending(((key & !PENDING_BIT) - rank_base) as u32)
            } else {
                EvId::Global(key)
            };
            dispatch.push(DispatchRec {
                at,
                id,
                created: created_n,
                journal: journal_n,
                logs: logs_n,
            });
        }
    }
    let journal = sink::take();
    let logs = std::mem::take(&mut state.world.logs);
    let next_at = state.queue.peek().map(|(at, _)| at);
    state.slots = slots;
    WindowEnd {
        dispatch,
        created,
        journal,
        logs,
        next_at,
        pops,
    }
}

/// Worker thread: one shard, one handshake slot, engaged windows until
/// stop. Windows where this shard has nothing to do are skipped by the
/// coordinator, so the generation counter may jump.
fn worker(
    slot: &WorkerSlot,
    node_owner: &[u8],
    switch_owner: &[u8],
    spin: u32,
    mut state: ShardState,
) {
    let mut gen = 0u64;
    loop {
        gen = worker_wait(slot, gen, spin);
        let mut start = lock(&slot.start).take().expect("window start deposited");
        apply_start(&mut state, &mut start);
        if start.stop {
            *lock(&slot.ret) = Some(state);
            slot.done.store(gen, Ordering::Release);
            return;
        }
        let end = run_window(&mut state, node_owner, switch_owner, start.t1);
        *lock(&slot.end) = Some(end);
        slot.done.store(gen, Ordering::Release);
    }
}

/// Pre-split snapshot of a cross link's drop counters, so the merge can
/// combine the two clones' deltas without double counting.
struct CrossOrig {
    overflow_drops: u64,
    loss_drops: u64,
}

/// Carves the simulation's world and queue into per-shard states.
/// Cross-shard links are cloned into both bordering shards (each side
/// only drives its own transmit direction); everything else moves.
fn split(sim: &mut Simulation, plan: &Plan) -> (Vec<ShardState>, BTreeMap<usize, CrossOrig>) {
    let now_us = sim.now.as_micros();
    let mut states: Vec<ShardState> = (0..plan.shards)
        .map(|i| ShardState {
            me: i as u8,
            world: World {
                nodes: (0..sim.world.nodes.len()).map(|_| None).collect(),
                switches: (0..sim.world.switches.len()).map(|_| None).collect(),
                links: (0..sim.world.links.len()).map(|_| None).collect(),
                taps: (0..sim.world.taps.len()).map(|_| None).collect(),
                logs: Vec::new(),
                rng: sim.world.rng.clone(),
                obs: sim.world.obs.clone(),
                net: sim.world.net.clone(),
                actions: Vec::new(),
            },
            queue: EventQueue::new(),
            slots: Vec::new(),
            rank_next: 0,
            now_us,
        })
        .collect();
    for (i, slot) in sim.world.nodes.iter_mut().enumerate() {
        let owner = plan.node_owner[i] as usize;
        states[owner].world.nodes[i] = slot.take();
    }
    for (i, slot) in sim.world.switches.iter_mut().enumerate() {
        let owner = plan.switch_owner[i] as usize;
        states[owner].world.switches[i] = slot.take();
    }
    for (i, slot) in sim.world.taps.iter_mut().enumerate() {
        if let Some((tap, switch)) = slot.take() {
            let owner = plan.switch_owner[switch.0 as usize] as usize;
            states[owner].world.taps[i] = Some((tap, switch));
        }
    }
    let mut cross_orig = BTreeMap::new();
    for (i, slot) in sim.world.links.iter_mut().enumerate() {
        let Some((link, a, b)) = slot.take() else {
            continue;
        };
        let oa = owner_of_endpoint(&a, &plan.node_owner, &plan.switch_owner) as usize;
        let ob = owner_of_endpoint(&b, &plan.node_owner, &plan.switch_owner) as usize;
        if oa == ob {
            states[oa].world.links[i] = Some((link, a, b));
        } else {
            cross_orig.insert(
                i,
                CrossOrig {
                    overflow_drops: link.overflow_drops,
                    loss_drops: link.loss_drops,
                },
            );
            states[oa].world.links[i] = Some((link.clone(), a, b));
            states[ob].world.links[i] = Some((link, a, b));
        }
    }
    // Route the global queue: every entry already has a real sequence
    // number, so it lands in its owner's queue under a Global key.
    for (at, seq, kind) in sim.queue.drain_unordered() {
        let owner = owner_of_event(&kind, &plan.node_owner, &plan.switch_owner) as usize;
        states[owner].queue.insert(at, seq, kind);
    }
    (states, cross_orig)
}

/// Moves shard state back into the simulation after the final barrier.
fn merge(
    sim: &mut Simulation,
    states: Vec<ShardState>,
    plan: &Plan,
    cross_orig: &BTreeMap<usize, CrossOrig>,
) {
    // Cross-link clones, keyed by link index: the endpoint-a owner's copy
    // carries the authoritative a→b transmit state, the endpoint-b
    // owner's copy the b→a state.
    let mut cross_a: BTreeMap<usize, Link> = BTreeMap::new();
    let mut cross_b: BTreeMap<usize, Link> = BTreeMap::new();
    for state in states {
        let me = state.me;
        for (i, slot) in state.world.nodes.into_iter().enumerate() {
            if let Some(node) = slot {
                sim.world.nodes[i] = Some(node);
            }
        }
        for (i, slot) in state.world.switches.into_iter().enumerate() {
            if let Some(sw) = slot {
                sim.world.switches[i] = Some(sw);
            }
        }
        for (i, slot) in state.world.taps.into_iter().enumerate() {
            if let Some(tap) = slot {
                sim.world.taps[i] = Some(tap);
            }
        }
        for (i, slot) in state.world.links.into_iter().enumerate() {
            let Some((link, a, b)) = slot else { continue };
            let oa = owner_of_endpoint(&a, &plan.node_owner, &plan.switch_owner);
            let ob = owner_of_endpoint(&b, &plan.node_owner, &plan.switch_owner);
            if oa == ob {
                sim.world.links[i] = Some((link, a, b));
            } else if me == oa {
                cross_a.insert(i, link);
                sim.world.links[i] = Some((Link::new(Default::default()), a, b));
            } else {
                cross_b.insert(i, link);
            }
        }
        debug_assert!(state.world.logs.is_empty(), "logs outside a window");
        let mut queue = state.queue;
        for (at, seq, kind) in queue.drain_unordered() {
            debug_assert_eq!(seq & PENDING_BIT, 0, "provisional key survived the run");
            sim.queue.insert(at, seq, kind);
        }
    }
    for (i, side_a) in cross_a {
        let side_b = cross_b.remove(&i).expect("both clones of a cross link");
        let orig = &cross_orig[&i];
        let mut merged = side_a;
        merged.tx_ba = side_b.tx_ba;
        merged.overflow_drops = merged.overflow_drops + side_b.overflow_drops - orig.overflow_drops;
        merged.loss_drops = merged.loss_drops + side_b.loss_drops - orig.loss_drops;
        let entry = sim.world.links[i].as_mut().expect("placeholder installed");
        entry.0 = merged;
    }
    debug_assert!(cross_b.is_empty(), "unmatched cross-link clone");
}

/// Replays one window's dispatch logs in global `(time, seq)` order,
/// assigning sequence numbers to created events exactly as the sequential
/// engine would have, routing cross deliveries, and splicing journal and
/// log runs into sequential order. `ends[i]` is `None` for shards that
/// were skipped this window (nothing runnable, no inbox, no assignments).
#[allow(clippy::too_many_arguments)]
fn replay_merge(
    seq: &mut u64,
    ends: &mut [Option<WindowEnd>],
    assign_next: &mut [Vec<u64>],
    inbox_next: &mut [Vec<(u64, u64, EventKind)>],
    merged_journal: &mut Vec<TimedEvent>,
    merged_logs: &mut Vec<(SimTime, NodeId, String)>,
) {
    let k = ends.len();
    let mut d = vec![0usize; k];
    let mut c = vec![0usize; k];
    let mut j = vec![0usize; k];
    let mut l = vec![0usize; k];
    for (i, end) in ends.iter().enumerate() {
        if let Some(end) = end {
            debug_assert!(assign_next[i].is_empty(), "stale assignments");
            assign_next[i].resize(end.created.len(), UNASSIGNED);
        }
    }
    loop {
        // Smallest (time, seq) head across shards. A Pending head is
        // always resolvable: its creator dispatched strictly earlier in
        // the same shard's log, so its number was assigned already.
        let mut best: Option<(u64, u64, usize)> = None;
        for i in 0..k {
            let Some(rec) = ends[i].as_ref().and_then(|e| e.dispatch.get(d[i])) else {
                continue;
            };
            let s = match rec.id {
                EvId::Global(s) => s,
                EvId::Pending(idx) => {
                    let s = assign_next[i][idx as usize];
                    debug_assert_ne!(s, UNASSIGNED, "created event popped before creator");
                    s
                }
            };
            if best.is_none_or(|(at, bs, _)| (rec.at, s) < (at, bs)) {
                best = Some((rec.at, s, i));
            }
        }
        let Some((_, _, i)) = best else { break };
        let end = ends[i].as_mut().expect("best came from an engaged shard");
        let rec = &end.dispatch[d[i]];
        let (created_n, journal_n, logs_n) = (
            rec.created as usize,
            rec.journal as usize,
            rec.logs as usize,
        );
        let run = c[i]..c[i] + created_n;
        for (slot, meta) in assign_next[i][run.clone()]
            .iter_mut()
            .zip(&mut end.created[run])
        {
            let s = *seq;
            *seq += 1;
            *slot = s;
            let meta = std::mem::replace(meta, CreatedMeta::Local);
            if let CreatedMeta::Cross { dest, at, kind } = meta {
                inbox_next[dest as usize].push((at, s, kind));
            }
        }
        c[i] += created_n;
        merged_journal.extend_from_slice(&end.journal[j[i]..j[i] + journal_n]);
        j[i] += journal_n;
        merged_logs.extend_from_slice(&end.logs[l[i]..l[i] + logs_n]);
        l[i] += logs_n;
        d[i] += 1;
    }
    for (i, end) in ends.iter().enumerate() {
        if let Some(end) = end {
            debug_assert_eq!(d[i], end.dispatch.len());
            debug_assert_eq!(c[i], end.created.len(), "created run not consumed");
            debug_assert_eq!(j[i], end.journal.len(), "journal run not consumed");
            debug_assert_eq!(l[i], end.logs.len(), "log run not consumed");
        }
    }
}

/// Runs the simulation to `deadline` on `sim.threads` workers, returning
/// the number of events processed, or `None` when the topology yields no
/// usable plan (caller falls back to the sequential loop). Eligibility
/// (tracing off, lossless links, clock in sync) is checked by the caller.
pub(crate) fn run_parallel(sim: &mut Simulation, deadline: SimTime) -> Option<u64> {
    let plan = make_plan(&sim.world, sim.threads)?;
    let deadline_us = deadline.as_micros();
    // Exclusive window end cap: events *at* the deadline still run.
    let horizon = deadline_us.saturating_add(1);
    let (mut states, cross_orig) = split(sim, &plan);
    let shards = plan.shards;
    let mut next_at: Vec<Option<u64>> = states
        .iter_mut()
        .map(|s| s.queue.peek().map(|(at, _)| at))
        .collect();
    let mut assign_next: Vec<Vec<u64>> = (0..shards).map(|_| Vec::new()).collect();
    let mut inbox_next: Vec<Vec<(u64, u64, EventKind)>> = (0..shards).map(|_| Vec::new()).collect();
    let mut merged_journal: Vec<TimedEvent> = Vec::new();
    let mut merged_logs: Vec<(SimTime, NodeId, String)> = Vec::new();
    let mut pops_total = 0u64;
    let mut final_states: Vec<ShardState> = Vec::with_capacity(shards);
    let slots: Vec<WorkerSlot> = (0..shards).map(|_| WorkerSlot::default()).collect();
    let spin = spin_budget(shards);
    std::thread::scope(|scope| {
        let mut rest = states.split_off(1);
        let mut state0 = states.pop().expect("shard zero");
        rest.reverse();
        for slot in slots.iter().skip(1) {
            let state = rest.pop().expect("one state per shard");
            let (node_owner, switch_owner) = (&plan.node_owner[..], &plan.switch_owner[..]);
            let handle = scope.spawn(move || worker(slot, node_owner, switch_owner, spin, state));
            *lock(&slot.thread) = Some(handle.thread().clone());
        }
        // Deposits a start and signals worker `i` (unpark is a no-op for
        // spinning workers, a wake-up for parked ones).
        let signal = |i: usize, gen: u64, start: WindowStart| {
            *lock(&slots[i].start) = Some(start);
            slots[i].gen.store(gen, Ordering::Release);
            if let Some(t) = lock(&slots[i].thread).as_ref() {
                t.unpark();
            }
        };
        let mut gen = 0u64;
        loop {
            let mut t0: Option<u64> = None;
            for i in 0..shards {
                let shard_min = inbox_next[i]
                    .iter()
                    .map(|&(at, _, _)| at)
                    .chain(next_at[i])
                    .min();
                t0 = match (t0, shard_min) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            let stop = t0.is_none_or(|t0| t0 > deadline_us);
            let t1 = if stop {
                0
            } else {
                let t0 = t0.expect("not stopping");
                plan.lookahead_us
                    .map_or(horizon, |l| horizon.min(t0.saturating_add(l)))
            };
            gen += 1;
            if stop {
                // Final window: every shard is engaged so outstanding
                // assignments/inbox land before states come home.
                for i in 1..shards {
                    let start = WindowStart {
                        stop,
                        t1,
                        assignments: std::mem::take(&mut assign_next[i]),
                        inbox: std::mem::take(&mut inbox_next[i]),
                    };
                    signal(i, gen, start);
                }
                let mut start0 = WindowStart {
                    stop,
                    t1,
                    assignments: std::mem::take(&mut assign_next[0]),
                    inbox: std::mem::take(&mut inbox_next[0]),
                };
                apply_start(&mut state0, &mut start0);
                final_states.push(state0);
                for slot in slots.iter().skip(1) {
                    wait_done(&slot.done, gen, spin);
                    final_states.push(lock(&slot.ret).take().expect("state returned"));
                }
                return;
            }
            // A shard participates in the window only if it has something
            // to do: events before t1, inbox deliveries, or provisional
            // keys awaiting their assigned numbers. Everyone else is
            // skipped without a handshake — on the paper's topologies
            // most shards are idle in most 50 µs windows (a PLC polls
            // every 100 ms), so this is what keeps barriers cheap.
            let active: Vec<bool> = (0..shards)
                .map(|i| {
                    !assign_next[i].is_empty()
                        || !inbox_next[i].is_empty()
                        || next_at[i].is_some_and(|at| at < t1)
                })
                .collect();
            for i in 1..shards {
                if active[i] {
                    let start = WindowStart {
                        stop,
                        t1,
                        assignments: std::mem::take(&mut assign_next[i]),
                        inbox: std::mem::take(&mut inbox_next[i]),
                    };
                    signal(i, gen, start);
                }
            }
            let mut ends: Vec<Option<WindowEnd>> = (0..shards).map(|_| None).collect();
            if active[0] {
                let mut start0 = WindowStart {
                    stop,
                    t1,
                    assignments: std::mem::take(&mut assign_next[0]),
                    inbox: std::mem::take(&mut inbox_next[0]),
                };
                apply_start(&mut state0, &mut start0);
                ends[0] = Some(run_window(
                    &mut state0,
                    &plan.node_owner,
                    &plan.switch_owner,
                    t1,
                ));
            }
            for i in 1..shards {
                if active[i] {
                    wait_done(&slots[i].done, gen, spin);
                    ends[i] = Some(lock(&slots[i].end).take().expect("window end deposited"));
                }
            }
            replay_merge(
                &mut sim.seq,
                &mut ends,
                &mut assign_next,
                &mut inbox_next,
                &mut merged_journal,
                &mut merged_logs,
            );
            for (i, end) in ends.iter().enumerate() {
                if let Some(end) = end {
                    next_at[i] = end.next_at;
                    pops_total += end.pops;
                }
            }
        }
    });
    merge(sim, final_states, &plan, &cross_orig);
    sim.world.obs.journal_extend(merged_journal);
    sim.world.logs.extend(merged_logs);
    Some(pops_total)
}
