//! The Prime replica state machine.
//!
//! Transport-agnostic and fully deterministic: the owner injects client
//! updates ([`Replica::submit`]), peer messages ([`Replica::on_message`]),
//! and time ([`Replica::tick`]); the replica returns [`OutEvent`]s to act
//! on. In Spire the owner is a SCADA-master process that moves messages
//! over the internal Spines network; in tests it is [`crate::Cluster`].
//!
//! ## Simplifications relative to the C implementation (documented per
//! DESIGN.md)
//!
//! * Ordering is serialized: the leader proposes sequence `s+1` only after
//!   committing `s`. Prime's aggregation makes this cheap — one matrix
//!   orders every update accumulated since the last proposal — and it lets
//!   view changes carry a single prepared certificate instead of a window.
//! * Erasure-coded reconciliation is replaced by direct `PO-Fetch` /
//!   `PO-Data` retransmission.
//! * TAT measurement is simplified to a bound on *unordered eligible
//!   updates*: if this replica knows of pre-ordered updates that remain
//!   unordered past `suspect_timeout`, it suspects the leader. This keeps
//!   the property that matters (a delaying leader is replaced) without the
//!   RTT-estimation machinery.
//!
//! ## Incarnations
//!
//! Pre-order sequence numbers are *incarnation-tagged* composites
//! ([`po_compose`]): the high bits carry the origin's incarnation (bumped
//! on every proactive recovery, derived from the monotonic clock), the low
//! bits a per-incarnation counter. A recovered replica therefore never
//! collides with pre-order slots from its previous life, composite
//! ordering keeps ARU vectors monotone across recoveries, and peers reset
//! their per-origin contiguity tracking when they observe a new
//! incarnation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use itcrypto::keys::{KeyPair, KeyRegistry};
use itcrypto::sha256::{sha256, Digest};
use simnet::time::{SimDuration, SimTime};
use simnet::wire::Wire;

use crate::application::Application;
use crate::byzantine::ByzMode;
use crate::messages::{AruRow, Envelope, PrimeMsg, SignedMsg};
use crate::types::{Config, Membership, ReplicaId, SignedUpdate, Update};
use itcrypto::verify_cache::VerifyCache;

mod batch;
mod log;
mod tables;
mod view;

use tables::{ClientSeqs, PoStore};

pub use log::catchup_backoff;

/// Compact client duplicate-suppression table, one
/// `(client, contiguous_through, extras)` entry per client (see
/// [`PrimeMsg::CatchupDedup`]).
type DedupTable = Vec<(u32, u64, Vec<u64>)>;

/// Deterministic digest of a dedup table, folded into the catch-up offer
/// key so the f+1 matching rule covers the table.
fn dedup_digest(table: &[(u32, u64, Vec<u64>)]) -> Digest {
    let mut bytes = Vec::with_capacity(16 + table.len() * 24);
    bytes.extend_from_slice(&(table.len() as u64).to_be_bytes());
    for (client, through, extras) in table {
        bytes.extend_from_slice(&client.to_be_bytes());
        bytes.extend_from_slice(&through.to_be_bytes());
        bytes.extend_from_slice(&(extras.len() as u64).to_be_bytes());
        for e in extras {
            bytes.extend_from_slice(&e.to_be_bytes());
        }
    }
    sha256(&bytes)
}

/// Bits of a composite pre-order sequence reserved for the counter.
const PO_SEQ_BITS: u32 = 40;

/// Entries held by each replica's verification-verdict cache. Sized to
/// cover the working set of a busy window (rows from every peer across
/// several pre-prepare rounds plus in-flight client updates) while
/// keeping the worst case bounded.
const VERIFY_CACHE_CAP: usize = 4096;

/// Time-trigger for batch close: a pending batch older than this
/// disseminates even if below `batch_max`. The trigger is evaluated as a
/// rate limiter — the first update after a quiet period ships immediately
/// as a singleton batch — so pre-saturation latency matches the
/// unbatched protocol.
const BATCH_DELAY: SimDuration = SimDuration::from_millis(5);

/// Stable checkpoints after which a replica forgets what it executed even
/// if a peer's PO-ARU row still lags (see `Replica::forget_behind`): up to
/// `f` silent or lying replicas cannot pin its memory, and a peer that far
/// behind catches up by state transfer instead of fetching slots.
const RETAIN_CHECKPOINTS: usize = 4;

/// What a replica had executed when it took a checkpoint.
#[derive(Clone, Debug)]
struct ExecMark {
    /// Executed count at the checkpoint.
    exec_seq: u64,
    /// Per origin, the composite pre-order sequence through which every
    /// slot was executed, suppressed as a duplicate, or abandoned.
    cover: Vec<u64>,
    /// The ordering sequence through which every plan had executed.
    ordered: u64,
}

/// Builds an incarnation-tagged pre-order sequence number.
pub fn po_compose(incarnation: u32, seq: u64) -> u64 {
    debug_assert!(seq < (1 << PO_SEQ_BITS));
    ((incarnation as u64) << PO_SEQ_BITS) | seq
}

/// Extracts the incarnation from a composite pre-order sequence.
pub fn po_incarnation(composite: u64) -> u32 {
    (composite >> PO_SEQ_BITS) as u32
}

/// Extracts the counter from a composite pre-order sequence.
pub fn po_counter(composite: u64) -> u64 {
    composite & ((1 << PO_SEQ_BITS) - 1)
}

/// Protocol timing knobs.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// How often PO-ARU vectors are gossiped.
    pub aru_interval: SimDuration,
    /// Leader's minimum spacing between pre-prepares.
    pub pp_interval: SimDuration,
    /// How long eligible updates may sit unordered before suspicion.
    pub suspect_timeout: SimDuration,
    /// Executions between checkpoints.
    pub checkpoint_interval: u64,
    /// How long an execution stall may last before catch-up.
    pub catchup_timeout: SimDuration,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            aru_interval: SimDuration::from_millis(20),
            pp_interval: SimDuration::from_millis(30),
            suspect_timeout: SimDuration::from_millis(2_000),
            checkpoint_interval: 50,
            catchup_timeout: SimDuration::from_millis(500),
        }
    }
}

/// Events a replica asks its owner to act on.
#[derive(Clone, Debug)]
pub enum OutEvent {
    /// Send to every other replica. The envelope carries the wire bytes
    /// produced at signing time, so hosts fan out without re-encoding.
    Broadcast(Envelope),
    /// Send to one replica.
    Send(ReplicaId, Envelope),
    /// An update reached its global execution point.
    Execute {
        /// 1-based global execution sequence.
        exec_seq: u64,
        /// The update.
        update: Update,
        /// Causal-trace context of the execution (the instant
        /// `prime.execute` span), for the host to stamp on outgoing
        /// application messages. `None` for untraced updates.
        trace: Option<obs::TraceCtx>,
    },
    /// The replica moved to a new view.
    ViewChanged {
        /// The new view.
        view: u64,
    },
    /// The replication layer determined that application-level state
    /// transfer is required (§III-A signaling).
    StateTransferRequested,
    /// A peer snapshot was installed into the application.
    StateTransferInstalled {
        /// Executed count after installation.
        exec_seq: u64,
    },
    /// A checkpoint became stable (quorum of matching digests).
    CheckpointStable {
        /// Executed count at the checkpoint.
        exec_seq: u64,
    },
}

/// Counters for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Updates introduced into pre-ordering by this replica.
    pub po_introduced: u64,
    /// Updates executed.
    pub executed: u64,
    /// Duplicate executions suppressed (same client seq via another origin).
    pub dup_suppressed: u64,
    /// Pre-prepares proposed (as leader).
    pub proposals: u64,
    /// Suspect messages sent.
    pub suspects_sent: u64,
    /// View changes completed.
    pub view_changes: u64,
    /// Catch-ups performed.
    pub catchups: u64,
    /// Catch-up requests retransmitted after an unanswered round.
    pub catchup_retransmits: u64,
    /// Messages rejected for bad signatures.
    pub bad_sigs: u64,
    /// Reconciliation fetches sent.
    pub fetches: u64,
    /// Pre-order batches closed and broadcast (batching on).
    pub batches_sent: u64,
    /// Pre-order batches accepted from peers (batching on).
    pub batches_accepted: u64,
}

/// One flight-recorder health snapshot, as computed by
/// [`Replica::health_sample`]. Field meanings match
/// [`obs::Event::ReplicaHealth`], which journals the same gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthSample {
    /// Snapshotting replica id.
    pub replica: u32,
    /// Current view number.
    pub view: u64,
    /// Sum of per-origin pre-ordering ARU counters.
    pub aru: u64,
    /// PO-queue depth (received into pre-ordering, not yet executed).
    pub po_queue: u32,
    /// Ordering sequences proposed but not yet committed here.
    pub in_flight: u32,
    /// Age of the oldest known unordered update, microseconds.
    pub tat_us: u64,
    /// Whether a catch-up (state transfer) is in progress.
    pub catching_up: bool,
}

/// Per-view votes: sender → (max committed, prepared seq, prepared view,
/// prepared matrix).
type ViewChangeVotes = BTreeMap<u32, (u64, u64, u64, Vec<AruRow>)>;

/// Catch-up offer groups, keyed by (exec_seq, app digest, dedup-table
/// digest): offering senders, the offer, and its dedup table.
type CatchupOffers = BTreeMap<(u64, Digest, Digest), (BTreeSet<u32>, PrimeMsg, DedupTable)>;

/// One voter's in-flight prepared certificates from a
/// `ViewChangeWindow`: (seq, view, prepared matrix) per slot.
type CertWindow = Vec<(u64, u64, Vec<AruRow>)>;

/// Chunked catch-up reassembly state: (exec_seq, chunk count,
/// index → chunk data).
type ChunkReassembly = (u64, u32, BTreeMap<u32, Vec<u8>>);

/// One Prime replica hosting an application.
pub struct Replica<A: Application> {
    id: ReplicaId,
    config: Config,
    registry: KeyRegistry,
    key: KeyPair,
    /// Memoized signature-verification verdicts (bounded, FIFO).
    verify_cache: VerifyCache,
    /// Fault-injection mode.
    pub byz: ByzMode,
    timing: Timing,

    view: u64,
    in_view_change: bool,
    vc_target: u64,
    /// When our view-change vote for `vc_target` last went out, so a
    /// vote lost to a partition is retransmitted instead of deadlocking
    /// the view change (see `tick`).
    last_vc_broadcast_at: SimTime,

    /// Restricted membership epoch, installed by the management plane
    /// after a site loss leaves the survivors without the static quorum
    /// (`None` = the full static configuration; the legacy single-site
    /// path never sets it). See [`Membership`].
    membership: Option<Membership>,

    // Pre-ordering.
    incarnation: u32,
    next_po_seq: u64,
    po_store: PoStore,
    /// Original signed PoRequest envelopes (served on PoFetch), per
    /// origin by po_seq.
    po_envelopes: Vec<BTreeMap<u64, SignedMsg>>,
    /// Client updates this replica has introduced into pre-ordering.
    intro_seen: ClientSeqs,
    /// Highest incarnation observed per origin.
    origin_inc: Vec<u32>,
    /// Contiguously received counter within each origin's incarnation.
    aru_counter: Vec<u64>,
    my_aru: Vec<u64>,
    latest_rows: BTreeMap<u32, AruRow>,
    last_gossiped_aru: Vec<u64>,
    last_aru_at: SimTime,

    // Ordering.
    last_pp_at: SimTime,
    /// seq → (view, matrix, digest) for the active proposal.
    pre_prepares: BTreeMap<u64, (u64, Vec<AruRow>, Digest)>,
    /// Votes and sent markers, keyed sequence first so a checkpoint cuts
    /// them with one split.
    prepares: BTreeMap<(u64, u64, Digest), BTreeSet<u32>>,
    commits: BTreeMap<(u64, u64, Digest), BTreeSet<u32>>,
    sent_prepare: BTreeSet<(u64, u64)>,
    sent_commit: BTreeSet<(u64, u64)>,
    committed: BTreeMap<u64, Vec<AruRow>>,
    max_committed: u64,
    /// Ordering sequences at or below this are forgotten; Prepares and
    /// Commits for them are ignored.
    order_floor: u64,
    /// The prepared-but-uncommitted certificate (seq, view, matrix).
    prepared_cert: Option<(u64, u64, Vec<AruRow>)>,

    // Execution.
    planned_through: u64,
    plan_cover: Vec<u64>,
    exec_plan: VecDeque<(u32, u64)>,
    /// Per origin, the last slot the plan ran (see [`ExecMark::cover`]).
    exec_cover: Vec<u64>,
    /// `planned_through` when the plan last ran dry.
    drained_through: u64,
    exec_seq: u64,
    /// Client updates executed: the duplicate-suppression state that
    /// travels with a snapshot as a [`DedupTable`].
    executed_clients: ClientSeqs,
    stall_since: Option<SimTime>,
    last_fetch_at: SimTime,

    // Suspicion.
    unordered_since: Option<SimTime>,
    suspects: BTreeMap<u64, BTreeSet<u32>>,
    sent_suspect: BTreeSet<u64>,

    // View change.
    view_changes: BTreeMap<u64, ViewChangeVotes>,

    // Checkpoints.
    last_checkpoint_at_exec: u64,
    checkpoint_votes: BTreeMap<(u64, Digest), BTreeSet<u32>>,
    stable_checkpoint: u64,
    /// Marks of this replica's checkpoints not yet stable (at most
    /// `RETAIN_CHECKPOINTS`, oldest dropped).
    checkpoint_marks: VecDeque<ExecMark>,
    /// Marks of the last `RETAIN_CHECKPOINTS + 1` stable checkpoints,
    /// oldest first.
    stable_marks: VecDeque<ExecMark>,

    // Batched pre-ordering (armed by `Config::batch_max > 0`; empty and
    // inert otherwise so the legacy per-update path is byte-identical).
    /// Locally introduced updates whose dissemination is deferred until
    /// the batch closes, with the po_seq assigned at submit time.
    batch_pending: Vec<(u64, SignedUpdate)>,
    /// When the previous batch closed: the rate-limiter reference point
    /// for the `BATCH_DELAY` close trigger.
    last_batch_at: SimTime,
    /// Signed batches originated here or accepted from peers, per origin
    /// by first_po_seq — the reconciliation source for `PoBatchMember`
    /// replies to `PoFetch`.
    po_batches: Vec<BTreeMap<u64, crate::messages::PoBatch>>,

    // Pipelined sequencing (armed by `Config::pipeline > 1`).
    /// All prepared-but-uncommitted certificates, seq → (view, matrix).
    /// Maintained alongside the legacy single `prepared_cert` so the
    /// pipeline-off wire behavior stays byte-identical.
    prepared_certs: BTreeMap<u64, (u64, Vec<AruRow>)>,
    /// Certificate windows received in `ViewChangeWindow` votes:
    /// new_view → voter → certs.
    vc_windows: BTreeMap<u64, BTreeMap<u32, CertWindow>>,

    // Chunked catch-up (armed by the *sender's* `Config::transfer_chunk`).
    /// Reassembly buffers keyed by sender: (exec_seq, chunk count,
    /// index → data).
    catchup_chunks: BTreeMap<u32, ChunkReassembly>,

    // Catch-up.
    catching_up: bool,
    catchup_started: SimTime,
    catchup_attempts: u32,
    // Keyed by (exec_seq, app digest, dedup-table digest): the f+1
    // matching-offer rule covers the dedup table too, so a lone faulty
    // replica cannot poison the duplicate-suppression state.
    catchup_offers: CatchupOffers,
    // Per-sender dedup tables received via `CatchupDedup`, paired with
    // the `CatchupReply` that follows from the same sender.
    catchup_dedup: BTreeMap<u32, (u64, DedupTable)>,

    app: A,
    /// Counters.
    pub stats: ReplicaStats,

    // Observability: hub for journal records (detached until
    // `attach_obs`) plus cached registry counter handles. `health_ticks`
    // counts protocol ticks for the flight recorder's snapshot cadence.
    obs: obs::ObsHub,
    health_ticks: u64,
    c_view_changes: obs::Counter,
    c_executed: obs::Counter,
    c_suspects_sent: obs::Counter,

    // Causal tracing: the context the host set before `submit`, the
    // pre-ordering ("queue") span per in-flight traced update (keyed
    // like `intro_seen`), and the latest ordering-phase span per
    // global sequence.
    incoming_trace: Option<obs::TraceCtx>,
    trace_queue: BTreeMap<(u32, u64), obs::TraceCtx>,
    trace_phase: BTreeMap<u64, obs::TraceCtx>,
}

fn prime_counters(hub: &obs::ObsHub, id: ReplicaId) -> [obs::Counter; 3] {
    [
        hub.counter(&format!("prime.r{}.view_changes", id.0)),
        hub.counter(&format!("prime.r{}.executed", id.0)),
        hub.counter(&format!("prime.r{}.suspects_sent", id.0)),
    ]
}

impl<A: Application> Replica<A> {
    /// Creates replica `id` with its signing key, the shared registry, and
    /// the hosted application.
    pub fn new(id: ReplicaId, config: Config, key: KeyPair, registry: KeyRegistry, app: A) -> Self {
        let n = config.n() as usize;
        let hub = obs::ObsHub::new();
        let [view_changes, executed, suspects_sent] = prime_counters(&hub, id);
        Replica {
            id,
            config,
            registry,
            key,
            verify_cache: VerifyCache::new(VERIFY_CACHE_CAP),
            byz: ByzMode::Correct,
            timing: Timing::default(),
            view: 0,
            in_view_change: false,
            vc_target: 0,
            last_vc_broadcast_at: SimTime::ZERO,
            membership: None,
            incarnation: 0,
            next_po_seq: 1,
            po_store: PoStore::new(n),
            po_envelopes: vec![BTreeMap::new(); n],
            intro_seen: ClientSeqs::default(),
            origin_inc: vec![0; n],
            aru_counter: vec![0; n],
            my_aru: vec![0; n],
            latest_rows: BTreeMap::new(),
            last_gossiped_aru: vec![0; n],
            last_aru_at: SimTime::ZERO,
            last_pp_at: SimTime::ZERO,
            pre_prepares: BTreeMap::new(),
            prepares: BTreeMap::new(),
            commits: BTreeMap::new(),
            sent_prepare: BTreeSet::new(),
            sent_commit: BTreeSet::new(),
            committed: BTreeMap::new(),
            max_committed: 0,
            order_floor: 0,
            prepared_cert: None,
            planned_through: 0,
            plan_cover: vec![0; n],
            exec_plan: VecDeque::new(),
            exec_cover: vec![0; n],
            drained_through: 0,
            exec_seq: 0,
            executed_clients: ClientSeqs::default(),
            stall_since: None,
            last_fetch_at: SimTime::ZERO,
            unordered_since: None,
            suspects: BTreeMap::new(),
            sent_suspect: BTreeSet::new(),
            view_changes: BTreeMap::new(),
            last_checkpoint_at_exec: 0,
            checkpoint_votes: BTreeMap::new(),
            stable_checkpoint: 0,
            checkpoint_marks: VecDeque::new(),
            stable_marks: VecDeque::new(),
            batch_pending: Vec::new(),
            last_batch_at: SimTime::ZERO,
            po_batches: vec![BTreeMap::new(); n],
            prepared_certs: BTreeMap::new(),
            vc_windows: BTreeMap::new(),
            catchup_chunks: BTreeMap::new(),
            catching_up: false,
            catchup_started: SimTime::ZERO,
            catchup_attempts: 0,
            catchup_offers: BTreeMap::new(),
            catchup_dedup: BTreeMap::new(),
            app,
            stats: ReplicaStats::default(),
            obs: hub.clone(),
            health_ticks: 0,
            c_view_changes: view_changes,
            c_executed: executed,
            c_suspects_sent: suspects_sent,
            incoming_trace: None,
            trace_queue: BTreeMap::new(),
            trace_phase: BTreeMap::new(),
        }
    }

    /// Sets the causal-trace context for the next [`Replica::submit`]
    /// call — the hosting process's ambient context for the packet
    /// that carried the update. Consumed by `submit`.
    pub fn set_incoming_trace(&mut self, trace: Option<obs::TraceCtx>) {
        self.incoming_trace = trace;
    }

    /// Redirects this replica's metrics and journal records to a shared
    /// deployment hub. Accumulated counts carry over.
    pub fn attach_obs(&mut self, hub: &obs::ObsHub) {
        let [view_changes, executed, suspects_sent] = prime_counters(hub, self.id);
        view_changes.add(self.c_view_changes.get());
        executed.add(self.c_executed.get());
        suspects_sent.add(self.c_suspects_sent.get());
        self.obs = hub.clone();
        self.c_view_changes = view_changes;
        self.c_executed = executed;
        self.c_suspects_sent = suspects_sent;
    }

    /// Overrides protocol timing (tests tighten timeouts).
    pub fn set_timing(&mut self, timing: Timing) {
        self.timing = timing;
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.active_leader_of(self.view) == self.id
    }

    /// The active membership epoch, if a degraded one is installed.
    pub fn membership(&self) -> Option<&Membership> {
        self.membership.as_ref()
    }

    /// Installs a restricted membership epoch (wide-area site failover).
    ///
    /// Only thresholds, leader rotation, and the peer filter change;
    /// no view is forced and no ordering state is discarded. A committed
    /// sequence is either already committed by a survivor or covered by a
    /// surviving prepared certificate (commit quorum and survivor majority
    /// intersect), so the ordinary suspicion → view-change machinery,
    /// now running under the epoch's thresholds, re-establishes a live
    /// leader without forking history. Vote state from non-members is
    /// pruned so epoch thresholds count only epoch members.
    pub fn set_membership(&mut self, m: Membership, now: SimTime) {
        debug_assert!(m.contains(self.id), "epoch must include this replica");
        for set in self.suspects.values_mut() {
            set.retain(|id| m.contains(ReplicaId(*id)));
        }
        for votes in self.view_changes.values_mut() {
            votes.retain(|id, _| m.contains(ReplicaId(*id)));
        }
        for votes in self.checkpoint_votes.values_mut() {
            votes.retain(|id| m.contains(ReplicaId(*id)));
        }
        self.membership = Some(m);
        // Anything still unordered must now make progress under the
        // epoch; (re)arm the suspicion clock from the failover instant.
        self.unordered_since = None;
        self.note_unordered(now);
    }

    /// Removes the restricted epoch: the full static configuration's
    /// thresholds and leader rotation apply again (site heal / failback).
    pub fn clear_membership(&mut self) {
        self.membership = None;
    }

    /// Leader of `view` under the active membership.
    fn active_leader_of(&self, view: u64) -> ReplicaId {
        match &self.membership {
            Some(m) => m.leader_of(view),
            None => self.config.leader_of(view),
        }
    }

    /// Prepare/commit/install quorum under the active membership.
    fn active_ordering_quorum(&self) -> u32 {
        match &self.membership {
            Some(m) => m.ordering_quorum(),
            None => self.config.ordering_quorum(),
        }
    }

    /// Leader-suspicion threshold under the active membership.
    fn active_suspect_threshold(&self) -> u32 {
        match &self.membership {
            Some(m) => m.suspect_threshold(),
            None => self.config.suspect_threshold(),
        }
    }

    /// Intrusion budget under the active membership (join and catch-up
    /// `f + 1` rules).
    fn active_f(&self) -> u32 {
        match &self.membership {
            Some(m) => m.f,
            None => self.config.f,
        }
    }

    /// Whether a peer participates in the active membership.
    fn is_active_member(&self, id: ReplicaId) -> bool {
        match &self.membership {
            Some(m) => m.contains(id),
            None => true,
        }
    }

    /// Executed update count.
    pub fn exec_seq(&self) -> u64 {
        self.exec_seq
    }

    /// Whether a catch-up (state transfer) is in progress.
    pub fn is_catching_up(&self) -> bool {
        self.catching_up
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable application access (used by SCADA ground-truth rebuild).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    fn sign(&mut self, msg: PrimeMsg) -> Envelope {
        obs::prof::charge_crypto(msg.prof_stack(), obs::prof::CryptoOp::Sign, 1);
        Envelope::sign(self.id, msg, &mut self.key)
    }

    fn matrix_digest(matrix: &[AruRow]) -> Digest {
        let mut w = simnet::wire::Writer::new();
        for row in matrix {
            row.encode(&mut w);
        }
        sha256(&w.finish())
    }

    /// Injects a client update received from the external network.
    pub fn submit(&mut self, update: SignedUpdate, now: SimTime) -> Vec<OutEvent> {
        if obs::prof::enabled() {
            // Attribute the real (cache-missing) signature verifications
            // this submission triggers to the pre-ordering intro path.
            let miss0 = self.verify_cache.misses;
            let out = self.submit_inner(update, now);
            obs::prof::charge_crypto(
                "prime;preorder;po_request",
                obs::prof::CryptoOp::Verify,
                self.verify_cache.misses - miss0,
            );
            return out;
        }
        self.submit_inner(update, now)
    }

    fn submit_inner(&mut self, update: SignedUpdate, now: SimTime) -> Vec<OutEvent> {
        let mut out = Vec::new();
        // Always consume the pending context so it cannot leak onto an
        // unrelated later submission.
        let intro_trace = self.incoming_trace.take();
        if self.byz.is_crashed() {
            return out;
        }
        if !update.verify_cached(&self.registry, &mut self.verify_cache) {
            self.stats.bad_sigs += 1;
            return out;
        }
        let ckey = (update.update.client, update.update.client_seq);
        if self.executed_clients.contains(ckey.0, ckey.1) || !self.intro_seen.insert(ckey.0, ckey.1)
        {
            return out;
        }
        // Pre-ordering span: open until this update executes here.
        if let Some(q) = self
            .obs
            .start_span(intro_trace, obs::Stage::PrimeQueue, self.id.0)
        {
            self.trace_queue.insert(ckey, q);
        }
        let po_seq = po_compose(self.incarnation, self.next_po_seq);
        self.next_po_seq += 1;
        self.stats.po_introduced += 1;
        self.po_store
            .insert_if_absent(self.id.0, po_seq, update.clone());
        if self.config.batch_max > 0 {
            // Batched dissemination: the slot is pre-ordered (stored and
            // counted in our ARU) immediately — only the broadcast is
            // deferred until the batch closes. Coverage still requires
            // f+k+1 replicas to hold the update, so a batch lost with a
            // crashed origin simply never reaches coverage.
            self.batch_pending.push((po_seq, update));
            if self.batch_pending.len() as u32 >= self.config.batch_max
                || now.since(self.last_batch_at) >= BATCH_DELAY
            {
                self.flush_batch(now, &mut out);
            }
        } else {
            let msg = self.sign(PrimeMsg::PoRequest {
                origin: self.id,
                po_seq,
                update,
            });
            self.po_envelopes[self.id.0 as usize].insert(po_seq, msg.msg.clone());
            out.push(OutEvent::Broadcast(msg));
        }
        self.advance_my_aru();
        self.note_unordered(now);
        out
    }

    fn advance_my_aru(&mut self) {
        // Our own slot always tracks our current incarnation.
        self.origin_inc[self.id.0 as usize] = self.incarnation;
        for origin in 0..self.config.n() as usize {
            let inc = self.origin_inc[origin];
            if po_incarnation(self.my_aru[origin]) != inc {
                self.aru_counter[origin] = 0;
            }
            let counter =
                self.po_store
                    .contiguous_through(origin as u32, inc, self.aru_counter[origin]);
            self.aru_counter[origin] = counter;
            // Composite ordering keeps the vector monotone across
            // incarnation bumps (higher incarnation dominates).
            self.my_aru[origin] = self.my_aru[origin].max(po_compose(inc, counter));
        }
    }

    /// Handles a signed peer message.
    pub fn on_message(&mut self, msg: SignedMsg, now: SimTime) -> Vec<OutEvent> {
        if obs::prof::enabled() {
            // Every real verification this message triggers — its own
            // envelope plus any matrix rows or nested updates checked
            // while handling it — lands on the message's phase stack.
            // Cache hits are free and are deliberately not charged.
            let stack = msg.msg.prof_stack();
            let miss0 = self.verify_cache.misses;
            let out = self.on_message_inner(msg, now);
            obs::prof::charge_crypto(
                stack,
                obs::prof::CryptoOp::Verify,
                self.verify_cache.misses - miss0,
            );
            return out;
        }
        self.on_message_inner(msg, now)
    }

    fn on_message_inner(&mut self, msg: SignedMsg, now: SimTime) -> Vec<OutEvent> {
        let mut out = Vec::new();
        if self.byz.is_crashed() {
            return out;
        }
        if msg.from == self.id || msg.from.0 >= self.config.n() {
            return out;
        }
        // During a restricted epoch, peers outside the membership are on
        // the severed side of the site partition: their (stale) protocol
        // messages must not count toward the epoch's reduced thresholds.
        if !self.is_active_member(msg.from) {
            return out;
        }
        if !msg.verify_cached(&self.registry, &mut self.verify_cache) {
            self.stats.bad_sigs += 1;
            return out;
        }
        let from = msg.from;
        let sig = msg.sig;
        // Dispatch by move: only PoRequest needs the envelope again (it is
        // stored for reconciliation replays), and it is rebuilt from the
        // moved-out fields — no other variant pays a deep clone.
        match msg.msg {
            PrimeMsg::PoRequest {
                origin,
                po_seq,
                update,
            } => {
                let envelope = SignedMsg {
                    from,
                    msg: PrimeMsg::PoRequest {
                        origin,
                        po_seq,
                        update: update.clone(),
                    },
                    sig,
                };
                self.accept_po_request(envelope, from, origin, po_seq, update, now, &mut out);
            }
            PrimeMsg::PoAru { row } => {
                self.on_po_aru(row, &mut out);
            }
            PrimeMsg::PrePrepare { view, seq, matrix } => {
                self.on_pre_prepare(from, view, seq, matrix, now, &mut out);
            }
            PrimeMsg::Prepare { view, seq, digest } => {
                self.on_prepare(from, view, seq, digest, now, &mut out);
            }
            PrimeMsg::Commit { view, seq, digest } => {
                self.on_commit(from, view, seq, digest, now, &mut out);
            }
            // A slot forgotten behind a stable checkpoint gets no reply:
            // every peer's PO-ARU held it, or the checkpoints left the
            // fetcher so far behind that it must catch up by state
            // transfer, which its stall timer asks for.
            PrimeMsg::PoFetch { origin, po_seq } => {
                if let Some(envelope) = self
                    .po_envelopes
                    .get(origin.0 as usize)
                    .and_then(|envelopes| envelopes.get(&po_seq))
                {
                    let original = envelope.to_wire().to_vec();
                    let reply = self.sign(PrimeMsg::PoData { original });
                    out.push(OutEvent::Send(from, reply));
                } else if let Some(reply) = self.batch_member_reply(origin, po_seq) {
                    out.push(OutEvent::Send(from, reply));
                }
            }
            PrimeMsg::PoData { original } => {
                self.on_po_data(&original, now, &mut out);
            }
            PrimeMsg::SuspectLeader { view } => {
                self.on_suspect(from, view, now, &mut out);
            }
            PrimeMsg::ViewChange {
                new_view,
                max_committed,
                prepared_seq,
                prepared_view,
                prepared_matrix,
            } => {
                self.on_view_change(
                    from,
                    new_view,
                    max_committed,
                    prepared_seq,
                    prepared_view,
                    prepared_matrix,
                    now,
                    &mut out,
                );
            }
            PrimeMsg::NewView { view, start_seq } => {
                self.on_new_view(from, view, start_seq, now, &mut out);
            }
            PrimeMsg::Checkpoint {
                exec_seq,
                app_digest,
            } => {
                self.on_checkpoint(from, exec_seq, app_digest, now, &mut out);
            }
            PrimeMsg::CatchupRequest { have_exec_seq } => {
                if self.exec_seq > have_exec_seq {
                    // The companion dedup table travels first so the
                    // receiver can pair it with the reply behind it.
                    if self.config.transfer_dedup {
                        let table = self.sign(PrimeMsg::CatchupDedup {
                            exec_seq: self.exec_seq,
                            dedup: self.executed_clients.table(),
                        });
                        out.push(OutEvent::Send(from, table));
                    }
                    // With chunking armed the snapshot travels as
                    // `CatchupChunk` messages ahead of the reply (whose
                    // own snapshot is left empty as the splice marker),
                    // so one large transfer does not occupy the NIC lane
                    // in a single burst that stalls the ordering pipeline.
                    let full = self.app.snapshot();
                    let chunk = self.config.transfer_chunk as usize;
                    let snapshot = if chunk > 0 && !full.is_empty() {
                        let count = full.len().div_ceil(chunk) as u32;
                        for (index, part) in full.chunks(chunk).enumerate() {
                            let m = self.sign(PrimeMsg::CatchupChunk {
                                exec_seq: self.exec_seq,
                                index: index as u32,
                                count,
                                data: part.to_vec(),
                            });
                            out.push(OutEvent::Send(from, m));
                        }
                        Vec::new()
                    } else {
                        full
                    };
                    let reply = PrimeMsg::CatchupReply {
                        exec_seq: self.exec_seq,
                        app_digest: self.app.digest(),
                        snapshot,
                        next_order_seq: self.planned_through + 1,
                        exec_cover: self.plan_cover.clone(),
                        view: self.view,
                    };
                    let reply = self.sign(reply);
                    out.push(OutEvent::Send(from, reply));
                }
            }
            PrimeMsg::CatchupReply {
                exec_seq,
                app_digest,
                snapshot,
                next_order_seq,
                exec_cover,
                view,
            } => {
                self.on_catchup_reply(
                    from,
                    exec_seq,
                    app_digest,
                    snapshot,
                    next_order_seq,
                    exec_cover,
                    view,
                    &mut out,
                );
            }
            PrimeMsg::CatchupDedup { exec_seq, dedup } => {
                if self.catching_up {
                    self.catchup_dedup.insert(from.0, (exec_seq, dedup));
                }
            }
            PrimeMsg::PoRequestBatch { batch } => {
                self.accept_po_batch(from, batch, now, &mut out);
            }
            PrimeMsg::PoBatchMember {
                origin,
                first_po_seq,
                count,
                index,
                update,
                path,
                root_sig,
            } => {
                self.accept_po_batch_member(
                    origin,
                    first_po_seq,
                    count,
                    index,
                    update,
                    path,
                    &root_sig,
                    now,
                    &mut out,
                );
            }
            PrimeMsg::ViewChangeWindow {
                new_view,
                max_committed,
                certs,
            } => {
                self.on_view_change_window(from, new_view, max_committed, certs, now, &mut out);
            }
            PrimeMsg::CatchupChunk {
                exec_seq,
                index,
                count,
                data,
            } => {
                self.on_catchup_chunk(from, exec_seq, index, count, data);
            }
        }
        out
    }

    /// Periodic driver: gossip PO-ARUs, propose as leader, check timeouts.
    pub fn tick(&mut self, now: SimTime) -> Vec<OutEvent> {
        let mut out = Vec::new();
        if self.byz.is_crashed() {
            return out;
        }
        // Flight recorder: journal a health snapshot every N ticks when
        // the cadence is armed (off by default, so historical digests
        // are untouched; deterministic and pinnable when on).
        let health_every = obs::prof::health_every();
        if health_every > 0 {
            self.health_ticks += 1;
            if self.health_ticks.is_multiple_of(health_every) {
                self.journal_health(now);
            }
        }
        // Close a stale batch: end-of-burst stragglers must not wait for
        // the next submission to trigger the rate-limiter.
        if self.config.batch_max > 0
            && !self.batch_pending.is_empty()
            && now.since(self.last_batch_at) >= BATCH_DELAY
        {
            self.flush_batch(now, &mut out);
        }
        // Gossip PO-ARU when it changed or periodically.
        if (self.my_aru != self.last_gossiped_aru
            || now.since(self.last_aru_at) >= self.timing.aru_interval.saturating_mul(5))
            && now.since(self.last_aru_at) >= self.timing.aru_interval
        {
            self.last_aru_at = now;
            self.last_gossiped_aru = self.my_aru.clone();
            let vector = self.my_aru.clone();
            obs::prof::charge_crypto("prime;preorder;po_aru", obs::prof::CryptoOp::Sign, 1);
            let sig = self.key.sign(&AruRow::signed_bytes(self.id, &vector));
            let row = AruRow {
                replica: self.id,
                vector,
                sig,
            };
            // Install our own row for our own proposals.
            self.latest_rows.insert(self.id.0, row.clone());
            let msg = self.sign(PrimeMsg::PoAru { row });
            out.push(OutEvent::Broadcast(msg));
        }
        // Leader proposal.
        if self.is_leader() && !self.in_view_change && !self.catching_up {
            self.maybe_propose(now, &mut out);
        }
        // Suspicion.
        self.note_unordered(now);
        if let Some(since) = self.unordered_since {
            if now.since(since) >= self.effective_suspect_timeout()
                && !self.sent_suspect.contains(&self.view)
                && !self.in_view_change
            {
                self.sent_suspect.insert(self.view);
                self.stats.suspects_sent += 1;
                self.c_suspects_sent.inc();
                let view = self.view;
                let msg = self.sign(PrimeMsg::SuspectLeader { view });
                out.push(OutEvent::Broadcast(msg));
                // Count ourselves.
                let count = self.suspects.entry(view).or_default().len() as u32 + 1;
                if count >= self.active_suspect_threshold() {
                    self.start_view_change(view + 1, now, &mut out);
                }
            }
        }
        // A view change that cannot complete (votes lost to a partition
        // that has since healed) must not deadlock: retransmit our vote
        // until the view installs or a higher target supersedes it.
        if self.in_view_change
            && now.since(self.last_vc_broadcast_at) >= self.effective_suspect_timeout()
        {
            self.last_vc_broadcast_at = now;
            let target = self.vc_target;
            if let Some((max_committed, prepared_seq, prepared_view, matrix)) = self
                .view_changes
                .get(&target)
                .and_then(|votes| votes.get(&self.id.0))
                .cloned()
            {
                if self.config.pipeline > 1 {
                    let certs = self
                        .vc_windows
                        .get(&target)
                        .and_then(|w| w.get(&self.id.0))
                        .cloned()
                        .unwrap_or_default();
                    let vc = self.sign(PrimeMsg::ViewChangeWindow {
                        new_view: target,
                        max_committed,
                        certs,
                    });
                    out.push(OutEvent::Broadcast(vc));
                } else {
                    let vc = self.sign(PrimeMsg::ViewChange {
                        new_view: target,
                        max_committed,
                        prepared_seq,
                        prepared_view,
                        prepared_matrix: matrix,
                    });
                    out.push(OutEvent::Broadcast(vc));
                }
            }
        }
        // A committed-sequence gap is also a stall (see check_committed).
        if self.max_committed > self.planned_through {
            self.stall_since.get_or_insert(now);
        }
        // Retry catch-up: peers keep executing, so offers keyed on their
        // exact (exec_seq, digest) may never collect f+1 matches in one
        // round — and under message loss a whole request/reply round can
        // vanish. Re-request on an exponential backoff (first retry after
        // one plain timeout, then doubling) until a consistent snapshot
        // group forms or the attempt budget runs out.
        if self.catching_up
            && now.since(self.catchup_started)
                >= catchup_backoff(self.timing.catchup_timeout, self.catchup_attempts)
        {
            self.catchup_attempts += 1;
            if self.catchup_attempts > 10 {
                // Not enough intact peers to form an f+1 snapshot group —
                // an assumption breach. Give up and resume participation;
                // the application layer recovers ground truth from the
                // field devices (§III-A), and a later stall re-triggers
                // catch-up if peers regain consistent state.
                self.catching_up = false;
                self.stall_since = None;
            } else {
                self.stats.catchup_retransmits += 1;
                self.catchup_started = now;
                self.catchup_offers.clear();
                self.catchup_dedup.clear();
                self.catchup_chunks.clear();
                let req = self.sign(PrimeMsg::CatchupRequest {
                    have_exec_seq: self.exec_seq,
                });
                out.push(OutEvent::Broadcast(req));
            }
        }
        // Execution stall → reconciliation retry / catch-up.
        if let Some(stall) = self.stall_since {
            if now.since(stall) >= self.timing.catchup_timeout {
                self.stall_since = Some(now);
                self.request_catchup(now, &mut out);
            } else {
                self.try_execute(now, &mut out);
            }
        }
        out
    }

    /// Computes the flight-recorder health gauges from pure replica
    /// state. Public so a live consumer (the response controller) can
    /// probe the same gauges the journal records, without journal parsing
    /// and regardless of whether periodic snapshots are armed.
    pub fn health_sample(&self, now: SimTime) -> HealthSample {
        // PO-queue depth: the planned backlog plus eligible pre-ordered
        // updates whose delivery is still outstanding. Eligibility uses
        // the composed aru/cover comparison (matching
        // `has_unordered_eligible`), and slots whose update already
        // executed via another origin's pre-ordering are excluded — a
        // lossy window can leave such duplicate slots uncoverable
        // forever, but they are residue, not backlog, and the gauge an
        // operator watches must drain once the system has recovered.
        let mut po_queue = self.exec_plan.len() as u64;
        for (origin, (&a, &c)) in self.my_aru.iter().zip(self.plan_cover.iter()).enumerate() {
            if a <= c {
                continue;
            }
            let inc = po_incarnation(a);
            let start = if inc == po_incarnation(c) {
                po_counter(c) + 1
            } else {
                1
            };
            // A hole we would have to fetch is outstanding work too.
            po_queue +=
                self.po_store
                    .count_pending(origin as u32, inc, start..=po_counter(a), |signed| {
                        !self
                            .executed_clients
                            .contains(signed.update.client, signed.update.client_seq)
                    });
        }
        let in_flight = self.pre_prepares.range(self.max_committed + 1..).count();
        let tat_us = self
            .unordered_since
            .map_or(0, |since| now.since(since).as_micros());
        HealthSample {
            replica: self.id.0,
            view: self.view,
            aru: self.my_aru.iter().map(|&v| po_counter(v)).sum(),
            po_queue: po_queue.min(u32::MAX as u64) as u32,
            in_flight: in_flight.min(u32::MAX as usize) as u32,
            tat_us,
            catching_up: self.catching_up,
        }
    }

    /// Journals one [`obs::Event::ReplicaHealth`] flight-recorder record:
    /// every gauge is pure replica state read at a deterministic tick, so
    /// snapshot-enabled runs digest deterministically per seed.
    fn journal_health(&mut self, now: SimTime) {
        let s = self.health_sample(now);
        self.obs.journal(obs::Event::ReplicaHealth {
            replica: s.replica,
            view: s.view,
            aru: s.aru,
            po_queue: s.po_queue,
            in_flight: s.in_flight,
            tat_us: s.tat_us,
            catching_up: s.catching_up,
        });
    }

    fn effective_suspect_timeout(&self) -> SimDuration {
        self.timing.suspect_timeout
    }

    /// Proactive recovery: wipe all state (the replica restarts from a
    /// clean, rediversified image) and rejoin via state transfer. The
    /// membership epoch, being management-plane configuration rather
    /// than protocol state, survives the wipe.
    pub fn recover(&mut self, now: SimTime) -> Vec<OutEvent> {
        let n = self.config.n() as usize;
        // A fresh incarnation strictly above the previous one: derived
        // from the monotonic clock (milliseconds), so no pre-order slot
        // from the previous life can ever be reused.
        self.incarnation = ((now.as_micros() / 1_000) as u32).max(self.incarnation + 1);
        self.next_po_seq = 1;
        self.po_store.clear();
        self.po_envelopes.iter_mut().for_each(BTreeMap::clear);
        self.intro_seen.clear();
        self.incoming_trace = None;
        self.trace_queue.clear();
        self.trace_phase.clear();
        self.origin_inc = vec![0; n];
        self.aru_counter = vec![0; n];
        self.my_aru = vec![0; n];
        self.latest_rows.clear();
        self.last_gossiped_aru = vec![0; n];
        self.pre_prepares.clear();
        self.prepares.clear();
        self.commits.clear();
        self.sent_prepare.clear();
        self.sent_commit.clear();
        self.committed.clear();
        self.max_committed = 0;
        self.order_floor = 0;
        self.prepared_cert = None;
        self.batch_pending.clear();
        self.last_batch_at = SimTime::ZERO;
        self.po_batches.iter_mut().for_each(BTreeMap::clear);
        self.prepared_certs.clear();
        self.vc_windows.clear();
        self.catchup_chunks.clear();
        self.planned_through = 0;
        self.plan_cover = vec![0; n];
        self.exec_plan.clear();
        self.exec_cover = vec![0; n];
        self.drained_through = 0;
        self.exec_seq = 0;
        self.executed_clients.clear();
        self.stall_since = None;
        self.unordered_since = None;
        self.suspects.clear();
        self.sent_suspect.clear();
        self.view_changes.clear();
        self.view = 0;
        self.in_view_change = false;
        self.last_checkpoint_at_exec = 0;
        self.checkpoint_votes.clear();
        self.stable_checkpoint = 0;
        self.checkpoint_marks.clear();
        self.stable_marks.clear();
        self.catching_up = false;
        self.catchup_offers.clear();
        self.catchup_dedup.clear();
        self.app.install_snapshot(&[]);
        let mut out = Vec::new();
        self.request_catchup(now, &mut out);
        out
    }

    /// Entries held in each table a stable checkpoint truncates.
    #[cfg(test)]
    fn retained(&self) -> Retained {
        Retained {
            slots: self.po_store.held(),
            batches: self.po_batches.iter().map(BTreeMap::len).sum(),
            envelopes: self.po_envelopes.iter().map(BTreeMap::len).sum(),
            ordering: self.pre_prepares.len()
                + self.prepares.len()
                + self.commits.len()
                + self.sent_prepare.len()
                + self.sent_commit.len()
                + self.committed.len(),
        }
    }
}

/// What [`Replica::retained`] counts.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Retained {
    slots: usize,
    batches: usize,
    envelopes: usize,
    ordering: usize,
}

impl<A: Application> std::fmt::Debug for Replica<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("exec_seq", &self.exec_seq)
            .field("max_committed", &self.max_committed)
            .field("stats", &self.stats)
            .finish()
    }
}
