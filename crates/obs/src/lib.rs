//! Deterministic observability for the simulated Spire deployment.
//!
//! The paper's evidence is observational — view-change counts over six
//! days, auth-failure tallies during the red-team excursion, reaction
//! latency distributions — so the reproduction needs one source of
//! truth for telemetry instead of ad-hoc counters scattered per crate.
//! This crate provides it:
//!
//! * a metrics registry ([`ObsHub`]) of named [`Counter`]s, beside a
//!   clock of **simulated** time. A measurement (a reaction time, a
//!   latency) is not registered: it lives in what the run returns;
//! * an append-only structured [`Event`] journal whose byte encoding is
//!   deterministic for a given seed and hashable into a single run
//!   digest ([`ObsHub::journal_digest`]);
//! * a renderable per-run snapshot ([`ObsReport`]).
//!
//! A component is given its hub when it is built and keeps it for life.
//! A deployment builds every component on its simulation's hub
//! (`simnet::Simulation::obs`), so engine and hosts count and journal
//! into one registry; a standalone component (a unit test, a bare Prime
//! cluster) is handed a fresh one. Each component registers its counters
//! once, in its constructor, and hot paths (per-frame drop accounting)
//! keep the `Counter` handle rather than re-resolving the name.

pub mod event;
pub mod prof;
pub mod report;
pub mod trace;

pub use event::{Event, TimedEvent};
pub use report::ObsReport;
pub use trace::{SpanId, Stage, TraceCtx, TraceId};

use itcrypto::sha256::{Digest, Sha256};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A named monotone counter. Cloning shares the underlying cell, so
/// hot paths cache the handle instead of re-resolving the name.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Inner {
    /// Simulated time in microseconds, advanced by the scheduler.
    now_us: AtomicU64,
    counters: Mutex<BTreeMap<String, Counter>>,
    journal: Mutex<Vec<TimedEvent>>,
    /// When set, journal appends are echoed to stdout (`--trace`).
    trace: AtomicBool,
    /// When set, span APIs allocate ids and journal start/end records.
    tracing: AtomicBool,
    /// Last allocated trace id (ids start at 1).
    last_trace: AtomicU64,
    /// Last allocated span id (ids start at 1; 0 encodes "root").
    last_span: AtomicU64,
}

/// Locks `m`, shrugging off poison: every guarded structure stays
/// internally consistent even if an unrelated panic unwound mid-hold.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The observability hub: metrics registry + event journal, stamped
/// with simulated time. Cheap to clone; clones share all state.
#[derive(Clone, Default)]
pub struct ObsHub {
    inner: Arc<Inner>,
}

impl ObsHub {
    /// Creates an empty hub at simulated time zero.
    pub fn new() -> Self {
        ObsHub::default()
    }

    /// Whether two handles share the same underlying registry.
    pub fn same_hub(&self, other: &ObsHub) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    // ---- simulated clock ----

    /// Advances the simulated clock; called by the scheduler on
    /// dispatch. The clock is clamped to monotonic: a caller handing
    /// in an earlier time (the chaos driver's clock-skew fault) is
    /// journaled as a [`Event::ClockSkew`] and otherwise ignored, so
    /// span durations can never underflow.
    pub fn set_now_us(&self, now_us: u64) {
        let cur = self.inner.now_us.load(Ordering::Relaxed);
        if now_us < cur {
            self.journal(Event::ClockSkew {
                from_us: cur,
                to_us: now_us,
            });
            return;
        }
        self.inner.now_us.store(now_us, Ordering::Relaxed);
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.inner.now_us.load(Ordering::Relaxed)
    }

    // ---- metrics registry ----

    /// Returns the counter registered under `name`, creating it at zero.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = lock(&self.inner.counters);
        if let Some(c) = reg.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        reg.insert(name.to_string(), c.clone());
        c
    }

    /// Current value of counter `name` (zero if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.inner.counters).get(name).map_or(0, Counter::get)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        lock(&self.inner.counters)
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, c)| c.get())
            .sum()
    }

    // ---- event journal ----

    /// Enables/disables echoing journal records to stdout as they land.
    pub fn set_trace(&self, on: bool) {
        self.inner.trace.store(on, Ordering::Relaxed);
    }

    /// Whether journal records are echoed to stdout as they land.
    pub fn trace_echo(&self) -> bool {
        self.inner.trace.load(Ordering::Relaxed)
    }

    /// Appends `event` to the journal at the current simulated time.
    pub fn journal(&self, event: Event) {
        let rec = TimedEvent {
            at_us: self.now_us(),
            event,
        };
        if self.trace_echo() {
            println!("[{:>12.6}s] {}", rec.at_us as f64 / 1e6, rec.event);
        }
        lock(&self.inner.journal).push(rec);
    }

    /// Number of journal records.
    pub fn journal_len(&self) -> usize {
        lock(&self.inner.journal).len()
    }

    /// A copy of the journal (tests and report rendering).
    pub fn journal_records(&self) -> Vec<TimedEvent> {
        lock(&self.inner.journal).clone()
    }

    /// Every record appended since `cursor`, advancing the cursor past
    /// them. Each reader owns its cursor, so readers tail the journal
    /// independently.
    pub fn journal_since(&self, cursor: &mut usize) -> Vec<TimedEvent> {
        let journal = lock(&self.inner.journal);
        let fresh = journal[(*cursor).min(journal.len())..].to_vec();
        *cursor = journal.len();
        fresh
    }

    /// Number of journal records matching `pred`.
    pub fn journal_count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        lock(&self.inner.journal)
            .iter()
            .filter(|r| pred(&r.event))
            .count()
    }

    /// SHA-256 over the canonical byte encoding of every journal
    /// record, in order: the run's identity. Two runs with the same
    /// seed must produce byte-identical digests.
    pub fn journal_digest(&self) -> Digest {
        let mut h = Sha256::new();
        let mut buf = Vec::with_capacity(64);
        for rec in lock(&self.inner.journal).iter() {
            buf.clear();
            rec.encode_into(&mut buf);
            h.update(&buf);
        }
        h.finalize()
    }

    // ---- causal tracing ----

    /// Enables/disables causal tracing. Off by default: untraced runs
    /// journal no span records and keep their historical digests.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether span APIs are live.
    pub fn tracing(&self) -> bool {
        self.inner.tracing.load(Ordering::Relaxed)
    }

    /// Opens a new trace: allocates a trace id, journals the root
    /// span's start at the current simulated time, and returns the
    /// context to propagate. `None` while tracing is disabled.
    pub fn start_root(&self, stage: trace::Stage, node: u32) -> Option<TraceCtx> {
        if !self.tracing() {
            return None;
        }
        let trace = TraceId(self.inner.last_trace.fetch_add(1, Ordering::Relaxed) + 1);
        Some(self.open_span(trace, None, stage, node))
    }

    /// Opens a child span under `parent`. `None` when tracing is
    /// disabled or the causal context was lost (`parent` is `None`) —
    /// spans never start mid-air.
    pub fn start_span(
        &self,
        parent: Option<TraceCtx>,
        stage: trace::Stage,
        node: u32,
    ) -> Option<TraceCtx> {
        if !self.tracing() {
            return None;
        }
        let parent = parent?;
        Some(self.open_span(parent.trace, Some(parent.span), stage, node))
    }

    /// Opens and immediately closes a child span: a zero-duration
    /// milestone that still anchors further children (overlay hops,
    /// executes, renders).
    pub fn instant_span(
        &self,
        parent: Option<TraceCtx>,
        stage: trace::Stage,
        node: u32,
    ) -> Option<TraceCtx> {
        let ctx = self.start_span(parent, stage, node);
        self.end_span(ctx);
        ctx
    }

    /// Journals the end of `ctx`'s span at the current simulated time.
    /// No-op for `None` or while tracing is disabled.
    pub fn end_span(&self, ctx: Option<TraceCtx>) {
        if !self.tracing() {
            return;
        }
        if let Some(ctx) = ctx {
            self.journal(Event::SpanEnd {
                trace: ctx.trace,
                span: ctx.span,
            });
        }
    }

    fn open_span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        stage: trace::Stage,
        node: u32,
    ) -> TraceCtx {
        let span = SpanId(self.inner.last_span.fetch_add(1, Ordering::Relaxed) + 1);
        self.journal(Event::SpanStart {
            trace,
            span,
            parent,
            stage,
            node,
        });
        TraceCtx { trace, span }
    }

    // ---- reporting ----

    /// Snapshot of every metric plus the journal digest.
    pub fn report(&self) -> ObsReport {
        // Snapshot the journal once up front: the std Mutex is not
        // reentrant, so the digest/len helpers below must not run while
        // a guard temporary from this expression is still alive.
        let journal = self.journal_records();
        ObsReport {
            counters: lock(&self.inner.counters)
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            critical_paths: trace::critical_paths(&journal),
            journal_len: journal.len(),
            journal_digest: self.journal_digest().to_hex(),
            journal,
        }
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("now_us", &self.now_us())
            .field("counters", &lock(&self.inner.counters).len())
            .field("journal_len", &self.journal_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let hub = ObsHub::new();
        let a = hub.counter("net.drops");
        let b = hub.counter("net.drops");
        a.inc();
        b.add(2);
        assert_eq!(hub.counter_value("net.drops"), 3);
        assert_eq!(hub.counter_value("unregistered"), 0);
    }

    #[test]
    fn counter_sum_matches_prefix() {
        let hub = ObsHub::new();
        hub.counter("spines.0.sealed").add(5);
        hub.counter("spines.1.sealed").add(7);
        hub.counter("prime.0.ordered").add(100);
        assert_eq!(hub.counter_sum("spines."), 12);
        assert_eq!(hub.counter_sum("prime."), 100);
        assert_eq!(hub.counter_sum("nothing."), 0);
    }

    #[test]
    fn journal_stamps_simulated_time_and_digests_deterministically() {
        let make = || {
            let hub = ObsHub::new();
            hub.set_now_us(1_000);
            hub.journal(Event::ViewChange {
                replica: 1,
                view: 2,
            });
            hub.set_now_us(2_500);
            hub.journal(Event::AuthFailure { daemon: 3 });
            hub
        };
        let a = make();
        let b = make();
        assert_eq!(a.journal_digest(), b.journal_digest());
        assert_eq!(a.journal_records()[0].at_us, 1_000);
        assert_eq!(a.journal_records()[1].at_us, 2_500);

        // Any difference — order, payload, or timestamp — changes the digest.
        let c = ObsHub::new();
        c.set_now_us(1_000);
        c.journal(Event::ViewChange {
            replica: 1,
            view: 3,
        });
        c.set_now_us(2_500);
        c.journal(Event::AuthFailure { daemon: 3 });
        assert_ne!(a.journal_digest(), c.journal_digest());
    }

    #[test]
    fn journal_count_filters_by_kind() {
        let hub = ObsHub::new();
        hub.journal(Event::ViewChange {
            replica: 0,
            view: 1,
        });
        hub.journal(Event::RecoveryStart { replica: 2 });
        hub.journal(Event::ViewChange {
            replica: 1,
            view: 1,
        });
        assert_eq!(
            hub.journal_count(|e| matches!(e, Event::ViewChange { .. })),
            2
        );
        assert_eq!(
            hub.journal_count(|e| matches!(e, Event::RecoveryEnd { .. })),
            0
        );
    }

    #[test]
    fn journal_since_cursors_are_independent_and_order_preserving() {
        let hub = ObsHub::new();
        let clone = hub.clone();
        hub.journal(Event::RecoveryStart { replica: 1 });
        clone.journal(Event::RecoveryEnd { replica: 1 });

        let (mut a, mut b) = (0, 0);
        let first = hub.journal_since(&mut a);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].event, Event::RecoveryStart { replica: 1 });
        assert_eq!(first[1].event, Event::RecoveryEnd { replica: 1 });
        assert!(hub.journal_since(&mut a).is_empty());

        hub.journal(Event::AuthFailure { daemon: 2 });
        assert_eq!(hub.journal_since(&mut a).len(), 1);
        // The second reader still sees the whole journal.
        assert_eq!(clone.journal_since(&mut b).len(), 3);
    }

    #[test]
    fn report_snapshots_metrics_and_renders() {
        let hub = ObsHub::new();
        hub.counter("a.count").add(4);
        hub.journal(Event::PacketDrop {
            node: 1,
            kind: event::DropKind::Loss,
        });
        let r = hub.report();
        assert_eq!(r.counters, vec![("a.count".to_string(), 4)]);
        assert_eq!(r.journal_len, 1);
        let text = r.render();
        assert!(text.contains("a.count"));
        assert!(text.contains(&r.journal_digest[..16]));
    }

    #[test]
    fn clock_never_moves_backwards() {
        let hub = ObsHub::new();
        hub.set_now_us(5_000);
        hub.set_now_us(1_200); // rejected: journaled, clock kept
        assert_eq!(hub.now_us(), 5_000);
        assert_eq!(
            hub.journal_records(),
            vec![TimedEvent {
                at_us: 5_000,
                event: Event::ClockSkew {
                    from_us: 5_000,
                    to_us: 1_200,
                },
            }]
        );
        hub.set_now_us(6_000); // forward motion still works
        assert_eq!(hub.now_us(), 6_000);
    }

    #[test]
    fn clones_share_hub_identity() {
        let hub = ObsHub::new();
        let clone = hub.clone();
        assert!(hub.same_hub(&clone));
        assert!(!hub.same_hub(&ObsHub::new()));
        clone.counter("x").inc();
        assert_eq!(hub.counter_value("x"), 1);
    }
}
