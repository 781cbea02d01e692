//! Deterministic continuous profiler: simulated-cost attribution.
//!
//! Wall-clock profilers sample a real CPU; this simulator has none, so
//! the profiler charges *simulated* costs instead. The schedulers
//! (the simnet event loop and the Prime cluster harness) attribute
//! every inter-event gap of simulated time to exactly one phase stack —
//! the stack of the event that ends the gap — so the per-stack time
//! rows **telescope**: they sum to the total simulated time, exactly,
//! by construction. Components ride along on the same stacks with
//! commuting columns (message bytes, sign/verify/HMAC operation
//! counts, event counts) that need not telescope.
//!
//! The accumulator is thread-local and entirely outside the [`crate::ObsHub`]
//! journal, so enabling it cannot perturb a run's digest (the charges
//! themselves are commutative — see [`Profile::charge`]).
//!
//! Output is a folded-stack text ([`Profile::folded`]) consumable by
//! standard flamegraph tooling (`flamegraph.pl`, speedscope, inferno),
//! plus an exact attribution table rendered by
//! [`crate::report::attribution_markdown`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// A crypto operation class charged to a phase stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoOp {
    /// Public-key signature creation.
    Sign,
    /// Public-key signature verification (cache misses only — memoized
    /// verdicts cost nothing and are not charged).
    Verify,
    /// Symmetric seal/open (Spines link HMAC).
    Hmac,
}

/// Additive cost cell for one phase stack. All fields commute under
/// addition, so accumulation order never changes the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Simulated time charged, microseconds. Only the schedulers charge
    /// this column, and they charge every gap exactly once, so across
    /// all rows it telescopes to total simulated time.
    pub time_us: u64,
    /// Message payload bytes attributed to the stack.
    pub bytes: u64,
    /// Signature creations.
    pub sign: u64,
    /// Signature verifications (cache misses).
    pub verify: u64,
    /// HMAC seal/open operations.
    pub hmac: u64,
    /// Events (messages dispatched, frames forwarded, executions).
    pub events: u64,
}

impl PhaseCost {
    /// Adds `other` into `self` field-wise.
    pub fn add(&mut self, other: &PhaseCost) {
        self.time_us += other.time_us;
        self.bytes += other.bytes;
        self.sign += other.sign;
        self.verify += other.verify;
        self.hmac += other.hmac;
        self.events += other.events;
    }
}

/// A profile: phase stack (`;`-joined, flamegraph convention) → cost.
///
/// Keyed by a `BTreeMap` so iteration, [`Profile::folded`] output, and
/// equality are canonical regardless of the order charges arrived in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    rows: BTreeMap<String, PhaseCost>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Adds `cost` to `stack`'s row. Addition commutes, so any
    /// interleaving of the same multiset of charges yields the same
    /// profile — the property the interleaving proptest pins.
    pub fn charge(&mut self, stack: &str, cost: PhaseCost) {
        if let Some(row) = self.rows.get_mut(stack) {
            row.add(&cost);
        } else {
            self.rows.insert(stack.to_string(), cost);
        }
    }

    /// Merges another profile in (row-wise addition).
    pub fn merge(&mut self, other: &Profile) {
        for (stack, cost) in &other.rows {
            self.charge(stack, *cost);
        }
    }

    /// Iterates rows in canonical (lexicographic stack) order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &PhaseCost)> {
        self.rows.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no charges have landed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of every row (the telescoped totals).
    pub fn total(&self) -> PhaseCost {
        let mut t = PhaseCost::default();
        for cost in self.rows.values() {
            t.add(cost);
        }
        t
    }

    /// Total simulated time charged, microseconds. Equals the run's
    /// elapsed simulated time exactly when a scheduler charged every
    /// gap (the telescoping invariant).
    pub fn total_time_us(&self) -> u64 {
        self.rows.values().map(|c| c.time_us).sum()
    }

    /// Folded-stack text: one `stack value` line per row (value =
    /// simulated microseconds), in canonical order. Feed to
    /// `flamegraph.pl`, inferno, or speedscope.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, cost) in &self.rows {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&cost.time_us.to_string());
            out.push('\n');
        }
        out
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static HEALTH_EVERY: Cell<u64> = const { Cell::new(0) };
    static CURRENT: RefCell<Profile> = RefCell::new(Profile::new());
}

/// Enables/disables cost attribution on this thread. Charges made while
/// disabled are dropped at the call site (one branch). Profiling state
/// is thread-local: a simulation runs on the thread that called it, so
/// concurrent runs on other threads (the test harness) keep their own.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether cost attribution is live on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Sets the health-snapshot cadence: every `n` protocol ticks each
/// replica journals a [`crate::Event::ReplicaHealth`] record and each
/// replica host journals per-link [`crate::Event::LinkHealth`] records.
/// `0` (the default) disables snapshots, keeping journals — and
/// therefore golden digests — byte-identical to historical runs.
pub fn set_health_every(n: u64) {
    HEALTH_EVERY.with(|h| h.set(n));
}

/// The health-snapshot cadence in ticks (`0` = off).
pub fn health_every() -> u64 {
    HEALTH_EVERY.with(Cell::get)
}

/// Charges a gap of simulated time (schedulers only — see the
/// telescoping contract on [`PhaseCost::time_us`]).
pub fn charge_time(stack: &str, time_us: u64) {
    if !enabled() {
        return;
    }
    CURRENT.with(|p| {
        p.borrow_mut().charge(
            stack,
            PhaseCost {
                time_us,
                ..PhaseCost::default()
            },
        )
    });
}

/// Charges `n` events and `bytes` payload bytes to a stack.
pub fn charge_msg(stack: &str, events: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    CURRENT.with(|p| {
        p.borrow_mut().charge(
            stack,
            PhaseCost {
                bytes,
                events,
                ..PhaseCost::default()
            },
        )
    });
}

/// Charges `n` crypto operations of class `op` to a stack.
pub fn charge_crypto(stack: &str, op: CryptoOp, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    let mut cost = PhaseCost::default();
    match op {
        CryptoOp::Sign => cost.sign = n,
        CryptoOp::Verify => cost.verify = n,
        CryptoOp::Hmac => cost.hmac = n,
    }
    CURRENT.with(|p| p.borrow_mut().charge(stack, cost));
}

/// Drains and returns this thread's accumulated profile.
pub fn take() -> Profile {
    CURRENT.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Runs `f` and returns its result alongside the profile of exactly the
/// charges made during `f`. Charges accumulated before the call are
/// preserved, and `f`'s charges remain in the thread total afterwards —
/// so a caller can carve out a per-step profile without losing the
/// run-wide aggregate.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Profile) {
    let before = take();
    let out = f();
    let delta = CURRENT.with(|p| {
        let mut cur = p.borrow_mut();
        let delta = cur.clone();
        let mut restored = before;
        restored.merge(&delta);
        *cur = restored;
        delta
    });
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_additively() {
        let mut p = Profile::new();
        p.charge(
            "prime;order",
            PhaseCost {
                time_us: 10,
                events: 1,
                ..PhaseCost::default()
            },
        );
        p.charge(
            "prime;order",
            PhaseCost {
                time_us: 5,
                sign: 2,
                ..PhaseCost::default()
            },
        );
        let rows: Vec<_> = p.rows().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.time_us, 15);
        assert_eq!(rows[0].1.events, 1);
        assert_eq!(rows[0].1.sign, 2);
        assert_eq!(p.total_time_us(), 15);
    }

    #[test]
    fn merge_commutes() {
        let mk = |stack: &str, us: u64| {
            let mut p = Profile::new();
            p.charge(
                stack,
                PhaseCost {
                    time_us: us,
                    ..PhaseCost::default()
                },
            );
            p
        };
        let (a, b) = (mk("x", 3), mk("y", 7));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_time_us(), 10);
    }

    #[test]
    fn folded_output_is_canonical_and_parseable() {
        let mut p = Profile::new();
        p.charge(
            "b;leaf",
            PhaseCost {
                time_us: 2,
                ..PhaseCost::default()
            },
        );
        p.charge(
            "a;leaf",
            PhaseCost {
                time_us: 1,
                ..PhaseCost::default()
            },
        );
        assert_eq!(p.folded(), "a;leaf 1\nb;leaf 2\n");
    }

    #[test]
    fn thread_local_capture_preserves_outer_charges() {
        set_enabled(true);
        let _ = take();
        charge_time("outer", 5);
        let ((), inner) = capture(|| charge_time("inner", 7));
        assert_eq!(inner.total_time_us(), 7);
        let all = take();
        assert_eq!(all.total_time_us(), 12);
        assert_eq!(all.len(), 2);
        set_enabled(false);
    }

    #[test]
    fn disabled_charges_are_dropped() {
        set_enabled(false);
        let _ = take();
        charge_time("x", 100);
        charge_msg("x", 1, 64);
        charge_crypto("x", CryptoOp::Sign, 1);
        assert!(take().is_empty());
    }
}
