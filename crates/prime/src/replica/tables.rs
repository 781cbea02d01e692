//! What a replica keeps per pre-order slot and per client, laid out so
//! that the ordering path reads an array where it used to walk a tree.
//!
//! [`ClientSeqs`] grows with clients, not with updates. [`PoStore`] grows
//! with every slot pre-ordered until a stable checkpoint lets the replica
//! forget a prefix ([`PoStore::forget_through`]); what it holds is then
//! the window behind the checkpoints, not the history.
//!
//! Neither table is ever iterated in an order that reaches an output:
//! [`PoStore`] is probed by slot, and [`ClientSeqs`] is walked only by
//! [`ClientSeqs::table`], in client order, which is the order the wire
//! form had before.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;

use super::{po_counter, po_incarnation, DedupTable};
use crate::types::SignedUpdate;

/// One incarnation's slots of one origin. An origin numbers its slots
/// 1, 2, 3, … and peers count them contiguously, so the slots are one run
/// from counter 1 plus whatever arrived ahead of a gap. Only the run is
/// an array: a slot that is early by one lost batch, or a faulty origin's
/// counter 2^30, costs one map entry and no empty slots before it.
#[derive(Debug, Default)]
struct Slots {
    /// Counters `1..=start` of the run are forgotten: the run held them
    /// once and still counts them.
    start: u64,
    /// `run[c - start - 1]` is the update at counter `c`: every slot
    /// from `start + 1` with no gap.
    run: VecDeque<SignedUpdate>,
    /// Slots past a gap, by counter; never `run_end() + 1`, which would
    /// continue the run and is moved there.
    ahead: BTreeMap<u64, SignedUpdate>,
}

impl Slots {
    /// The last counter of the run: every slot in `1..=run_end()` was
    /// filled.
    fn run_end(&self) -> u64 {
        self.start + self.run.len() as u64
    }

    fn get(&self, counter: u64) -> Option<&SignedUpdate> {
        match self.run.get(counter.wrapping_sub(self.start + 1) as usize) {
            Some(update) => Some(update),
            None => self.ahead.get(&counter),
        }
    }

    /// Counter 0 names no slot and is never stored.
    fn insert_if_absent(&mut self, counter: u64, update: SignedUpdate) {
        let next = self.run_end() + 1;
        if counter > next {
            self.ahead.entry(counter).or_insert(update);
        } else if counter == next {
            self.run.push_back(update);
            // The gap closed: what waited just past it continues the run.
            let start = self.start;
            while let Some(entry) = self.ahead.first_entry() {
                if *entry.key() != start + self.run.len() as u64 + 1 {
                    break;
                }
                self.run.push_back(entry.remove());
            }
        }
    }

    /// The largest `c >= counter` with every slot in `counter + 1..=c`
    /// filled.
    fn contiguous_through(&self, counter: u64) -> u64 {
        let run = self.run_end();
        if counter <= run {
            // Nothing in `ahead` continues the run.
            return run;
        }
        let mut through = counter;
        while self.ahead.contains_key(&(through + 1)) {
            through += 1;
        }
        through
    }

    /// Drops every slot at or below `counter`, in time proportional to
    /// what is dropped. The run keeps its length, so contiguity reads as
    /// before; slots past a gap at or below `counter` are gone outright,
    /// and with them the run's chance to reach them (the caller refuses
    /// the gap's slot from now on).
    fn forget_through(&mut self, counter: u64) {
        let held = counter.min(self.run_end()).saturating_sub(self.start);
        self.run.drain(..held as usize);
        self.start += held;
        if self
            .ahead
            .first_key_value()
            .is_some_and(|(&first, _)| first <= counter)
        {
            self.ahead = self.ahead.split_off(&(counter + 1));
        }
    }
}

/// The pre-ordered updates a replica holds: origin → incarnation → slots
/// by counter (see [`super::po_compose`]). The first update stored in a
/// slot stays; only its origin can put one there.
///
/// Each origin has a floor: a composite sequence through which the store
/// has forgotten every slot ([`PoStore::forget_through`]). A forgotten
/// slot reads as executed — [`PoStore::contains`] says yes, nothing can
/// be stored there again — but its update is gone ([`PoStore::get`] says
/// no). Counter 0 still names no slot.
#[derive(Debug)]
pub(super) struct PoStore {
    origins: Vec<BTreeMap<u32, Slots>>,
    floors: Vec<u64>,
}

impl PoStore {
    /// An empty store for `n` origins.
    pub(super) fn new(n: usize) -> Self {
        PoStore {
            origins: (0..n).map(|_| BTreeMap::new()).collect(),
            floors: vec![0; n],
        }
    }

    fn slots(&self, origin: u32, incarnation: u32) -> Option<&Slots> {
        self.origins.get(origin as usize)?.get(&incarnation)
    }

    /// Whether slot `(origin, po_seq)` lies at or below `origin`'s floor.
    pub(super) fn is_forgotten(&self, origin: u32, po_seq: u64) -> bool {
        po_counter(po_seq) != 0
            && self
                .floors
                .get(origin as usize)
                .is_some_and(|&floor| po_seq <= floor)
    }

    /// The update in slot `(origin, po_seq)`, unless forgotten.
    pub(super) fn get(&self, origin: u32, po_seq: u64) -> Option<&SignedUpdate> {
        if self.is_forgotten(origin, po_seq) {
            return None;
        }
        self.slots(origin, po_incarnation(po_seq))?
            .get(po_counter(po_seq))
    }

    /// Whether slot `(origin, po_seq)` is filled or forgotten.
    pub(super) fn contains(&self, origin: u32, po_seq: u64) -> bool {
        self.is_forgotten(origin, po_seq) || self.get(origin, po_seq).is_some()
    }

    /// Fills slot `(origin, po_seq)` unless it is filled or forgotten.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not one of the store's origins: callers
    /// bound it by the configuration before anything is stored.
    pub(super) fn insert_if_absent(&mut self, origin: u32, po_seq: u64, update: SignedUpdate) {
        if self.is_forgotten(origin, po_seq) {
            return;
        }
        self.origins[origin as usize]
            .entry(po_incarnation(po_seq))
            .or_default()
            .insert_if_absent(po_counter(po_seq), update);
    }

    /// Raises `origin`'s floor to `floor` and forgets every slot at or
    /// below it: earlier incarnations whole, `floor`'s own up to its
    /// counter. Costs what is forgotten; a lower floor is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not one of the store's origins.
    pub(super) fn forget_through(&mut self, origin: u32, floor: u64) {
        let o = origin as usize;
        if floor <= self.floors[o] {
            return;
        }
        self.floors[o] = floor;
        let incarnation = po_incarnation(floor);
        let slots = &mut self.origins[o];
        if slots
            .first_key_value()
            .is_some_and(|(&first, _)| first < incarnation)
        {
            *slots = slots.split_off(&incarnation);
        }
        if let Some(slots) = slots.get_mut(&incarnation) {
            slots.forget_through(po_counter(floor));
        }
    }

    /// The largest `c >= counter` such that every slot of `origin`'s
    /// `incarnation` in `counter + 1..=c` is filled: a length read when
    /// `counter` lies in the run, as a replica's own count does.
    pub(super) fn contiguous_through(&self, origin: u32, incarnation: u32, counter: u64) -> u64 {
        self.slots(origin, incarnation)
            .map_or(counter, |slots| slots.contiguous_through(counter))
    }

    /// Slots of `origin`'s `incarnation` in `counters` that are empty, or
    /// hold an update for which `pending` is true. A forgotten slot is
    /// neither: it was executed.
    pub(super) fn count_pending(
        &self,
        origin: u32,
        incarnation: u32,
        counters: std::ops::RangeInclusive<u64>,
        pending: impl Fn(&SignedUpdate) -> bool,
    ) -> u64 {
        let slots = self.slots(origin, incarnation);
        counters
            .filter(|&c| {
                !self.is_forgotten(origin, super::po_compose(incarnation, c))
                    && slots.and_then(|s| s.get(c)).is_none_or(&pending)
            })
            .count() as u64
    }

    /// Slots held, forgotten ones not counted.
    #[cfg(test)]
    pub(super) fn held(&self) -> usize {
        self.origins
            .iter()
            .flat_map(BTreeMap::values)
            .map(|s| s.run.len() + s.ahead.len())
            .sum()
    }

    /// Forgets everything, floors included (proactive recovery).
    pub(super) fn clear(&mut self) {
        self.origins.iter_mut().for_each(BTreeMap::clear);
        self.floors.iter_mut().for_each(|floor| *floor = 0);
    }
}

/// A set of one client's sequence numbers, in the shape the dedup table
/// has on the wire: everything in `1..=through`, plus the `extras` above
/// it. A client numbers its updates 1, 2, 3, … so `extras` holds only what
/// ran ahead of a gap and empties when the gap closes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct SeqSet {
    through: u64,
    extras: BTreeSet<u64>,
}

impl SeqSet {
    /// The set `1..=through` plus `extras`, in canonical form.
    fn from_parts(through: u64, extras: &[u64]) -> Self {
        let mut set = SeqSet {
            through,
            extras: extras.iter().copied().filter(|&e| e > through).collect(),
        };
        set.absorb();
        set
    }

    /// Moves the extras that continue `through` into it.
    fn absorb(&mut self) {
        while self
            .through
            .checked_add(1)
            .is_some_and(|next| self.extras.remove(&next))
        {
            self.through += 1;
        }
    }

    pub(super) fn contains(&self, seq: u64) -> bool {
        (1..=self.through).contains(&seq) || self.extras.contains(&seq)
    }

    /// Adds `seq`; false if it was there.
    pub(super) fn insert(&mut self, seq: u64) -> bool {
        if self.contains(seq) {
            return false;
        }
        if self.through.checked_add(1) == Some(seq) {
            self.through = seq;
        } else {
            self.extras.insert(seq);
        }
        self.absorb();
        true
    }
}

/// A [`SeqSet`] per client: the updates a replica has introduced into
/// pre-ordering, or has executed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct ClientSeqs {
    clients: BTreeMap<u32, SeqSet>,
}

impl ClientSeqs {
    pub(super) fn contains(&self, client: u32, seq: u64) -> bool {
        self.clients.get(&client).is_some_and(|s| s.contains(seq))
    }

    /// Adds `(client, seq)`; false if it was there.
    pub(super) fn insert(&mut self, client: u32, seq: u64) -> bool {
        self.clients.entry(client).or_default().insert(seq)
    }

    /// The wire form: per client, the largest `through` with `1..=through`
    /// all present, and the members above it in ascending order. The
    /// executed set travels with a snapshot in this form so a recovered
    /// replica suppresses exactly the duplicate orderings its peers
    /// suppressed — otherwise its execution numbering and application
    /// digest fork from the quorum's.
    pub(super) fn table(&self) -> DedupTable {
        self.clients
            .iter()
            .map(|(client, set)| {
                let above = (Bound::Excluded(set.through), Bound::Unbounded);
                (
                    *client,
                    set.through,
                    set.extras.range(above).copied().collect(),
                )
            })
            .collect()
    }

    /// The sets a [`ClientSeqs::table`] describes. Costs the table's
    /// length, whatever `through` it names.
    pub(super) fn from_table(table: &[(u32, u64, Vec<u64>)]) -> Self {
        ClientSeqs {
            clients: table
                .iter()
                .map(|(client, through, extras)| (*client, SeqSet::from_parts(*through, extras)))
                .collect(),
        }
    }

    pub(super) fn clear(&mut self) {
        self.clients.clear();
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use itcrypto::schnorr::Signature;
    use proptest::prelude::*;

    use super::super::po_compose;
    use super::*;
    use crate::types::Update;

    /// A distinguishable update: the store never looks inside one.
    fn update(tag: u64) -> SignedUpdate {
        SignedUpdate {
            update: Update::new(0, tag, Bytes::new()),
            sig: Signature { e: 0, s: 0 },
        }
    }

    /// What the update in a slot is told apart by.
    fn tag_of(update: &SignedUpdate) -> u64 {
        update.update.client_seq
    }

    /// The store as it was: an ordered map from slot to (the tag of) the
    /// first update put there, plus a floor per origin. A forgotten slot
    /// is filled for `contains`, empty for `get`, and refuses an insert.
    /// The slots the run counted stay in the map, so contiguity reads as
    /// before; those past a gap leave it.
    #[derive(Default)]
    struct StoreModel {
        slots: BTreeMap<(u32, u64), u64>,
        floors: BTreeMap<u32, u64>,
    }

    impl StoreModel {
        fn forgotten(&self, origin: u32, po_seq: u64) -> bool {
            po_counter(po_seq) != 0 && po_seq <= self.floors.get(&origin).copied().unwrap_or(0)
        }

        fn get(&self, origin: u32, po_seq: u64) -> Option<u64> {
            if self.forgotten(origin, po_seq) {
                return None;
            }
            self.slots.get(&(origin, po_seq)).copied()
        }

        fn insert_if_absent(&mut self, origin: u32, po_seq: u64, tag: u64) {
            if po_counter(po_seq) != 0 && !self.forgotten(origin, po_seq) {
                self.slots.entry((origin, po_seq)).or_insert(tag);
            }
        }

        fn forget_through(&mut self, origin: u32, floor: u64) {
            if floor <= self.floors.get(&origin).copied().unwrap_or(0) {
                return;
            }
            self.floors.insert(origin, floor);
            let inc = po_incarnation(floor);
            let run = self.contiguous_through(origin, inc, 0);
            self.slots.retain(|&(o, s), _| {
                o != origin
                    || po_incarnation(s) > inc
                    || (po_incarnation(s) == inc
                        && (po_counter(s) <= run || po_counter(s) > po_counter(floor)))
            });
        }

        fn contiguous_through(&self, origin: u32, inc: u32, mut counter: u64) -> u64 {
            while self
                .slots
                .contains_key(&(origin, po_compose(inc, counter + 1)))
            {
                counter += 1;
            }
            counter
        }

        fn count_pending(&self, origin: u32, inc: u32, to: u64, pending: fn(u64) -> bool) -> u64 {
            (0..=to)
                .map(|c| po_compose(inc, c))
                .filter(|&s| !self.forgotten(origin, s))
                .filter(|&s| self.slots.get(&(origin, s)).is_none_or(|&t| pending(t)))
                .count() as u64
        }
    }

    const ORIGINS: u32 = 3;

    proptest! {
        #[test]
        fn run_store_matches_the_ordered_map_model(
            ops in proptest::collection::vec(
                (0u32..ORIGINS, 0u32..3, 0u8..16, 0u64..24),
                0..300,
            ),
        ) {
            let odd = |tag: u64| tag % 2 == 1;
            let mut store = PoStore::new(ORIGINS as usize);
            let mut model = StoreModel::default();
            for (tag, (origin, inc, kind, near)) in ops.into_iter().enumerate() {
                // Mostly counters near the front, out of order (0 among
                // them); sometimes one far past it; sometimes a floor;
                // rarely a recovery.
                let counter = match kind {
                    0 => (1 << 30) + near % 4,
                    1 if near == 0 => {
                        store.clear();
                        model = StoreModel::default();
                        continue;
                    }
                    _ => near,
                };
                let po_seq = po_compose(inc * 1000, counter);
                if kind == 2 {
                    store.forget_through(origin, po_seq);
                    model.forget_through(origin, po_seq);
                } else {
                    store.insert_if_absent(origin, po_seq, update(tag as u64));
                    model.insert_if_absent(origin, po_seq, tag as u64);
                }
                prop_assert_eq!(
                    store.get(origin, po_seq).map(tag_of),
                    model.get(origin, po_seq)
                );
                prop_assert_eq!(store.contains(origin, po_seq), counter != 0);
                for o in 0..ORIGINS {
                    for i in [0, 1000, 2000] {
                        for from in [0, near, 1 << 30] {
                            prop_assert_eq!(
                                store.contiguous_through(o, i, from),
                                model.contiguous_through(o, i, from)
                            );
                        }
                    }
                }
                for i in [0, 1000, 2000] {
                    prop_assert_eq!(
                        store.count_pending(origin, i, 0..=24, |u| odd(tag_of(u))),
                        model.count_pending(origin, i, 24, odd)
                    );
                }
            }
            // Every slot the model holds is the store's, first writer and
            // all, and the store holds no other.
            let mut held = 0;
            for &(origin, po_seq) in model.slots.keys() {
                let tag = model.get(origin, po_seq);
                held += usize::from(tag.is_some());
                prop_assert_eq!(store.get(origin, po_seq).map(tag_of), tag);
            }
            prop_assert_eq!(store.held(), held);
        }
    }

    #[test]
    fn a_forgotten_slot_reads_as_executed() {
        let mut store = PoStore::new(2);
        for counter in 1..=6 {
            store.insert_if_absent(1, counter, update(counter));
        }
        store.insert_if_absent(1, po_compose(1, 1), update(100));
        store.forget_through(1, 4);
        // Filled for `contains` and refusing a second writer, empty for
        // `get`; counter 0 still names no slot.
        assert!(store.contains(1, 3) && store.get(1, 3).is_none());
        store.insert_if_absent(1, 3, update(30));
        assert!(store.get(1, 3).is_none());
        assert!(!store.contains(1, 0));
        assert_eq!(store.get(1, 5), Some(&update(5)));
        assert_eq!(store.contiguous_through(1, 0, 0), 6);
        // Not a hole: only the pending slot 6 counts, and the empty 7.
        assert_eq!(
            store.count_pending(1, 0, 1..=7, |u| u.update.client_seq == 6),
            2
        );
        assert_eq!(store.held(), 3);
        // A floor in a later incarnation takes every earlier one whole.
        store.forget_through(1, po_compose(1, 0));
        assert_eq!(store.origins[1].len(), 1);
        assert!(store.contains(1, 6) && store.get(1, 6).is_none());
        assert_eq!(store.count_pending(1, 0, 1..=6, |_| true), 0);
        assert_eq!(store.get(1, po_compose(1, 1)), Some(&update(100)));
        // A lower floor changes nothing; other origins have their own.
        store.forget_through(1, 2);
        assert!(store.contains(1, 6));
        assert!(!store.contains(0, 1));
    }

    #[test]
    fn a_far_future_counter_allocates_one_entry() {
        let mut store = PoStore::new(2);
        store.insert_if_absent(1, po_compose(5, 1 << 30), update(1));
        store.insert_if_absent(1, po_compose(5, (1 << 40) - 1), update(2));
        let slots = &store.origins[1][&5];
        assert_eq!((slots.run.capacity(), slots.ahead.len()), (0, 2));
        assert!(store.contains(1, po_compose(5, 1 << 30)));
        assert!(!store.contains(1, po_compose(5, (1 << 30) - 1)));
        assert!(!store.contains(1, po_compose(4, 1 << 30)));
        assert!(!store.contains(0, po_compose(5, 1 << 30)));
        assert_eq!(store.contiguous_through(1, 5, 0), 0);
        assert_eq!(store.contiguous_through(1, 5, (1 << 30) - 1), 1 << 30);
    }

    #[test]
    fn slots_ahead_of_a_gap_join_the_run_when_it_closes() {
        let mut store = PoStore::new(1);
        for counter in [3, 2, 5] {
            store.insert_if_absent(0, counter, update(counter));
        }
        assert_eq!(store.origins[0][&0].run.len(), 0);
        assert_eq!(store.contiguous_through(0, 0, 0), 0);
        assert_eq!(store.contiguous_through(0, 0, 1), 3);
        // A second writer to a waiting slot loses, as to one in the run.
        store.insert_if_absent(0, 3, update(30));
        store.insert_if_absent(0, 1, update(1));
        store.insert_if_absent(0, 1, update(10));
        let slots = &store.origins[0][&0];
        assert_eq!((slots.run.len(), slots.ahead.len()), (3, 1));
        assert_eq!(store.contiguous_through(0, 0, 0), 3);
        for counter in [1, 2, 3, 5] {
            assert_eq!(store.get(0, counter), Some(&update(counter)));
        }
        assert_eq!(store.get(0, 0), None);
        assert_eq!(store.get(0, 4), None);
        // Slot 4 is empty, slot 2 holds what the caller calls pending.
        assert_eq!(
            store.count_pending(0, 0, 1..=5, |u| u.update.client_seq == 2),
            2
        );
        store.insert_if_absent(0, 4, update(4));
        assert_eq!(store.origins[0][&0].run.len(), 5);
    }

    /// The set as it was: every member, in an ordered set.
    fn model_table(model: &BTreeMap<u32, BTreeSet<u64>>) -> DedupTable {
        model
            .iter()
            .map(|(client, set)| {
                let mut through = 0u64;
                while set.contains(&(through + 1)) {
                    through += 1;
                }
                (
                    *client,
                    through,
                    set.range(through + 1..).copied().collect(),
                )
            })
            .collect()
    }

    proptest! {
        #[test]
        fn compact_sets_match_the_every_member_model(
            ops in proptest::collection::vec((0u32..3, 0u8..8, 1u64..30), 0..200),
        ) {
            let mut sets = ClientSeqs::default();
            let mut model: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
            for (client, kind, seq) in ops {
                match kind {
                    // A transfer: what arrives is what the table says.
                    0 => {
                        let table = sets.table();
                        prop_assert_eq!(&table, &model_table(&model));
                        let installed = ClientSeqs::from_table(&table);
                        prop_assert_eq!(&installed, &sets);
                        sets = installed;
                    }
                    _ => {
                        // Mostly the next in line, sometimes ahead of it.
                        let seq = if kind < 5 {
                            model.get(&client).map_or(0, |s| s.len() as u64) + 1
                        } else {
                            seq
                        };
                        let fresh = model.entry(client).or_default().insert(seq);
                        prop_assert_eq!(sets.insert(client, seq), fresh);
                    }
                }
                for c in 0..3 {
                    for s in 0..32 {
                        let member = model.get(&c).is_some_and(|m| m.contains(&s));
                        prop_assert_eq!(sets.contains(c, s), member);
                    }
                }
            }
            prop_assert_eq!(sets.table(), model_table(&model));
        }
    }

    #[test]
    fn a_table_installs_in_its_own_length() {
        // A model would build 2^62 members; the compact form copies three
        // numbers, and tidies a table no honest replica would send.
        let through = u64::MAX / 2;
        let sets = ClientSeqs::from_table(&[
            (7, through, vec![]),
            (8, 2, vec![1, 3, 4, 9]),
            (9, u64::MAX, vec![u64::MAX]),
        ]);
        assert!(sets.clients[&7].extras.is_empty());
        assert!(sets.contains(7, 1) && sets.contains(7, through));
        assert!(!sets.contains(7, 0) && !sets.contains(7, through + 1));
        assert_eq!(
            sets.table(),
            vec![(7, through, vec![]), (8, 4, vec![9]), (9, u64::MAX, vec![])]
        );
        let mut sets = sets;
        assert!(sets.insert(7, through + 1));
        assert!(!sets.insert(7, 5));
        assert_eq!(sets.table()[0], (7, through + 1, vec![]));
    }

    #[test]
    fn sequence_zero_is_a_member_that_does_not_travel() {
        // As with the every-member set: 0 is remembered, but a table
        // describes 1..=through and what lies above.
        let mut sets = ClientSeqs::default();
        assert!(sets.insert(1, 0));
        assert!(!sets.insert(1, 0));
        assert!(sets.contains(1, 0));
        assert_eq!(sets.table(), vec![(1, 0, vec![])]);
    }
}
