//! Slab-backed event queue with a total pop order.
//!
//! * every entry carries a caller-supplied **key** (the engine's
//!   creation sequence number) and pops happen in strict `(time, key)`
//!   lexicographic order — a *total* order, so heap behavior can never
//!   depend on insertion order;
//! * payloads live in a slab (`Vec` + free list), not in the heap
//!   nodes, so the binary heap shuffles 24-byte index tuples instead of
//!   full events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A priority queue over `(time, key)` with slab storage. `T` is the
/// event payload; times and keys are plain `u64`s so the queue stays
/// agnostic of the engine's types.
pub struct EventQueue<T> {
    /// `Some` while the slot holds a queued payload.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    /// Min-heap of `(at, key, slot)`, one tuple per queued payload.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `payload` at `(at, key)`.
    pub fn insert(&mut self, at: u64, key: u64, payload: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.slots[slot as usize].is_none(),
                    "free slot must be vacant"
                );
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, key, slot)));
    }

    /// The `(time, key)` of the next entry, without popping it.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse((at, key, _))| (at, key))
    }

    /// Pops the entry with the smallest `(time, key)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let Reverse((at, key, slot)) = self.heap.pop()?;
        let payload = self.slots[slot as usize].take()?;
        self.free.push(slot);
        Some((at, key, payload))
    }

    /// Pops the next entry if its time is at or before `deadline`.
    pub fn pop_due(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        if self.peek()?.0 > deadline {
            return None;
        }
        self.pop()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q = EventQueue::new();
        q.insert(10, 2, "b");
        q.insert(10, 1, "a");
        q.insert(5, 9, "first");
        assert_eq!(q.peek(), Some((5, 9)));
        assert_eq!(q.pop(), Some((5, 9, "first")));
        assert_eq!(q.pop(), Some((10, 1, "a")));
        assert_eq!(q.pop(), Some((10, 2, "b")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// `(time, key)` is a total order, so the pop sequence is independent
    /// of insertion order.
    #[test]
    fn pop_order_is_insertion_order_independent() {
        let entries: Vec<(u64, u64)> = vec![(3, 7), (1, 2), (3, 1), (2, 5), (1, 9), (2, 4)];
        let reference: Vec<(u64, u64)> = {
            let mut q = EventQueue::new();
            for &(at, key) in &entries {
                q.insert(at, key, ());
            }
            std::iter::from_fn(|| q.pop().map(|(at, key, ())| (at, key))).collect()
        };
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        assert_eq!(reference, sorted);

        // Every rotation of the insertion order pops identically.
        for rot in 1..entries.len() {
            let mut q = EventQueue::new();
            for &(at, key) in entries[rot..].iter().chain(&entries[..rot]) {
                q.insert(at, key, ());
            }
            let got: Vec<(u64, u64)> =
                std::iter::from_fn(|| q.pop().map(|(at, key, ())| (at, key))).collect();
            assert_eq!(got, reference, "rotation {rot} changed pop order");
        }
    }

    #[test]
    fn pop_due_stops_at_the_deadline_and_leaves_later_entries_queued() {
        let mut q = EventQueue::new();
        q.insert(5, 1, "due");
        q.insert(5, 2, "also due");
        q.insert(6, 0, "later");
        assert_eq!(q.pop_due(5), Some((5, 1, "due")));
        assert_eq!(q.pop_due(5), Some((5, 2, "also due")));
        assert_eq!(q.pop_due(5), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(6), Some((6, 0, "later")));
        assert_eq!(q.pop_due(u64::MAX), None);
    }
}
