//! `f+1` matching-message voting.
//!
//! A single compromised SCADA master can emit arbitrary commands and
//! display frames. Proxies and HMIs therefore act only once `f+1`
//! *identical* messages (matched on every field including the execution
//! sequence) have arrived from *distinct* replicas — at least one of which
//! must be correct.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Keys a collector remembers, pending or fired, before it forgets the
/// one it saw first. A count and not a floor on the execution sequence
/// inside the key: `Deployment::system_reset` starts a new era at
/// sequence 1, and a floor would refuse every command after it. The
/// replicas' copies of one message arrive within a round trip of each
/// other, thousands of keys before the first could be forgotten and so
/// fire twice.
const REMEMBERED: usize = 4096;

/// Collects votes keyed by message content; fires once per key when the
/// threshold of distinct voters is reached.
#[derive(Clone, Debug)]
pub struct VoteCollector<K: Ord + Clone> {
    threshold: u32,
    /// Voters so far per key; `None` once the key fired.
    keys: BTreeMap<K, Option<BTreeSet<u32>>>,
    /// Every key in `keys`, oldest first.
    seen: VecDeque<K>,
    /// Keys that reached threshold (monotone counter for stats).
    pub decisions: u64,
}

impl<K: Ord + Clone> VoteCollector<K> {
    /// Creates a collector requiring `threshold` distinct voters.
    pub fn new(threshold: u32) -> Self {
        VoteCollector {
            threshold,
            keys: BTreeMap::new(),
            seen: VecDeque::new(),
            decisions: 0,
        }
    }

    /// Records a vote from `voter` for `key`. Returns `true` exactly once
    /// per key: when the threshold is first reached.
    pub fn vote(&mut self, key: K, voter: u32) -> bool {
        if !self.keys.contains_key(&key) {
            self.seen.push_back(key.clone());
            if self.seen.len() > REMEMBERED {
                let oldest = self.seen.pop_front().expect("longer than the bound");
                self.keys.remove(&oldest);
            }
        }
        let slot = self
            .keys
            .entry(key)
            .or_insert_with(|| Some(BTreeSet::new()));
        let Some(voters) = slot else {
            return false; // already fired
        };
        voters.insert(voter);
        if (voters.len() as u32) < self.threshold {
            return false;
        }
        *slot = None;
        self.decisions += 1;
        true
    }

    /// Number of keys still below threshold.
    pub fn pending(&self) -> usize {
        self.keys.values().filter(|voters| voters.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_threshold() {
        let mut v = VoteCollector::new(2);
        assert!(!v.vote("cmd", 0));
        assert!(v.vote("cmd", 1), "second distinct voter fires");
        assert!(!v.vote("cmd", 2), "already fired");
        assert_eq!(v.decisions, 1);
    }

    #[test]
    fn duplicate_voter_does_not_count_twice() {
        let mut v = VoteCollector::new(2);
        assert!(!v.vote("cmd", 0));
        assert!(!v.vote("cmd", 0), "same replica repeating itself");
        assert!(v.vote("cmd", 1));
    }

    #[test]
    fn different_content_is_a_different_key() {
        // A faulty replica voting for a *different* command cannot merge
        // with honest votes.
        let mut v = VoteCollector::new(2);
        assert!(!v.vote(("open", 1u64), 0));
        assert!(
            !v.vote(("close", 1u64), 1),
            "conflicting content, no quorum"
        );
        assert!(v.vote(("open", 1u64), 2));
        assert_eq!(v.pending(), 1, "the lying vote is still parked");
    }

    #[test]
    fn memory_is_bounded_and_recent_decisions_are_remembered() {
        let mut v = VoteCollector::new(2);
        let keys = 3 * REMEMBERED as u64;
        for seq in 0..keys {
            v.vote(seq, 0);
            // Every other key fires; the rest stay a vote short.
            assert_eq!(v.vote(seq, 1 - (seq % 2) as u32), seq % 2 == 0);
            assert!(v.keys.len() <= REMEMBERED, "pending and fired together");
        }
        assert_eq!(v.keys.len(), REMEMBERED);
        assert_eq!(v.pending(), REMEMBERED / 2);
        assert!(
            !v.vote(keys - 2, 2),
            "a recent decision does not fire again"
        );
        assert!(v.vote(keys - 1, 2), "a recent vote still counts");
    }

    #[test]
    fn threshold_one_fires_immediately() {
        let mut v = VoteCollector::new(1);
        assert!(v.vote("x", 5));
    }
}
