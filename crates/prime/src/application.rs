//! The application interface between Prime and the replicated service.
//!
//! §III-A of the paper: "The replication layer signals the SCADA master
//! that an application-level state transfer is required, and the SCADA
//! masters must then execute a state transfer protocol at the application
//! level." [`Application`] is that contract: Prime orders updates and
//! calls [`Application::execute`]; when catch-up happens, Prime hands the
//! application a peer snapshot via [`Application::install_snapshot`]
//! rather than replaying history it does not have.

use std::collections::btree_map::{BTreeMap, Entry};

use itcrypto::sha256::{sha256_concat, Digest};
use simnet::wire::Reader;

use crate::types::Update;

/// The replicated state machine hosted on each replica.
pub trait Application {
    /// Applies one ordered update. `exec_seq` is the 1-based global
    /// execution sequence.
    fn execute(&mut self, update: &Update, exec_seq: u64);

    /// A digest of the full application state (checkpoints compare these).
    fn digest(&self) -> Digest;

    /// Serializes the full state for application-level state transfer.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state with a snapshot received from peers.
    /// Implementations must make `digest()` equal the snapshot's digest.
    fn install_snapshot(&mut self, snapshot: &[u8]);
}

/// A simple key-value application used by tests and benchmarks.
///
/// The payload format is `key=value` (both arbitrary byte strings without
/// `=` in the key); anything else is stored under the raw payload key with
/// an execution counter value.
///
/// Its digest is `H(executed || len || acc)`, where `acc` is the sum
/// modulo 2^256 of `H(klen || key || vlen || value)` over the entries: a
/// checkpoint costs one hash however large the store has grown, because
/// `execute` keeps the sum current. The sum is always a function of the
/// entries and never travels: [`Application::install_snapshot`] rebuilds
/// it from the snapshot's entries, which is what lets catch-up reject a
/// snapshot that does not hash to the digest its senders vouched for.
/// **Simulation-grade**, on the footing of the 62-bit signature group: an
/// additive hash resists the scripted adversaries here, not a real one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvApp {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Sum of the entry hashes modulo 2^256.
    acc: U256,
    /// Number of updates executed.
    pub executed: u64,
}

/// A 256-bit number as its low and high halves.
type U256 = [u128; 2];

/// The hash one entry contributes to [`KvApp`]'s digest, as a number.
fn entry_hash(key: &[u8], value: &[u8]) -> U256 {
    let digest = sha256_concat(&[
        &(key.len() as u32).to_be_bytes(),
        key,
        &(value.len() as u32).to_be_bytes(),
        value,
    ]);
    let (high, low) = digest.0.split_at(16);
    [low, high].map(|half| u128::from_be_bytes(half.try_into().expect("16 bytes")))
}

/// `acc + term` modulo 2^256.
fn acc_add(acc: &mut U256, term: U256) {
    let (low, carry) = acc[0].overflowing_add(term[0]);
    *acc = [
        low,
        acc[1].wrapping_add(term[1]).wrapping_add(carry as u128),
    ];
}

/// `acc - term` modulo 2^256.
fn acc_sub(acc: &mut U256, term: U256) {
    let (low, borrow) = acc[0].overflowing_sub(term[0]);
    *acc = [
        low,
        acc[1].wrapping_sub(term[1]).wrapping_sub(borrow as u128),
    ];
}

impl KvApp {
    /// Creates an empty application.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.entries.get(key).map(|v| v.as_slice())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores `value` under `key`, keeping the accumulator the sum over
    /// the entries.
    fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        match self.entries.entry(key) {
            Entry::Occupied(mut slot) => {
                acc_sub(&mut self.acc, entry_hash(slot.key(), slot.get()));
                acc_add(&mut self.acc, entry_hash(slot.key(), &value));
                slot.insert(value);
            }
            Entry::Vacant(slot) => {
                acc_add(&mut self.acc, entry_hash(slot.key(), &value));
                slot.insert(value);
            }
        }
    }

    /// Parses a whole snapshot, or nothing.
    fn parse_snapshot(snapshot: &[u8]) -> Option<KvApp> {
        let mut r = Reader::new(snapshot);
        let mut app = KvApp {
            executed: r.get_u64().ok()?,
            ..KvApp::default()
        };
        for _ in 0..r.get_u32().ok()? {
            let klen = r.get_u32().ok()? as usize;
            let key = r.get_raw(klen).ok()?.to_vec();
            let vlen = r.get_u32().ok()? as usize;
            let value = r.get_raw(vlen).ok()?.to_vec();
            app.put(key, value);
        }
        r.expect_end().ok()?;
        Some(app)
    }
}

impl Application for KvApp {
    fn execute(&mut self, update: &Update, _exec_seq: u64) {
        self.executed += 1;
        let payload = update.payload.as_ref();
        match payload.iter().position(|&b| b == b'=') {
            Some(i) => self.put(payload[..i].to_vec(), payload[i + 1..].to_vec()),
            None => self.put(payload.to_vec(), self.executed.to_be_bytes().to_vec()),
        }
    }

    fn digest(&self) -> Digest {
        let mut h = itcrypto::sha256::Sha256::new();
        h.update(&self.executed.to_be_bytes());
        h.update(&(self.entries.len() as u64).to_be_bytes());
        h.update(&self.acc[1].to_be_bytes());
        h.update(&self.acc[0].to_be_bytes());
        h.finalize()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.executed.to_be_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (k, v) in &self.entries {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&(v.len() as u32).to_be_bytes());
            out.extend_from_slice(v);
        }
        out
    }

    /// All or nothing: a snapshot that is cut short, or runs on past its
    /// last entry, installs the empty state and not the entries that
    /// happened to decode.
    fn install_snapshot(&mut self, snapshot: &[u8]) {
        *self = Self::parse_snapshot(snapshot).unwrap_or_default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn upd(s: &str) -> Update {
        Update::new(1, 1, Bytes::from(s.as_bytes().to_vec()))
    }

    #[test]
    fn execute_key_value() {
        let mut app = KvApp::new();
        app.execute(&upd("b57=open"), 1);
        app.execute(&upd("b57=closed"), 2);
        app.execute(&upd("b56=open"), 3);
        assert_eq!(app.get(b"b57"), Some(b"closed".as_ref()));
        assert_eq!(app.get(b"b56"), Some(b"open".as_ref()));
        assert_eq!(app.executed, 3);
        assert_eq!(app.len(), 2);
    }

    #[test]
    fn raw_payload_stored_with_counter() {
        let mut app = KvApp::new();
        app.execute(&upd("ping"), 1);
        assert!(app.get(b"ping").is_some());
    }

    #[test]
    fn digest_tracks_state_and_count() {
        let mut a = KvApp::new();
        let mut b = KvApp::new();
        a.execute(&upd("x=1"), 1);
        b.execute(&upd("x=1"), 1);
        assert_eq!(a.digest(), b.digest());
        b.execute(&upd("x=1"), 2);
        // Same final KV content, different executed count → different digest.
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut a = KvApp::new();
        for i in 0..20 {
            a.execute(&upd(&format!("key{i}={i}")), i + 1);
        }
        let snap = a.snapshot();
        let mut b = KvApp::new();
        b.install_snapshot(&snap);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let a = KvApp::new();
        let mut b = KvApp::new();
        b.execute(&upd("x=1"), 1);
        b.install_snapshot(&a.snapshot());
        assert_eq!(a.digest(), b.digest());
        assert!(b.is_empty());
    }

    #[test]
    fn truncated_snapshot_does_not_panic() {
        let mut a = KvApp::new();
        a.execute(&upd("abc=def"), 1);
        a.execute(&upd("gh=i"), 2);
        let snap = a.snapshot();
        // All or nothing at every cut, whatever was installed before.
        for cut in 0..snap.len() {
            let mut b = a.clone();
            b.install_snapshot(&snap[..cut]);
            assert_eq!(b, KvApp::new(), "cut at {cut}");
            assert_eq!(b.digest(), KvApp::new().digest());
        }
        let mut b = KvApp::new();
        b.install_snapshot(&snap);
        assert_eq!(b, a);
        // Bytes past the last entry are garbage too.
        let mut long = snap.clone();
        long.push(0);
        b.install_snapshot(&long);
        assert_eq!(b, KvApp::new());
    }

    /// The accumulator and digest of `entries` and `executed` computed
    /// with no running state: what `digest()` must always equal.
    fn digest_from_scratch(app: &KvApp) -> Digest {
        let mut fresh = KvApp {
            executed: app.executed,
            ..KvApp::default()
        };
        for (k, v) in &app.entries {
            acc_add(&mut fresh.acc, entry_hash(k, v));
            fresh.entries.insert(k.clone(), v.clone());
        }
        assert_eq!(fresh.acc, app.acc, "running sum drifted from the entries");
        fresh.digest()
    }

    #[test]
    fn accumulator_arithmetic_carries_and_borrows() {
        let mut acc = [u128::MAX, 7];
        acc_add(&mut acc, [1, 0]);
        assert_eq!(acc, [0, 8]);
        acc_sub(&mut acc, [1, 0]);
        assert_eq!(acc, [u128::MAX, 7]);
        let mut wrap = [0; 2];
        acc_sub(&mut wrap, [1, 0]);
        assert_eq!(wrap, [u128::MAX; 2]);
        acc_add(&mut wrap, [1, 1]);
        assert_eq!(wrap, [0, 1]);
    }

    proptest::proptest! {
        /// Over inserts, overwrites, snapshots and installs the O(1)
        /// digest is the one recomputed from the entries; it follows
        /// `executed`, and not the order the entries arrived in.
        #[test]
        fn digest_equals_the_recomputation_over_any_history(
            ops in proptest::collection::vec((0u8..8, 0u8..6, proptest::any::<u8>()), 0..60),
        ) {
            let mut app = KvApp::new();
            let mut peer = KvApp::new();
            for (op, key, value) in ops {
                match op {
                    // Few keys, so most executions overwrite.
                    0..=4 => app.execute(&upd(&format!("k{key}={value}")), 0),
                    5 => app.execute(&upd(&format!("raw{key}")), 0),
                    6 => {
                        peer.install_snapshot(&app.snapshot());
                        assert_eq!(peer, app);
                        assert_eq!(peer.digest(), app.digest());
                    }
                    _ => app.install_snapshot(&peer.snapshot()),
                }
                assert_eq!(app.digest(), digest_from_scratch(&app));
            }
            // The same entries put in the opposite order.
            let mut reversed = KvApp { executed: app.executed, ..KvApp::default() };
            for (k, v) in app.entries.iter().rev() {
                reversed.put(k.clone(), v.clone());
            }
            assert_eq!(reversed.digest(), app.digest());
            // The count is part of the digest.
            reversed.executed += 1;
            assert_ne!(reversed.digest(), app.digest());
        }
    }
}
