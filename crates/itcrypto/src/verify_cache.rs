//! Bounded memoization of signature-verification verdicts.
//!
//! BFT replicas verify some signed artifacts repeatedly. The verdict is a
//! pure function of (principal, message bytes, signature bytes), so it can
//! be cached under a digest of exactly those inputs. The key hashes every
//! byte the verifier would, so a cache pays only where lookups hit. Prime
//! uses none, and hashes no message to recognise one: a replica
//! recognises a client update or an ARU row it has verified by comparing
//! bytes, and the replicas that share a thread share one bounded table of
//! valid verdicts, keyed by the 16 signature bytes and answered only for
//! an artifact `==` to the one stored under the same signer key
//! (`prime::verdicts`).
//!
//! The cache is observationally invisible by construction: the key
//! commits to every byte the verifier reads, so a tampered message or
//! signature hashes to a different key, misses, and gets a fresh
//! verification. A hit can only return the verdict of a byte-identical
//! earlier check (absent a SHA-256 collision). Eviction is FIFO and
//! deterministic; an evicted entry is simply re-verified on next use.
//!
//! Verdicts are looked up in a hash table whose hash is the first eight
//! bytes of the key: a SHA-256 output needs no further mixing, and a fixed
//! function of the key keeps the table the same from run to run. The
//! table is only ever probed by key, never walked, so its layout cannot
//! reach an output; eviction order is the `order` queue's.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::sha256::{Digest, Sha256};

/// A cache key as the verdict table sees it: hashed by its prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Key(Digest);

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.prefix_u64());
    }
}

/// The hasher of the verdict table: the `u64` a [`Key`] hands it.
#[derive(Clone, Copy, Debug, Default)]
struct PrefixHasher(u64);

impl Hasher for PrefixHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a Key hashes as one u64");
    }

    fn write_u64(&mut self, prefix: u64) {
        self.0 = prefix;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A bounded FIFO cache of verification verdicts keyed by a digest of
/// the verified bytes.
#[derive(Clone, Debug, Default)]
pub struct VerifyCache {
    verdicts: HashMap<Key, bool, BuildHasherDefault<PrefixHasher>>,
    order: VecDeque<Digest>,
    cap: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the real verifier.
    pub misses: u64,
}

impl VerifyCache {
    /// Creates a cache holding at most `cap` verdicts (0 disables caching).
    pub fn new(cap: usize) -> Self {
        VerifyCache {
            verdicts: HashMap::default(),
            order: VecDeque::new(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache key for a (domain, principal, message, signature)
    /// quadruple. Every part is length-prefixed so distinct part splits
    /// can never collide on the same concatenation.
    pub fn key(domain: &[u8], principal: u64, msg: &[u8], sig: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(&(domain.len() as u64).to_be_bytes());
        h.update(domain);
        h.update(&principal.to_be_bytes());
        h.update(&(msg.len() as u64).to_be_bytes());
        h.update(msg);
        h.update(&(sig.len() as u64).to_be_bytes());
        h.update(sig);
        h.finalize()
    }

    /// Returns the cached verdict for `key`, or runs `verify`, caches its
    /// result, and returns it.
    pub fn check(&mut self, key: Digest, verify: impl FnOnce() -> bool) -> bool {
        if self.cap == 0 {
            return verify();
        }
        if let Some(&verdict) = self.verdicts.get(&Key(key)) {
            self.hits += 1;
            return verdict;
        }
        self.misses += 1;
        let verdict = verify();
        if self.verdicts.insert(Key(key), verdict).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.verdicts.remove(&Key(old));
                }
            }
        }
        verdict
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The cache as it was: an ordered map and a FIFO.
    #[derive(Default)]
    struct Model {
        verdicts: BTreeMap<Digest, bool>,
        order: VecDeque<Digest>,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn check(&mut self, cap: usize, key: Digest, verdict: bool) -> bool {
            if cap == 0 {
                return verdict;
            }
            if let Some(&cached) = self.verdicts.get(&key) {
                self.hits += 1;
                return cached;
            }
            self.misses += 1;
            self.verdicts.insert(key, verdict);
            self.order.push_back(key);
            if self.order.len() > cap {
                let old = self.order.pop_front().expect("non-empty");
                self.verdicts.remove(&old);
            }
            verdict
        }
    }

    proptest! {
        #[test]
        fn hash_table_matches_the_ordered_map_model(
            cap in 0usize..4,
            // Few distinct keys, so streams revisit evicted and live ones;
            // the verdict offered changes between visits, the cached one
            // must not.
            stream in proptest::collection::vec((0u64..100, any::<bool>()), 0..300),
        ) {
            let cap = [0, 1, 2, 64][cap];
            let mut cache = VerifyCache::new(cap);
            let mut model = Model::default();
            for (principal, verdict) in stream {
                let key = VerifyCache::key(b"model", principal, b"m", b"s");
                prop_assert_eq!(cache.check(key, || verdict), model.check(cap, key, verdict));
                prop_assert_eq!((cache.hits, cache.misses), (model.hits, model.misses));
                prop_assert_eq!(cache.len(), model.verdicts.len());
                prop_assert!(cache.len() <= cap);
            }
        }
    }

    #[test]
    fn keys_sharing_a_prefix_are_told_apart() {
        // Same first eight bytes, so the same hash: equality is on all 32.
        let (a, mut b) = (Digest([7; 32]), Digest([7; 32]));
        b.0[31] = 8;
        let mut c = VerifyCache::new(8);
        assert!(c.check(a, || true));
        assert!(!c.check(b, || false));
        assert!(c.check(a, || panic!("cached")));
        assert_eq!((c.hits, c.misses, c.len()), (1, 2, 2));
    }

    #[test]
    fn caches_and_counts() {
        let mut c = VerifyCache::new(8);
        let k = VerifyCache::key(b"d", 1, b"m", b"s");
        assert!(c.check(k, || true));
        assert!(c.check(k, || panic!("must not re-verify")));
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn negative_verdicts_cache_too() {
        let mut c = VerifyCache::new(8);
        let k = VerifyCache::key(b"d", 1, b"bad", b"s");
        assert!(!c.check(k, || false));
        assert!(!c.check(k, || panic!("must not re-verify")));
    }

    #[test]
    fn distinct_inputs_distinct_keys() {
        let base = VerifyCache::key(b"d", 1, b"m", b"s");
        assert_ne!(base, VerifyCache::key(b"e", 1, b"m", b"s"));
        assert_ne!(base, VerifyCache::key(b"d", 2, b"m", b"s"));
        assert_ne!(base, VerifyCache::key(b"d", 1, b"n", b"s"));
        assert_ne!(base, VerifyCache::key(b"d", 1, b"m", b"t"));
        // Length prefixes: moving a byte across a part boundary changes
        // the key even though the concatenation is identical.
        assert_ne!(
            VerifyCache::key(b"ab", 1, b"c", b"s"),
            VerifyCache::key(b"a", 1, b"bc", b"s")
        );
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let mut c = VerifyCache::new(2);
        let keys: Vec<Digest> = (0u64..4)
            .map(|i| VerifyCache::key(b"d", i, b"m", b"s"))
            .collect();
        for k in &keys {
            c.check(*k, || true);
        }
        assert_eq!(c.len(), 2);
        // Oldest evicted: re-checking key 0 re-runs the verifier.
        let mut ran = false;
        c.check(keys[0], || {
            ran = true;
            true
        });
        assert!(ran, "evicted entry re-verified");
    }

    /// What a Prime replica hashes to accept a sixteen-member batch of
    /// updates with 10-byte payloads, each already verified when its
    /// client sent it. The envelope signs 714 bytes, the root 56, a member
    /// 26, and a leaf is 50 bytes. Checking the envelope and the root
    /// directly costs 12 + 46 + 2 compressions; keying a cached verdict of
    /// the envelope, the root and every member first cost 13 + 2 + 16 × 2
    /// more.
    #[test]
    fn a_sixteen_member_batch_costs_60_compressions_without_cache_keys_and_107_with() {
        use crate::keys::KeyPair;
        use crate::merkle::MerkleTree;
        use crate::sha256::probe::compressions;
        let mut key = KeyPair::generate(1);
        let public = key.public_key();
        let (envelope, root, member) = (vec![7; 714], vec![8; 56], vec![9; 26]);
        let (envelope_sig, root_sig) = (key.sign(&envelope), key.sign(&root));
        let leaves = vec![vec![5; 50]; 16];
        let direct = || {
            assert!(public.verify(&envelope, &envelope_sig));
            _ = MerkleTree::root_of(&leaves);
            assert!(public.verify(&root, &root_sig));
        };
        let cache_keys = || {
            _ = VerifyCache::key(b"prime.msg", 1, &envelope, &envelope_sig.to_bytes());
            _ = VerifyCache::key(b"prime.po-batch", 1, &root, &root_sig.to_bytes());
            for _ in 0..16 {
                _ = VerifyCache::key(b"prime.update", 0, &member, &[0; 16]);
            }
        };
        assert_eq!(compressions(direct), 60);
        assert_eq!(compressions(cache_keys), 47);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = VerifyCache::new(0);
        let k = VerifyCache::key(b"d", 1, b"m", b"s");
        let mut runs = 0;
        for _ in 0..3 {
            c.check(k, || {
                runs += 1;
                true
            });
        }
        assert_eq!(runs, 3);
        assert!(c.is_empty());
    }
}
