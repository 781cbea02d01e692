//! The signature verdicts of the replicas that share a thread.
//!
//! Every Prime replica verifies every signed artifact it accepts: the
//! envelope of each message, the root of each disseminated batch, each
//! client update and each ARU row. A simulation runs all `n` replicas of
//! a group on the thread that called it, so the host meets the same
//! envelope or batch root once at each of the `n - 1` receivers of a
//! broadcast, and the same client update once at each of the `n`
//! replicas its client sent it to. This table lets the host compute such
//! a verdict once.
//!
//! The key is the artifact's 16 signature bytes; nothing in the message
//! is hashed to build it. Entries are stored by a check that found them
//! valid, or by the signer as it signs ([`vouch`]): the one constructor
//! of each signed artifact kind (`Envelope::sign`, `PoBatch::sign`,
//! `AruRow::sign`, `SignedUpdate::sign`) stores its artifact under the
//! public half of the key that signed it, so the host never verifies a
//! signature its own thread just made. Only the holder of a [`KeyPair`]
//! can vouch, and only under that key's public half.
//!
//! A check is answered from the table only when the artifact presented
//! is `==` to the one stored under its signature and was stored under
//! the very [`PublicKey`] the verifier's own registry holds for the
//! signer. The verdict is a function of that key, the signed bytes (a
//! function of the artifact's value) and the signature, so the answer is
//! the one a full check would give; an artifact signed with a key other
//! than the one its claimed signer is registered under misses at every
//! verifier and is verified in full. Only valid verdicts are stored, at
//! most [`CAP`] of them, the oldest forgotten first: a tampered,
//! re-keyed, forged or forgotten artifact is always verified in full.
//! Signatures come from the network, and the hasher is a fixed one so
//! that runs repeat; the bound also caps what signatures crafted to
//! collide under it can cost. Debug builds verify each vouched artifact
//! under its signing key in full, so a test run still checks every
//! signature once.
//!
//! The table is the host's, not a replica's. It sits under
//! `Replica::verified`, `verify_update` and `verify_row`, so each replica
//! still counts every check it would run (its `verifications`, what
//! `obs::prof` charges), still remembers what it verified (the per-replica
//! `VerifiedUpdates` and `VerifiedRows`) and forgets that on recovery; a
//! recovery does not touch this table, and the drop of the thread's last
//! live replica empties it. Nothing a replica does or journals depends on
//! whether a verdict came from here.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};

use itcrypto::keys::{KeyPair, KeyRegistry, Principal, PublicKey};
use itcrypto::schnorr::Signature;
use itcrypto::sha256::Digest;
use simnet::hash::MixState;

use crate::messages::{AruRow, PoBatch, SignedMsg};
use crate::types::{ReplicaId, SignedUpdate};

/// Valid verdicts remembered per thread. A broadcast's receivers check
/// its envelope within a few events of one another, so a short memory
/// already answers all but the first of them.
pub(crate) const CAP: usize = 64;

/// A batch root as a `PoBatchMember` presents it: the coordinates the
/// origin signed, the root folded from the member's inclusion path, and
/// the origin's signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct BatchRoot {
    pub(crate) origin: ReplicaId,
    pub(crate) first_po_seq: u64,
    pub(crate) count: u32,
    pub(crate) root: Digest,
    pub(crate) sig: Signature,
}

/// A signed artifact the table can answer for.
pub(crate) trait Artifact: Clone + PartialEq + 'static {
    /// The principal whose signature it carries.
    fn signer(&self) -> Principal;
    /// That signature: the table's key.
    fn signature(&self) -> Signature;
    /// The full check, run on a miss.
    fn verify_signature(&self, registry: &KeyRegistry) -> bool;
}

impl Artifact for SignedMsg {
    fn signer(&self) -> Principal {
        Principal::Replica(self.from.0)
    }
    fn signature(&self) -> Signature {
        self.sig
    }
    fn verify_signature(&self, registry: &KeyRegistry) -> bool {
        self.verify(registry)
    }
}

impl Artifact for PoBatch {
    fn signer(&self) -> Principal {
        Principal::Replica(self.origin.0)
    }
    fn signature(&self) -> Signature {
        self.root_sig
    }
    fn verify_signature(&self, registry: &KeyRegistry) -> bool {
        self.verify(registry)
    }
}

impl Artifact for BatchRoot {
    fn signer(&self) -> Principal {
        Principal::Replica(self.origin.0)
    }
    fn signature(&self) -> Signature {
        self.sig
    }
    fn verify_signature(&self, registry: &KeyRegistry) -> bool {
        PoBatch::verify_root(
            registry,
            self.origin,
            self.first_po_seq,
            self.count,
            self.root,
            &self.sig,
        )
    }
}

impl Artifact for SignedUpdate {
    fn signer(&self) -> Principal {
        Principal::Client(self.update.client)
    }
    fn signature(&self) -> Signature {
        self.sig
    }
    fn verify_signature(&self, registry: &KeyRegistry) -> bool {
        self.verify(registry)
    }
}

impl Artifact for AruRow {
    fn signer(&self) -> Principal {
        Principal::Replica(self.replica.0)
    }
    fn signature(&self) -> Signature {
        self.sig
    }
    fn verify_signature(&self, registry: &KeyRegistry) -> bool {
        self.verify(registry)
    }
}

/// Valid verdicts by signature: the signer's key each was reached under
/// and the artifact verified, of whichever [`Artifact`] type it is.
/// Probed by key and never walked; the `order` queue evicts.
#[derive(Debug, Default)]
pub(crate) struct Verdicts {
    valid: HashMap<Signature, (PublicKey, Box<dyn Any>), MixState>,
    order: VecDeque<Signature>,
}

impl Verdicts {
    /// Whether `artifact` carries a valid signature under `registry`:
    /// true at once for the artifact stored under its signature and the
    /// key `registry` holds for its signer, otherwise `verify`'s verdict,
    /// stored when it is true. A signer `registry` does not know is left
    /// to `verify`, which refuses it.
    pub(crate) fn check<T: Artifact>(
        &mut self,
        registry: &KeyRegistry,
        artifact: &T,
        verify: impl FnOnce(&T, &KeyRegistry) -> bool,
    ) -> bool {
        let Some(key) = registry.lookup(artifact.signer()) else {
            return verify(artifact, registry);
        };
        let sig = artifact.signature();
        if self
            .valid
            .get(&sig)
            .is_some_and(|(known, stored)| *known == key && stored.downcast_ref() == Some(artifact))
        {
            return true;
        }
        if !verify(artifact, registry) {
            return false;
        }
        self.store(key, artifact);
        true
    }

    /// Stores `artifact` as valid under the public half of `key`, which
    /// has just signed it.
    pub(crate) fn vouch<T: Artifact>(&mut self, key: &KeyPair, artifact: &T) {
        debug_assert!(
            {
                let mut registry = KeyRegistry::new();
                registry.register(artifact.signer(), key.public_key());
                artifact.verify_signature(&registry)
            },
            "{key:?} vouched for a signature it did not make"
        );
        self.store(key.public_key(), artifact);
    }

    /// Stores a valid verdict, forgetting the oldest past [`CAP`].
    fn store<T: Artifact>(&mut self, key: PublicKey, artifact: &T) {
        let sig = artifact.signature();
        if self
            .valid
            .insert(sig, (key, Box::new(artifact.clone())))
            .is_none()
        {
            self.order.push_back(sig);
            if self.order.len() > CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.valid.remove(&oldest);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.valid.clear();
        self.order.clear();
    }
}

thread_local! {
    static VERDICTS: RefCell<Verdicts> = RefCell::new(Verdicts::default());
    // The replicas alive on this thread.
    static REPLICAS: Cell<usize> = const { Cell::new(0) };
}

/// Whether `artifact` carries a valid signature under `registry`: the
/// full check's verdict, answered from this thread's table when the same
/// artifact was found valid under the same key.
pub(crate) fn check<T: Artifact>(registry: &KeyRegistry, artifact: &T) -> bool {
    VERDICTS.with(|verdicts| {
        verdicts
            .borrow_mut()
            .check(registry, artifact, T::verify_signature)
    })
}

/// Stores `artifact`, which `key` has just signed, as valid in this
/// thread's table: no replica on the thread verifies it again.
pub(crate) fn vouch<T: Artifact>(key: &KeyPair, artifact: &T) {
    VERDICTS.with(|verdicts| verdicts.borrow_mut().vouch(key, artifact));
}

/// Counts a replica built on this thread.
pub(crate) fn replica_built() {
    REPLICAS.with(|live| live.set(live.get() + 1));
}

/// Counts a replica dropped on this thread and empties the table when it
/// was the thread's last: the artifacts the run verified will not come
/// again, and the table would otherwise hold the last references to them
/// until the next run on the thread evicts them, at that run's cost. A
/// replica replaced by a fresh one (a recovery, a restore) is dropped
/// after its successor is built, so the table outlives it.
pub(crate) fn replica_dropped() {
    // A replica dropped while the thread's locals are being destroyed
    // has nothing left to empty.
    let last = REPLICAS
        .try_with(|live| {
            live.set(live.get().saturating_sub(1));
            live.get() == 0
        })
        .unwrap_or(false);
    if last {
        let _ = VERDICTS.try_with(|verdicts| verdicts.borrow_mut().clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use itcrypto::keys::KeyPair;
    use itcrypto::sha256::sha256;
    use proptest::prelude::*;

    use crate::application::KvApp;
    use crate::messages::PrimeMsg;
    use crate::replica::Replica;
    use crate::security_tests::registry_and_keys;
    use crate::types::{Config, Update};

    /// One artifact of each kind Prime verifies.
    #[derive(Clone, Debug)]
    enum Item {
        Envelope(SignedMsg),
        Batch(PoBatch),
        Root(BatchRoot),
        Update(SignedUpdate),
        Row(AruRow),
    }

    /// Artifacts in the pool: more than the table holds.
    const POOL: usize = 2 * CAP + 8;

    /// The replica whose key the second registry replaces.
    const REKEYED: u32 = 1;

    /// The key the second registry holds for [`REKEYED`].
    const REKEY_SEED: u64 = 0xbad;

    /// Every key the pool is signed with.
    struct Keys {
        replicas: Vec<KeyPair>,
        clients: Vec<KeyPair>,
        rekey: KeyPair,
    }

    /// Which of [`Keys`] signed an artifact.
    #[derive(Clone, Copy, Debug)]
    enum By {
        Replica(usize),
        Client(usize),
        Rekey,
    }

    impl Keys {
        /// The registry and the keys it holds, plus the one key the
        /// re-keyed registry holds for [`REKEYED`] instead.
        fn new() -> (KeyRegistry, Self) {
            let (registry, replicas, clients) = registry_and_keys(4, 2);
            let rekey = KeyPair::generate(REKEY_SEED);
            let keys = Keys {
                replicas,
                clients,
                rekey,
            };
            (registry, keys)
        }

        fn get(&mut self, by: By) -> &mut KeyPair {
            match by {
                By::Replica(r) => &mut self.replicas[r],
                By::Client(c) => &mut self.clients[c],
                By::Rekey => &mut self.rekey,
            }
        }

        fn rekeyed(&self, registry: &KeyRegistry) -> KeyRegistry {
            let mut rekeyed = registry.clone();
            rekeyed.register(Principal::Replica(REKEYED), self.rekey.public_key());
            rekeyed
        }
    }

    fn signed_update(keys: &mut Keys, client: u32, seq: u64, by: By) -> SignedUpdate {
        let update = Update::new(client, seq, Bytes::from(format!("k{seq}={client}")));
        SignedUpdate::sign(update, keys.get(by))
    }

    /// The `i`th artifact and the key it was signed with: kinds and
    /// claimed signers in turn. A `forged` one is signed with a key other
    /// than the one the registry holds for its claimed signer: the
    /// re-keyed registry's key for [`REKEYED`] at even `i`, the next
    /// principal's at odd `i`.
    fn artifact(i: usize, keys: &mut Keys, forged: bool) -> (Item, By) {
        let n = keys.replicas.len();
        let signer = i / 7 % n;
        let replica = ReplicaId(signer as u32);
        let seq = i as u64 + 1;
        let by = match (forged, i % 2) {
            (false, _) => By::Replica(signer),
            (true, 0) => By::Rekey,
            (true, _) => By::Replica((signer + 1) % n),
        };
        let batch = |keys: &mut Keys| {
            let updates = vec![
                signed_update(keys, 0, seq, By::Client(0)),
                signed_update(keys, 1, seq, By::Client(1)),
            ];
            PoBatch::sign(replica, seq, updates, keys.get(by))
        };
        let item = match i % 7 {
            0 => {
                let msg = PrimeMsg::Prepare {
                    view: 0,
                    seq,
                    digest: sha256(&seq.to_be_bytes()),
                };
                Item::Envelope(SignedMsg::sign(replica, msg, keys.get(by)))
            }
            1 => {
                let msg = PrimeMsg::PoRequestBatch { batch: batch(keys) };
                Item::Envelope(SignedMsg::sign(replica, msg, keys.get(by)))
            }
            2 => Item::Batch(batch(keys)),
            3 => {
                let batch = batch(keys);
                Item::Root(BatchRoot {
                    origin: batch.origin,
                    first_po_seq: batch.first_po_seq,
                    count: batch.updates.len() as u32,
                    root: batch.root(),
                    sig: batch.root_sig,
                })
            }
            4 | 5 => {
                let client = i % 2;
                let by = match by {
                    By::Replica(_) if forged => By::Client(client ^ 1),
                    By::Replica(_) => By::Client(client),
                    by => by,
                };
                let update = signed_update(keys, client as u32, seq, by);
                return (Item::Update(update), by);
            }
            _ => Item::Row(AruRow::sign(replica, vec![seq; n], keys.get(by))),
        };
        (item, by)
    }

    /// The artifact with its content changed and its signature kept.
    fn changed(item: &Item) -> Item {
        let mut item = item.clone();
        match &mut item {
            Item::Envelope(env) => match &mut env.msg {
                PrimeMsg::PoRequestBatch { batch } => batch.first_po_seq += 1,
                _ => env.from = ReplicaId(env.from.0 ^ 1),
            },
            Item::Batch(batch) => batch.updates[1].update.payload = Bytes::from_static(b"x"),
            Item::Root(root) => root.root = sha256(root.root.as_bytes()),
            Item::Update(update) => update.update.client_seq += 1,
            Item::Row(row) => row.vector[0] += 1,
        }
        item
    }

    /// The artifact with one bit of its signature flipped.
    fn resigned(item: &Item) -> Item {
        let flip = |sig: &mut Signature| sig.s ^= 1;
        let mut item = item.clone();
        match &mut item {
            Item::Envelope(env) => flip(&mut env.sig),
            Item::Batch(batch) => flip(&mut batch.root_sig),
            Item::Root(root) => flip(&mut root.sig),
            Item::Update(update) => flip(&mut update.sig),
            Item::Row(row) => flip(&mut row.sig),
        }
        item
    }

    /// Presents `artifact` to `table` and to this thread's table, both
    /// checked against the full verdict. Returns that verdict and whether
    /// `table` ran the full check.
    fn present<T: Artifact + std::fmt::Debug>(
        table: &mut Verdicts,
        registry: &KeyRegistry,
        artifact: &T,
    ) -> (bool, bool) {
        let direct = artifact.verify_signature(registry);
        let mut ran = false;
        let verdict = table.check(registry, artifact, |a, r| {
            ran = true;
            a.verify_signature(r)
        });
        assert_eq!(verdict, direct, "table verdict on {artifact:?}");
        assert_eq!(check(registry, artifact), direct, "thread's verdict");
        (direct, ran)
    }

    fn present_item(table: &mut Verdicts, registry: &KeyRegistry, item: &Item) -> (bool, bool) {
        match item {
            Item::Envelope(a) => present(table, registry, a),
            Item::Batch(a) => present(table, registry, a),
            Item::Root(a) => present(table, registry, a),
            Item::Update(a) => present(table, registry, a),
            Item::Row(a) => present(table, registry, a),
        }
    }

    /// Vouches for `item` with `key` in `table` and in this thread's.
    fn vouch_item(table: &mut Verdicts, key: &KeyPair, item: &Item) {
        fn both<T: Artifact>(table: &mut Verdicts, key: &KeyPair, artifact: &T) {
            table.vouch(key, artifact);
            vouch(key, artifact);
        }
        match item {
            Item::Envelope(a) => both(table, key, a),
            Item::Batch(a) => both(table, key, a),
            Item::Root(a) => both(table, key, a),
            Item::Update(a) => both(table, key, a),
            Item::Row(a) => both(table, key, a),
        }
    }

    /// Whether this thread's table answers `artifact` without a full check.
    fn answered_by_thread<T: Artifact>(registry: &KeyRegistry, artifact: &T) -> bool {
        let mut ran = false;
        let verdict = VERDICTS.with(|verdicts| {
            verdicts.borrow_mut().check(registry, artifact, |a, r| {
                ran = true;
                a.verify_signature(r)
            })
        });
        verdict && !ran
    }

    fn held() -> usize {
        VERDICTS.with(|verdicts| verdicts.borrow().valid.len())
    }

    fn replica(id: u32, registry: &KeyRegistry, keys: &[KeyPair]) -> Replica<KvApp> {
        Replica::new(
            ReplicaId(id),
            Config::red_team(),
            keys[id as usize].clone(),
            registry.clone(),
            KvApp::new(),
            &obs::ObsHub::new(),
        )
    }

    #[test]
    fn a_dropped_replica_leaves_the_thread_table_empty() {
        let (registry, mut rkeys, _) = registry_and_keys(4, 2);
        let replica = replica(0, &registry, &rkeys);
        let msg = PrimeMsg::SuspectLeader { view: 0 };
        let envelope = SignedMsg::sign(ReplicaId(1), msg, &mut rkeys[1]);
        assert!(check(&registry, &envelope));
        assert_eq!(held(), 1);
        drop(replica);
        assert_eq!(held(), 0);
    }

    #[test]
    fn the_table_is_emptied_when_the_thread_s_last_replica_drops() {
        let (registry, mut rkeys, _) = registry_and_keys(4, 2);
        let first = replica(0, &registry, &rkeys);
        let second = replica(1, &registry, &rkeys);
        let msg = PrimeMsg::SuspectLeader { view: 0 };
        let envelope = SignedMsg::sign(ReplicaId(2), msg, &mut rkeys[2]);
        // Vouched for as signed, and still after one replica drops.
        assert!(answered_by_thread(&registry, &envelope));
        drop(first);
        assert!(answered_by_thread(&registry, &envelope));
        assert_eq!(held(), 1);
        drop(second);
        assert_eq!(held(), 0);
        assert!(!answered_by_thread(&registry, &envelope));
    }

    proptest! {
        #[test]
        fn the_table_answers_as_the_full_check_does(
            steps in proptest::collection::vec((0usize..POOL, 0u8..7), 1..400),
        ) {
            let (registry, mut keys) = Keys::new();
            let rekeyed = keys.rekeyed(&registry);
            // Every third artifact is signed with a key other than the
            // one the registry holds for its claimed signer.
            let pool: Vec<(Item, By)> = (0..POOL)
                .map(|i| artifact(i, &mut keys, i % 3 == 2))
                .collect();
            let mut table = Verdicts::default();
            for (index, how) in steps {
                let (item, by) = &pool[index];
                // Mostly the artifact as signed, so the table has
                // something to recognise.
                match how {
                    0..=2 => present_item(&mut table, &registry, item),
                    3 => present_item(&mut table, &registry, &changed(item)),
                    4 => present_item(&mut table, &registry, &resigned(item)),
                    5 => present_item(&mut table, &rekeyed, item),
                    _ => {
                        vouch_item(&mut table, keys.get(*by), item);
                        present_item(&mut table, &registry, item)
                    }
                };
                prop_assert!(table.valid.len() <= CAP);
                prop_assert_eq!(table.order.len(), table.valid.len());
            }
        }
    }

    #[test]
    fn every_kind_is_recognised_and_the_oldest_is_forgotten_past_the_bound() {
        let (registry, mut keys) = Keys::new();
        let pool: Vec<Item> = (0..POOL).map(|i| artifact(i, &mut keys, false).0).collect();
        let mut table = Verdicts::default();
        for item in &pool[..CAP] {
            assert_eq!(present_item(&mut table, &registry, item), (true, true));
        }
        for item in &pool[..CAP] {
            assert_eq!(present_item(&mut table, &registry, item), (true, false));
        }
        // One more artifact evicts the oldest, which is verified again.
        assert_eq!(
            present_item(&mut table, &registry, &pool[CAP]),
            (true, true)
        );
        assert_eq!(present_item(&mut table, &registry, &pool[1]), (true, false));
        assert_eq!(present_item(&mut table, &registry, &pool[0]), (true, true));
        // A stored artifact changed, re-signed or presented under another
        // key is verified in full and refused.
        let rekeyed = keys.rekeyed(&registry);
        for item in &pool[1..CAP] {
            assert_eq!(
                present_item(&mut table, &registry, &changed(item)),
                (false, true)
            );
            assert_eq!(
                present_item(&mut table, &registry, &resigned(item)),
                (false, true)
            );
        }
        let by_rekeyed = &pool[7 * REKEYED as usize];
        assert_eq!(
            present_item(&mut table, &rekeyed, by_rekeyed),
            (false, true)
        );
    }

    #[test]
    fn a_vouched_artifact_is_recognised_and_a_forged_one_is_not() {
        let (registry, mut keys) = Keys::new();
        let rekeyed = keys.rekeyed(&registry);
        let mut table = Verdicts::default();
        for i in 0..CAP / 2 {
            for forged in [false, true] {
                let (item, by) = artifact(i, &mut keys, forged);
                vouch_item(&mut table, keys.get(by), &item);
                // Only the signature made with the registered key is
                // answered without a full check.
                assert_eq!(
                    present_item(&mut table, &registry, &item),
                    (!forged, forged),
                    "{item:?}"
                );
            }
        }
        // A signature made with the key the re-keyed registry holds is
        // recognised there, and one made with the old key is not.
        let (item, by) = artifact(7 * REKEYED as usize + 1, &mut keys, true);
        assert!(matches!(by, By::Rekey));
        vouch_item(&mut table, keys.get(by), &item);
        assert_eq!(present_item(&mut table, &rekeyed, &item), (true, false));
        assert_eq!(present_item(&mut table, &registry, &item), (false, true));
    }
}
