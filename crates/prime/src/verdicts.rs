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
//! is hashed to build it. A check is answered from the table only when
//! the artifact presented is `==` to the one stored under its signature
//! and was stored under the very [`PublicKey`] the verifier's own
//! registry holds for the signer. The verdict is a function of that key,
//! the signed bytes (a function of the artifact's value) and the
//! signature, so the answer is the one a full check would give. Only
//! valid verdicts are stored, at most [`CAP`] of them, the oldest
//! forgotten first: a tampered, re-keyed, forged or forgotten artifact is
//! always verified in full. Signatures come from the network, and the
//! hasher is a fixed one so that runs repeat; the bound also caps what
//! signatures crafted to collide under it can cost.
//!
//! The table is the host's, not a replica's. It sits under
//! `Replica::verified`, `verify_update` and `verify_row`, so each replica
//! still counts every check it would run (its `verifications`, what
//! `obs::prof` charges), still remembers what it verified (the per-replica
//! `VerifiedUpdates` and `VerifiedRows`) and forgets that on recovery; a
//! recovery does not touch this table, and a replica's drop empties it.
//! Nothing a replica does or journals depends on whether a verdict came
//! from here.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use itcrypto::keys::{KeyRegistry, Principal, PublicKey};
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
        true
    }
}

thread_local! {
    static VERDICTS: RefCell<Verdicts> = RefCell::new(Verdicts::default());
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

/// Empties this thread's table. A replica calls it as it is dropped: the
/// artifacts its run verified will not come again, and the table would
/// otherwise hold the last references to them until the next run on the
/// thread evicts them, at that run's cost.
pub(crate) fn forget() {
    // A replica dropped while the thread's locals are being destroyed
    // has nothing left to empty.
    let _ = VERDICTS.try_with(|verdicts| {
        let mut verdicts = verdicts.borrow_mut();
        verdicts.valid.clear();
        verdicts.order.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use itcrypto::keys::KeyPair;
    use itcrypto::sha256::sha256;
    use proptest::prelude::*;
    use simnet::wire::Wire;

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

    fn signed_update(ckeys: &mut [KeyPair], client: u32, seq: u64) -> SignedUpdate {
        let update = Update::new(client, seq, Bytes::from(format!("k{seq}={client}")));
        let sig = ckeys[client as usize].sign(&update.to_wire());
        SignedUpdate { update, sig }
    }

    /// The `i`th valid artifact: kinds and signers in turn.
    fn artifact(i: usize, rkeys: &mut [KeyPair], ckeys: &mut [KeyPair]) -> Item {
        let signer = (i / 7 % rkeys.len()) as u32;
        let seq = i as u64 + 1;
        let mut batch = || {
            let updates = vec![signed_update(ckeys, 0, seq), signed_update(ckeys, 1, seq)];
            PoBatch::sign(ReplicaId(signer), seq, updates, &mut rkeys[signer as usize])
        };
        match i % 7 {
            0 => {
                let msg = PrimeMsg::Prepare {
                    view: 0,
                    seq,
                    digest: sha256(&seq.to_be_bytes()),
                };
                Item::Envelope(SignedMsg::sign(
                    ReplicaId(signer),
                    msg,
                    &mut rkeys[signer as usize],
                ))
            }
            1 => {
                let msg = PrimeMsg::PoRequestBatch { batch: batch() };
                Item::Envelope(SignedMsg::sign(
                    ReplicaId(signer),
                    msg,
                    &mut rkeys[signer as usize],
                ))
            }
            2 => Item::Batch(batch()),
            3 => {
                let batch = batch();
                Item::Root(BatchRoot {
                    origin: batch.origin,
                    first_po_seq: batch.first_po_seq,
                    count: batch.updates.len() as u32,
                    root: batch.root(),
                    sig: batch.root_sig,
                })
            }
            4 | 5 => Item::Update(signed_update(ckeys, (i % 2) as u32, seq)),
            _ => {
                let vector = vec![seq; rkeys.len()];
                let sig =
                    rkeys[signer as usize].sign(&AruRow::signed_bytes(ReplicaId(signer), &vector));
                Item::Row(AruRow {
                    replica: ReplicaId(signer),
                    vector,
                    sig,
                })
            }
        }
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

    #[test]
    fn a_dropped_replica_leaves_the_thread_table_empty() {
        let (registry, mut rkeys, _) = registry_and_keys(4, 2);
        let hub = obs::ObsHub::new();
        let replica = Replica::new(
            ReplicaId(0),
            Config::red_team(),
            rkeys[0].clone(),
            registry.clone(),
            KvApp::new(),
            &hub,
        );
        let held = || VERDICTS.with(|verdicts| verdicts.borrow().valid.len());
        let msg = PrimeMsg::SuspectLeader { view: 0 };
        let envelope = SignedMsg::sign(ReplicaId(1), msg, &mut rkeys[1]);
        assert!(check(&registry, &envelope));
        assert_eq!(held(), 1);
        drop(replica);
        assert_eq!(held(), 0);
    }

    proptest! {
        #[test]
        fn the_table_answers_as_the_full_check_does(
            steps in proptest::collection::vec((0usize..POOL, 0u8..6), 1..400),
        ) {
            let (registry, mut rkeys, mut ckeys) = registry_and_keys(4, 2);
            let mut rekeyed = registry.clone();
            rekeyed.register(
                Principal::Replica(REKEYED),
                KeyPair::generate(0xbad).public_key(),
            );
            let pool: Vec<Item> = (0..POOL)
                .map(|i| artifact(i, &mut rkeys, &mut ckeys))
                .collect();
            let mut table = Verdicts::default();
            for (index, how) in steps {
                let item = &pool[index];
                // Mostly the artifact as signed, so the table has
                // something to recognise.
                match how {
                    0..=2 => present_item(&mut table, &registry, item),
                    3 => present_item(&mut table, &registry, &changed(item)),
                    4 => present_item(&mut table, &registry, &resigned(item)),
                    _ => present_item(&mut table, &rekeyed, item),
                };
                prop_assert!(table.valid.len() <= CAP);
                prop_assert_eq!(table.order.len(), table.valid.len());
            }
        }
    }

    #[test]
    fn every_kind_is_recognised_and_the_oldest_is_forgotten_past_the_bound() {
        let (registry, mut rkeys, mut ckeys) = registry_and_keys(4, 2);
        let pool: Vec<Item> = (0..POOL)
            .map(|i| artifact(i, &mut rkeys, &mut ckeys))
            .collect();
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
        let mut rekeyed = registry.clone();
        rekeyed.register(
            Principal::Replica(REKEYED),
            KeyPair::generate(0xbad).public_key(),
        );
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
}
