//! Pre-order dissemination: every slot goes out in a Merkle batch.
//!
//! Dissemination is the pre-ordering hot path: at the E11 knee a broadcast
//! per client update holds the sender's NIC lane for `(n-1)` message
//! slots. Batching amortizes that cost: updates introduced at `submit`
//! are pre-ordered (stored and ARU-counted) immediately, but
//! dissemination waits until the batch closes — when `Config::batch_max`
//! members accumulate or `BATCH_DELAY` elapses since the previous close,
//! whichever comes first. At the default `batch_max` of 1 every update
//! closes its own batch at `submit`, so a batch of one leaves when a
//! per-update broadcast would. The closed batch travels as one
//! [`PrimeMsg::PoRequestBatch`] carrying a Merkle root over the
//! `(po_seq, update)` leaves and a single origin signature over the root,
//! so receivers pay one signature verification per batch for the root,
//! and none for a member they already verified when its client sent it
//! (see [`crate::types::VerifiedUpdates`]).
//!
//! Reconciliation stays per-slot: a `PoFetch` for a slot that was
//! disseminated in a batch is answered with a [`PrimeMsg::PoBatchMember`]
//! — the member update plus its Merkle inclusion path — which any holder
//! of the batch can serve. The receiver folds the leaf up the path and
//! checks the origin's root signature, so a faulty relayer cannot forge
//! or transplant members.

use super::*;
use crate::messages::PoBatch;
use crate::verdicts::BatchRoot;
use itcrypto::merkle::Proof;
use itcrypto::schnorr::Signature;

impl<A: Application> Replica<A> {
    /// Closes the pending batch: signs the Merkle root over the pending
    /// `(po_seq, update)` leaves and broadcasts one `PoRequestBatch`.
    pub(super) fn flush_batch(&mut self, now: SimTime, out: &mut Vec<OutEvent>) {
        if self.batch_pending.is_empty() {
            return;
        }
        self.last_batch_at = now;
        let first_po_seq = self.batch_pending[0].0;
        let updates: Vec<SignedUpdate> = self
            .batch_pending
            .drain(..)
            .map(|(_, update)| update)
            .collect();
        // One root signature per batch (the envelope signature below is
        // charged by `sign` itself).
        obs::prof::charge_crypto("prime;preorder;batch_request", obs::prof::CryptoOp::Sign, 1);
        let batch = PoBatch::sign(self.id, first_po_seq, updates, &mut self.key);
        self.po_batches[self.id.0 as usize].insert(first_po_seq, batch.clone());
        let msg = self.sign(PrimeMsg::PoRequestBatch { batch });
        out.push(OutEvent::Broadcast(msg));
    }

    /// Accepts a disseminated batch from its origin: verifies the root
    /// signature plus each member's client signature, then stores every
    /// member slot.
    pub(super) fn accept_po_batch(
        &mut self,
        from: ReplicaId,
        batch: PoBatch,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        // Only the origin may bind its slots: a faulty relayer must not be
        // able to fill foreign ones.
        if from != batch.origin || batch.origin.0 >= self.config.n() {
            return;
        }
        let count = batch.updates.len() as u64;
        let first_counter = po_counter(batch.first_po_seq);
        // The batch must sit inside one incarnation's counter space and
        // must not wrap: members are `first_po_seq + i`.
        if count == 0 || first_counter == 0 || first_counter + count > (1 << PO_SEQ_BITS) {
            return;
        }
        // Every member forgotten behind a checkpoint: nothing to learn.
        if self
            .po_store
            .is_forgotten(batch.origin.0, batch.first_po_seq + count - 1)
        {
            return;
        }
        if !self.verified(&batch) {
            self.c_bad_sigs.inc();
            return;
        }
        for update in &batch.updates {
            if !self.verify_update(update) {
                self.c_bad_sigs.inc();
                return;
            }
        }
        self.note_incarnation(batch.origin, batch.first_po_seq);
        let o = batch.origin.0 as usize;
        for (i, update) in batch.updates.iter().enumerate() {
            let po_seq = batch.first_po_seq + i as u64;
            self.po_store
                .insert_if_absent(o as u32, po_seq, update.clone());
        }
        self.po_batches[o]
            .entry(batch.first_po_seq)
            .or_insert(batch);
        self.advance_my_aru();
        self.note_unordered(now);
        self.try_execute(now, out);
    }

    /// Incarnation tracking: a slot of a higher incarnation than `origin`
    /// was last seen in means it recovered, and its contiguity restarts
    /// in the new incarnation.
    fn note_incarnation(&mut self, origin: ReplicaId, po_seq: u64) {
        let inc = po_incarnation(po_seq);
        let o = origin.0 as usize;
        if origin != self.id && inc > self.origin_inc[o] {
            self.origin_inc[o] = inc;
            self.aru_counter[o] = 0;
        }
    }

    /// Builds a `PoBatchMember` reply for a fetched slot that this
    /// replica holds inside a stored batch.
    pub(super) fn batch_member_reply(
        &mut self,
        origin: ReplicaId,
        po_seq: u64,
    ) -> Option<Envelope> {
        let (&first_po_seq, batch) = self
            .po_batches
            .get(origin.0 as usize)?
            .range(..=po_seq)
            .next_back()?;
        let count = batch.updates.len() as u64;
        if po_seq >= first_po_seq + count {
            return None;
        }
        let index = (po_seq - first_po_seq) as usize;
        let proof = batch.tree().prove(index)?;
        let update = batch.updates[index].clone();
        let root_sig = batch.root_sig;
        let msg = PrimeMsg::PoBatchMember {
            origin,
            first_po_seq,
            count: count as u32,
            index: index as u32,
            update,
            path: proof.path,
            root_sig,
        };
        Some(self.sign(msg))
    }

    /// Accepts a single batch member delivered in reconciliation. Any
    /// peer may serve it: folding the leaf up the inclusion path must
    /// reproduce a root carrying the *origin's* signature, which binds
    /// `(origin, first_po_seq, count, root)` — a corrupted member, a
    /// transplanted path, or a shifted index all fold to a different
    /// root and fail the signature check.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn accept_po_batch_member(
        &mut self,
        origin: ReplicaId,
        first_po_seq: u64,
        count: u32,
        index: u32,
        update: SignedUpdate,
        path: Vec<(Digest, bool)>,
        root_sig: &Signature,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if origin.0 >= self.config.n() || count == 0 || index >= count {
            return;
        }
        let first_counter = po_counter(first_po_seq);
        if first_counter == 0 || first_counter + count as u64 > (1 << PO_SEQ_BITS) {
            return;
        }
        let po_seq = first_po_seq + index as u64;
        if self.po_store.contains(origin.0, po_seq) {
            return;
        }
        if !self.verify_update(&update) {
            self.c_bad_sigs.inc();
            return;
        }
        let proof = Proof {
            index: index as usize,
            path,
        };
        let root = proof.fold_root(&PoBatch::leaf_bytes(po_seq, &update));
        if !self.verified(&BatchRoot {
            origin,
            first_po_seq,
            count,
            root,
            sig: *root_sig,
        }) {
            self.c_bad_sigs.inc();
            return;
        }
        self.note_incarnation(origin, first_po_seq);
        // A member of a batch of one is that whole batch as its origin
        // signed it: keep it, so this replica serves the slot onward.
        if count == 1 {
            self.po_batches[origin.0 as usize]
                .entry(first_po_seq)
                .or_insert_with(|| PoBatch {
                    origin,
                    first_po_seq,
                    updates: vec![update.clone()],
                    root_sig: *root_sig,
                });
        }
        self.po_store.insert_if_absent(origin.0, po_seq, update);
        self.advance_my_aru();
        self.note_unordered(now);
        self.try_execute(now, out);
    }
}
