//! Prime protocol messages and their signed envelope.

use bytes::Bytes;
use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use itcrypto::merkle::{MerkleTree, RootFold};
use itcrypto::schnorr::Signature;
use itcrypto::sha256::Digest;
use itcrypto::verify_cache::VerifyCache;
use simnet::wire::{DecodeError, Reader, Wire, Writer};

use crate::types::{ReplicaId, SignedUpdate};

/// Decode cap on batch membership (updates per batch / chunk count).
const BATCH_DECODE_CAP: usize = 4096;

/// Decode cap on Merkle inclusion-proof depth (covers 2^64 leaves).
const PROOF_PATH_CAP: usize = 64;

/// A signed PO-ARU vector as carried inside a pre-prepare matrix row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AruRow {
    /// The replica whose cumulative-ack vector this is.
    pub replica: ReplicaId,
    /// `vector[o]` = highest contiguous PO-Request sequence received from
    /// origin `o` (1-based; 0 = none).
    pub vector: Vec<u64>,
    /// That replica's signature over the vector.
    pub sig: Signature,
}

impl AruRow {
    /// The byte string the signature covers.
    pub fn signed_bytes(replica: ReplicaId, vector: &[u64]) -> Vec<u8> {
        let mut w = Writer::with_capacity(14 + 8 * vector.len());
        w.put_raw(b"po-aru")
            .put_u32(replica.0)
            .put_u32(vector.len() as u32);
        for v in vector {
            w.put_u64(*v);
        }
        w.into_vec()
    }

    /// Verifies the row's signature.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            Principal::Replica(self.replica.0),
            &Self::signed_bytes(self.replica, &self.vector),
            &self.sig,
        )
    }

    /// [`AruRow::verify`] through a verdict cache. The hottest hit
    /// source: the same row recurs in every pre-prepare matrix that
    /// carries it and in repeated PO-ARU gossip.
    pub fn verify_cached(&self, registry: &KeyRegistry, cache: &mut VerifyCache) -> bool {
        let bytes = Self::signed_bytes(self.replica, &self.vector);
        let key = VerifyCache::key(
            b"prime.aru-row",
            self.replica.0 as u64,
            &bytes,
            &self.sig.to_bytes(),
        );
        cache.check(key, || {
            registry.verify(Principal::Replica(self.replica.0), &bytes, &self.sig)
        })
    }
}

impl Wire for AruRow {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.replica.0).put_u32(self.vector.len() as u32);
        for v in &self.vector {
            w.put_u64(*v);
        }
        w.put_raw(&self.sig.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let replica = ReplicaId(r.get_u32()?);
        let n = r.get_u32()? as usize;
        if n > 1024 {
            return Err(DecodeError::new("aru vector length"));
        }
        let mut vector = Vec::with_capacity(n);
        for _ in 0..n {
            vector.push(r.get_u64()?);
        }
        let sig: [u8; 16] = r
            .get_raw(16)?
            .try_into()
            .map_err(|_| DecodeError::new("sig"))?;
        Ok(AruRow {
            replica,
            vector,
            sig: Signature::from_bytes(&sig),
        })
    }
}

/// A Merkle-batched run of pre-order requests: `updates[i]` occupies the
/// origin's pre-order slot `first_po_seq + i`, and one origin signature
/// over the Merkle root of the (sequence, update) leaves authenticates
/// the whole run — the per-update signing and per-message NIC cost that
/// saturates E11 collapses to one signature and one broadcast per batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PoBatch {
    /// Disseminating replica.
    pub origin: ReplicaId,
    /// Composite pre-order sequence of `updates[0]`; members are
    /// consecutive within the origin's incarnation.
    pub first_po_seq: u64,
    /// The batched client updates, in sequence order.
    pub updates: Vec<SignedUpdate>,
    /// Origin's signature over [`PoBatch::signed_root_bytes`].
    pub root_sig: Signature,
}

impl PoBatch {
    /// The Merkle leaf for one member: the composite sequence bound to
    /// the signed update's wire bytes. Binding the sequence into the
    /// leaf means a proof for member `i` cannot be replayed to fill a
    /// different slot, even across the tree's odd-node promotions.
    pub fn leaf_bytes(po_seq: u64, update: &SignedUpdate) -> Vec<u8> {
        let mut w = Writer::with_capacity(8 + update.wire_len());
        Self::encode_leaf(&mut w, po_seq, update);
        w.into_vec()
    }

    fn encode_leaf(w: &mut Writer, po_seq: u64, update: &SignedUpdate) {
        w.put_u64(po_seq);
        update.encode(w);
    }

    /// The Merkle tree over the batch's leaves.
    pub fn tree(&self) -> MerkleTree {
        MerkleTree::from_leaves(
            self.updates
                .iter()
                .enumerate()
                .map(|(i, u)| Self::leaf_bytes(self.first_po_seq + i as u64, u)),
        )
    }

    /// The batch's Merkle root, recomputed from its members: what
    /// `tree().root()` is, folded leaf by leaf through one buffer. Signing
    /// and verifying a batch need the root only; [`PoBatch::tree`] is for
    /// the inclusion proofs of reconciliation.
    ///
    /// # Panics
    ///
    /// Panics on a batch without members (never signed, never decoded).
    pub fn root(&self) -> Digest {
        let mut fold = RootFold::new();
        let mut leaf = Writer::with_capacity(8 + self.updates.first().map_or(0, |u| u.wire_len()));
        for (i, update) in self.updates.iter().enumerate() {
            leaf.clear();
            Self::encode_leaf(&mut leaf, self.first_po_seq + i as u64, update);
            fold.push(leaf.as_slice());
        }
        fold.root()
    }

    /// The byte string `root_sig` covers: a domain tag, the batch
    /// coordinates, and the Merkle root.
    pub fn signed_root_bytes(
        origin: ReplicaId,
        first_po_seq: u64,
        count: u32,
        root: Digest,
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(8 + 4 + 8 + 4 + 32);
        w.put_raw(b"po-batch")
            .put_u32(origin.0)
            .put_u64(first_po_seq)
            .put_u32(count)
            .put_raw(root.as_bytes());
        w.into_vec()
    }

    /// Builds and signs a batch as `origin`.
    pub fn sign(
        origin: ReplicaId,
        first_po_seq: u64,
        updates: Vec<SignedUpdate>,
        key: &mut KeyPair,
    ) -> Self {
        let mut batch = PoBatch {
            origin,
            first_po_seq,
            updates,
            root_sig: Signature::from_bytes(&[0; 16]),
        };
        let bytes = Self::signed_root_bytes(
            origin,
            first_po_seq,
            batch.updates.len() as u32,
            batch.root(),
        );
        batch.root_sig = key.sign(&bytes);
        batch
    }

    /// Verifies an origin signature over batch coordinates and a Merkle
    /// root through the verdict cache. This is the shared key path for
    /// both whole-batch verification (root recomputed from every member)
    /// and single-member verification (root folded from an inclusion
    /// proof): the cache keys on the *root*, not on per-update digests,
    /// so one real verification covers the batch and every later member
    /// check of it. A corrupted member or path changes the computed root,
    /// which changes the key — the cached verdict is always identical to
    /// the uncached one.
    pub fn verify_root_cached(
        registry: &KeyRegistry,
        cache: &mut VerifyCache,
        origin: ReplicaId,
        first_po_seq: u64,
        count: u32,
        root: Digest,
        sig: &Signature,
    ) -> bool {
        let bytes = Self::signed_root_bytes(origin, first_po_seq, count, root);
        let key = VerifyCache::key(b"prime.po-batch", origin.0 as u64, &bytes, &sig.to_bytes());
        cache.check(key, || {
            registry.verify(Principal::Replica(origin.0), &bytes, sig)
        })
    }

    /// Verifies this batch's root signature (recomputing the root from
    /// the members) through the verdict cache.
    pub fn verify_cached(&self, registry: &KeyRegistry, cache: &mut VerifyCache) -> bool {
        if self.updates.is_empty() {
            return false;
        }
        Self::verify_root_cached(
            registry,
            cache,
            self.origin,
            self.first_po_seq,
            self.updates.len() as u32,
            self.root(),
            &self.root_sig,
        )
    }
}

impl Wire for PoBatch {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.origin.0)
            .put_u64(self.first_po_seq)
            .put_u32(self.updates.len() as u32);
        for u in &self.updates {
            u.encode(w);
        }
        w.put_raw(&self.root_sig.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let origin = ReplicaId(r.get_u32()?);
        let first_po_seq = r.get_u64()?;
        let n = r.get_u32()? as usize;
        if n == 0 || n > BATCH_DECODE_CAP {
            return Err(DecodeError::new("batch size"));
        }
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            updates.push(SignedUpdate::decode(r)?);
        }
        let sig: [u8; 16] = r
            .get_raw(16)?
            .try_into()
            .map_err(|_| DecodeError::new("sig"))?;
        Ok(PoBatch {
            origin,
            first_po_seq,
            updates,
            root_sig: Signature::from_bytes(&sig),
        })
    }
}

/// The Prime protocol message set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PrimeMsg {
    /// Pre-ordering: replica `origin` disseminates a client update under
    /// its local sequence `po_seq` (1-based).
    PoRequest {
        /// Disseminating replica.
        origin: ReplicaId,
        /// Its local sequence for this update.
        po_seq: u64,
        /// The client update.
        update: SignedUpdate,
    },
    /// Pre-ordering: signed cumulative-ack vector.
    PoAru {
        /// The signed row (reused as matrix row in pre-prepares).
        row: AruRow,
    },
    /// Ordering: the leader's proposal for global sequence `seq`.
    PrePrepare {
        /// View this proposal belongs to.
        view: u64,
        /// Global ordering sequence (1-based, contiguous per view era).
        seq: u64,
        /// Matrix of signed PO-ARU rows.
        matrix: Vec<AruRow>,
    },
    /// Ordering: endorsement of a pre-prepare.
    Prepare {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Digest of the pre-prepare matrix.
        digest: Digest,
    },
    /// Ordering: commit vote after a prepare certificate.
    Commit {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Digest of the pre-prepare matrix.
        digest: Digest,
    },
    /// Reconciliation: ask for a missing covered PO-Request.
    PoFetch {
        /// Origin replica of the wanted request.
        origin: ReplicaId,
        /// Its sequence.
        po_seq: u64,
    },
    /// Reconciliation: supply a PO-Request. Carries the *original signed
    /// envelope* from the origin so a relaying replica cannot forge the
    /// (origin, sequence) → update binding.
    PoData {
        /// Wire bytes of the origin's original `SignedMsg(PoRequest)`.
        original: Vec<u8>,
    },
    /// Leader suspicion for the given view (TAT bound exceeded).
    SuspectLeader {
        /// The suspected view.
        view: u64,
    },
    /// View change vote. Carries the replica's prepared-but-uncommitted
    /// proposal (if any) so the new leader can re-propose the *same*
    /// matrix, preserving per-sequence agreement across views.
    ViewChange {
        /// The view being moved to.
        new_view: u64,
        /// Highest global sequence this replica has committed.
        max_committed: u64,
        /// Sequence of the prepared-but-uncommitted proposal (0 = none).
        prepared_seq: u64,
        /// View in which that proposal was prepared.
        prepared_view: u64,
        /// The prepared matrix (empty when `prepared_seq` is 0).
        prepared_matrix: Vec<AruRow>,
    },
    /// New leader's installation message.
    NewView {
        /// The installed view.
        view: u64,
        /// First sequence the new leader will propose.
        start_seq: u64,
    },
    /// Periodic application checkpoint.
    Checkpoint {
        /// Number of updates executed.
        exec_seq: u64,
        /// Application state digest at that point.
        app_digest: Digest,
    },
    /// Catch-up: ask peers for current state (after recovery/partition).
    CatchupRequest {
        /// The requester's executed count.
        have_exec_seq: u64,
    },
    /// Catch-up: a peer's state offer. Carries the *application-level*
    /// snapshot — the §III-A signaling between replication and SCADA app.
    CatchupReply {
        /// Executed update count at the snapshot.
        exec_seq: u64,
        /// Application digest at the snapshot.
        app_digest: Digest,
        /// Serialized application snapshot.
        snapshot: Vec<u8>,
        /// Ordering sequence to resume from.
        next_order_seq: u64,
        /// Cumulative execution-coverage vector at the snapshot.
        exec_cover: Vec<u64>,
        /// View at the snapshot.
        view: u64,
    },
    /// Companion to [`PrimeMsg::CatchupReply`], sent immediately before
    /// it when [`crate::types::Config::transfer_dedup`] is armed: the
    /// sender's client duplicate-suppression table at the snapshot, one
    /// `(client, contiguous_through, extras)` entry per client — the
    /// executed client-seq set is `1..=contiguous_through` plus the
    /// sparse `extras`. Without this, a recovered replica executes
    /// duplicate orderings its peers suppressed and its execution
    /// numbering (and app digest) silently forks from the quorum's. A
    /// separate message (rather than a `CatchupReply` field) keeps the
    /// legacy catch-up wire format byte-identical when the flag is off.
    CatchupDedup {
        /// Executed update count of the reply this table accompanies.
        exec_seq: u64,
        /// The dedup table.
        dedup: Vec<(u32, u64, Vec<u64>)>,
    },
    /// Pre-ordering: a Merkle-batched run of client updates occupying
    /// consecutive pre-order slots of `batch.origin`. Only sent when
    /// [`crate::types::Config::batch_max`] is armed; the legacy wire
    /// format (per-update [`PrimeMsg::PoRequest`]) is untouched when off.
    PoRequestBatch {
        /// The batch.
        batch: PoBatch,
    },
    /// Reconciliation: a single member of a disseminated batch, served in
    /// answer to [`PrimeMsg::PoFetch`] with a Merkle inclusion proof.
    /// The receiver folds `(first_po_seq + index, update)` up `path`,
    /// and checks `root_sig` over the folded root: the origin's batch
    /// signature authenticates the member without shipping the batch.
    PoBatchMember {
        /// The batch's origin.
        origin: ReplicaId,
        /// Composite sequence of the batch's first member.
        first_po_seq: u64,
        /// Batch size (binds the signed root coordinates).
        count: u32,
        /// This member's index within the batch.
        index: u32,
        /// The member update.
        update: SignedUpdate,
        /// Inclusion-proof path, `(sibling, sibling_is_left)` bottom-up.
        path: Vec<(Digest, bool)>,
        /// The origin's signature over the batch root coordinates.
        root_sig: Signature,
    },
    /// Windowed view-change vote, sent instead of [`PrimeMsg::ViewChange`]
    /// when [`crate::types::Config::pipeline`] exceeds 1: with several
    /// sequences in flight, a replica can hold multiple prepared-but-
    /// uncommitted certificates, and every one above the committed
    /// watermark must survive into the new view.
    ViewChangeWindow {
        /// The view being moved to.
        new_view: u64,
        /// Highest global sequence this replica has committed.
        max_committed: u64,
        /// `(seq, prepared_view, matrix)` per surviving certificate,
        /// ascending by sequence.
        certs: Vec<(u64, u64, Vec<AruRow>)>,
    },
    /// Catch-up: one chunk of a large application snapshot, sent ahead of
    /// a [`PrimeMsg::CatchupReply`] whose `snapshot` field is then empty
    /// (see [`crate::types::Config::transfer_chunk`]). The receiver
    /// reassembles chunks per `(sender, exec_seq)` and splices the
    /// snapshot back into the reply before the usual f+1 matching rule.
    CatchupChunk {
        /// Executed update count of the snapshot being chunked.
        exec_seq: u64,
        /// This chunk's index.
        index: u32,
        /// Total chunks in the snapshot.
        count: u32,
        /// The chunk bytes.
        data: Vec<u8>,
    },
}

impl PrimeMsg {
    /// The profiler phase stack this message belongs to, in folded-stack
    /// form (`subsystem;phase;kind`). The middle segment is the paper's
    /// protocol-phase taxonomy — pre-ordering, ordering, and the
    /// checkpoint/catch-up machinery — so `obs::prof` attribution tables
    /// aggregate cleanly per phase.
    pub fn prof_stack(&self) -> &'static str {
        match self {
            PrimeMsg::PoRequest { .. } => "prime;preorder;po_request",
            PrimeMsg::PoAru { .. } => "prime;preorder;po_aru",
            PrimeMsg::PoFetch { .. } => "prime;preorder;po_fetch",
            PrimeMsg::PoData { .. } => "prime;preorder;po_data",
            PrimeMsg::PrePrepare { .. } => "prime;order;pre_prepare",
            PrimeMsg::Prepare { .. } => "prime;order;prepare",
            PrimeMsg::Commit { .. } => "prime;order;commit",
            PrimeMsg::SuspectLeader { .. } => "prime;order;suspect",
            PrimeMsg::ViewChange { .. } => "prime;order;view_change",
            PrimeMsg::NewView { .. } => "prime;order;new_view",
            PrimeMsg::Checkpoint { .. } => "prime;catchup;checkpoint",
            PrimeMsg::CatchupRequest { .. } => "prime;catchup;request",
            PrimeMsg::CatchupReply { .. } => "prime;catchup;reply",
            PrimeMsg::CatchupDedup { .. } => "prime;catchup;dedup",
            PrimeMsg::PoRequestBatch { .. } => "prime;preorder;batch_request",
            PrimeMsg::PoBatchMember { .. } => "prime;preorder;batch_member",
            PrimeMsg::ViewChangeWindow { .. } => "prime;order;view_change",
            PrimeMsg::CatchupChunk { .. } => "prime;catchup;chunk",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            PrimeMsg::PoRequest { .. } => 0,
            PrimeMsg::PoAru { .. } => 1,
            PrimeMsg::PrePrepare { .. } => 2,
            PrimeMsg::Prepare { .. } => 3,
            PrimeMsg::Commit { .. } => 4,
            PrimeMsg::PoFetch { .. } => 5,
            PrimeMsg::PoData { .. } => 6,
            PrimeMsg::SuspectLeader { .. } => 7,
            PrimeMsg::ViewChange { .. } => 8,
            PrimeMsg::NewView { .. } => 9,
            PrimeMsg::Checkpoint { .. } => 10,
            PrimeMsg::CatchupRequest { .. } => 11,
            PrimeMsg::CatchupReply { .. } => 12,
            PrimeMsg::CatchupDedup { .. } => 13,
            PrimeMsg::PoRequestBatch { .. } => 14,
            PrimeMsg::PoBatchMember { .. } => 15,
            PrimeMsg::ViewChangeWindow { .. } => 16,
            PrimeMsg::CatchupChunk { .. } => 17,
        }
    }
}

fn put_u64_vec(w: &mut Writer, v: &[u64]) {
    w.put_u32(v.len() as u32);
    for x in v {
        w.put_u64(*x);
    }
}

fn get_u64_vec(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.get_u32()? as usize;
    if n > 4096 {
        return Err(DecodeError::new("u64 vec length"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_u64()?);
    }
    Ok(out)
}

impl Wire for PrimeMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tag());
        match self {
            PrimeMsg::PoRequest {
                origin,
                po_seq,
                update,
            } => {
                w.put_u32(origin.0).put_u64(*po_seq);
                update.encode(w);
            }
            PrimeMsg::PoAru { row } => row.encode(w),
            PrimeMsg::PrePrepare { view, seq, matrix } => {
                w.put_u64(*view).put_u64(*seq).put_u32(matrix.len() as u32);
                for row in matrix {
                    row.encode(w);
                }
            }
            PrimeMsg::Prepare { view, seq, digest } | PrimeMsg::Commit { view, seq, digest } => {
                w.put_u64(*view).put_u64(*seq).put_raw(digest.as_bytes());
            }
            PrimeMsg::PoFetch { origin, po_seq } => {
                w.put_u32(origin.0).put_u64(*po_seq);
            }
            PrimeMsg::PoData { original } => {
                w.put_bytes(original);
            }
            PrimeMsg::SuspectLeader { view } => {
                w.put_u64(*view);
            }
            PrimeMsg::ViewChange {
                new_view,
                max_committed,
                prepared_seq,
                prepared_view,
                prepared_matrix,
            } => {
                w.put_u64(*new_view)
                    .put_u64(*max_committed)
                    .put_u64(*prepared_seq)
                    .put_u64(*prepared_view);
                w.put_u32(prepared_matrix.len() as u32);
                for row in prepared_matrix {
                    row.encode(w);
                }
            }
            PrimeMsg::NewView { view, start_seq } => {
                w.put_u64(*view).put_u64(*start_seq);
            }
            PrimeMsg::Checkpoint {
                exec_seq,
                app_digest,
            } => {
                w.put_u64(*exec_seq).put_raw(app_digest.as_bytes());
            }
            PrimeMsg::CatchupRequest { have_exec_seq } => {
                w.put_u64(*have_exec_seq);
            }
            PrimeMsg::CatchupReply {
                exec_seq,
                app_digest,
                snapshot,
                next_order_seq,
                exec_cover,
                view,
            } => {
                w.put_u64(*exec_seq)
                    .put_raw(app_digest.as_bytes())
                    .put_bytes(snapshot);
                w.put_u64(*next_order_seq);
                put_u64_vec(w, exec_cover);
                w.put_u64(*view);
            }
            PrimeMsg::CatchupDedup { exec_seq, dedup } => {
                w.put_u64(*exec_seq);
                w.put_u32(dedup.len() as u32);
                for (client, through, extras) in dedup {
                    w.put_u32(*client);
                    w.put_u64(*through);
                    put_u64_vec(w, extras);
                }
            }
            PrimeMsg::PoRequestBatch { batch } => batch.encode(w),
            PrimeMsg::PoBatchMember {
                origin,
                first_po_seq,
                count,
                index,
                update,
                path,
                root_sig,
            } => {
                w.put_u32(origin.0)
                    .put_u64(*first_po_seq)
                    .put_u32(*count)
                    .put_u32(*index);
                update.encode(w);
                w.put_u32(path.len() as u32);
                for (sibling, is_left) in path {
                    w.put_raw(sibling.as_bytes()).put_u8(u8::from(*is_left));
                }
                w.put_raw(&root_sig.to_bytes());
            }
            PrimeMsg::ViewChangeWindow {
                new_view,
                max_committed,
                certs,
            } => {
                w.put_u64(*new_view)
                    .put_u64(*max_committed)
                    .put_u32(certs.len() as u32);
                for (seq, prepared_view, matrix) in certs {
                    w.put_u64(*seq)
                        .put_u64(*prepared_view)
                        .put_u32(matrix.len() as u32);
                    for row in matrix {
                        row.encode(w);
                    }
                }
            }
            PrimeMsg::CatchupChunk {
                exec_seq,
                index,
                count,
                data,
            } => {
                w.put_u64(*exec_seq).put_u32(*index).put_u32(*count);
                w.put_bytes(data);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.get_u8()?;
        let digest = |r: &mut Reader<'_>| -> Result<Digest, DecodeError> {
            let raw: [u8; 32] = r
                .get_raw(32)?
                .try_into()
                .map_err(|_| DecodeError::new("digest"))?;
            Ok(Digest(raw))
        };
        Ok(match tag {
            0 => PrimeMsg::PoRequest {
                origin: ReplicaId(r.get_u32()?),
                po_seq: r.get_u64()?,
                update: SignedUpdate::decode(r)?,
            },
            1 => PrimeMsg::PoAru {
                row: AruRow::decode(r)?,
            },
            2 => {
                let view = r.get_u64()?;
                let seq = r.get_u64()?;
                let n = r.get_u32()? as usize;
                if n > 1024 {
                    return Err(DecodeError::new("matrix size"));
                }
                let mut matrix = Vec::with_capacity(n);
                for _ in 0..n {
                    matrix.push(AruRow::decode(r)?);
                }
                PrimeMsg::PrePrepare { view, seq, matrix }
            }
            3 => PrimeMsg::Prepare {
                view: r.get_u64()?,
                seq: r.get_u64()?,
                digest: digest(r)?,
            },
            4 => PrimeMsg::Commit {
                view: r.get_u64()?,
                seq: r.get_u64()?,
                digest: digest(r)?,
            },
            5 => PrimeMsg::PoFetch {
                origin: ReplicaId(r.get_u32()?),
                po_seq: r.get_u64()?,
            },
            6 => PrimeMsg::PoData {
                original: r.get_bytes()?,
            },
            7 => PrimeMsg::SuspectLeader { view: r.get_u64()? },
            8 => {
                let new_view = r.get_u64()?;
                let max_committed = r.get_u64()?;
                let prepared_seq = r.get_u64()?;
                let prepared_view = r.get_u64()?;
                let n = r.get_u32()? as usize;
                if n > 1024 {
                    return Err(DecodeError::new("vc matrix size"));
                }
                let mut prepared_matrix = Vec::with_capacity(n);
                for _ in 0..n {
                    prepared_matrix.push(AruRow::decode(r)?);
                }
                PrimeMsg::ViewChange {
                    new_view,
                    max_committed,
                    prepared_seq,
                    prepared_view,
                    prepared_matrix,
                }
            }
            9 => PrimeMsg::NewView {
                view: r.get_u64()?,
                start_seq: r.get_u64()?,
            },
            10 => PrimeMsg::Checkpoint {
                exec_seq: r.get_u64()?,
                app_digest: digest(r)?,
            },
            11 => PrimeMsg::CatchupRequest {
                have_exec_seq: r.get_u64()?,
            },
            12 => PrimeMsg::CatchupReply {
                exec_seq: r.get_u64()?,
                app_digest: digest(r)?,
                snapshot: r.get_bytes()?,
                next_order_seq: r.get_u64()?,
                exec_cover: get_u64_vec(r)?,
                view: r.get_u64()?,
            },
            13 => PrimeMsg::CatchupDedup {
                exec_seq: r.get_u64()?,
                dedup: {
                    let n = r.get_u32()? as usize;
                    if n > 4096 {
                        return Err(DecodeError::new("dedup table length"));
                    }
                    let mut table = Vec::with_capacity(n);
                    for _ in 0..n {
                        let client = r.get_u32()?;
                        let through = r.get_u64()?;
                        table.push((client, through, get_u64_vec(r)?));
                    }
                    table
                },
            },
            14 => PrimeMsg::PoRequestBatch {
                batch: PoBatch::decode(r)?,
            },
            15 => {
                let origin = ReplicaId(r.get_u32()?);
                let first_po_seq = r.get_u64()?;
                let count = r.get_u32()?;
                let index = r.get_u32()?;
                if count as usize > BATCH_DECODE_CAP || index >= count {
                    return Err(DecodeError::new("batch member coordinates"));
                }
                let update = SignedUpdate::decode(r)?;
                let n = r.get_u32()? as usize;
                if n > PROOF_PATH_CAP {
                    return Err(DecodeError::new("proof path length"));
                }
                let mut path = Vec::with_capacity(n);
                for _ in 0..n {
                    let sibling = digest(r)?;
                    let is_left = r.get_u8()? != 0;
                    path.push((sibling, is_left));
                }
                let sig: [u8; 16] = r
                    .get_raw(16)?
                    .try_into()
                    .map_err(|_| DecodeError::new("sig"))?;
                PrimeMsg::PoBatchMember {
                    origin,
                    first_po_seq,
                    count,
                    index,
                    update,
                    path,
                    root_sig: Signature::from_bytes(&sig),
                }
            }
            16 => {
                let new_view = r.get_u64()?;
                let max_committed = r.get_u64()?;
                let n = r.get_u32()? as usize;
                if n > 1024 {
                    return Err(DecodeError::new("vc window size"));
                }
                let mut certs = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = r.get_u64()?;
                    let prepared_view = r.get_u64()?;
                    let m = r.get_u32()? as usize;
                    if m > 1024 {
                        return Err(DecodeError::new("vc matrix size"));
                    }
                    let mut matrix = Vec::with_capacity(m);
                    for _ in 0..m {
                        matrix.push(AruRow::decode(r)?);
                    }
                    certs.push((seq, prepared_view, matrix));
                }
                PrimeMsg::ViewChangeWindow {
                    new_view,
                    max_committed,
                    certs,
                }
            }
            17 => PrimeMsg::CatchupChunk {
                exec_seq: r.get_u64()?,
                index: r.get_u32()?,
                count: r.get_u32()?,
                data: r.get_bytes()?,
            },
            _ => return Err(DecodeError::new("prime message tag")),
        })
    }
}

/// A Prime message signed by its sending replica.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedMsg {
    /// The sender.
    pub from: ReplicaId,
    /// The message.
    pub msg: PrimeMsg,
    /// Signature over `from || msg` bytes.
    pub sig: Signature,
}

/// Room a [`SignedMsg`] is encoded into before it is signed or checked: a
/// six-row matrix or a batch of sixteen small updates fits without the
/// buffer growing, and the buffer does not outlive the call.
const SIGNED_MSG_HINT: usize = 1024;

impl SignedMsg {
    fn signed_bytes(from: ReplicaId, msg: &PrimeMsg) -> Vec<u8> {
        let mut w = Writer::with_capacity(SIGNED_MSG_HINT);
        w.put_raw(b"prime").put_u32(from.0);
        msg.encode(&mut w);
        w.into_vec()
    }

    /// Signs a message as `from`.
    pub fn sign(from: ReplicaId, msg: PrimeMsg, key: &mut KeyPair) -> Self {
        let sig = key.sign(&Self::signed_bytes(from, &msg));
        SignedMsg { from, msg, sig }
    }

    /// Verifies the envelope against the registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            Principal::Replica(self.from.0),
            &Self::signed_bytes(self.from, &self.msg),
            &self.sig,
        )
    }

    /// [`SignedMsg::verify`] through a verdict cache. The key commits to
    /// the full signed byte string and signature, so the cached verdict
    /// is identical to the uncached one for any input, tampered or not.
    pub fn verify_cached(&self, registry: &KeyRegistry, cache: &mut VerifyCache) -> bool {
        let bytes = Self::signed_bytes(self.from, &self.msg);
        let key = VerifyCache::key(
            b"prime.msg",
            self.from.0 as u64,
            &bytes,
            &self.sig.to_bytes(),
        );
        cache.check(key, || {
            registry.verify(Principal::Replica(self.from.0), &bytes, &self.sig)
        })
    }
}

/// A signed message bundled with its wire bytes, produced in one pass at
/// signing time ("serialize-once"). The wire encoding is recovered from
/// the signing serialization instead of encoding the message a second
/// time, and the [`Bytes`] payload is reference-counted, so broadcasting
/// to `n - 1` peers clones a pointer, not the message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The signed message, for local dispatch without re-parsing.
    pub msg: SignedMsg,
    /// Exactly the bytes `msg.to_wire()` would produce, ready to send.
    pub wire: Bytes,
}

impl Envelope {
    /// Signs `msg` as `from`, deriving the wire bytes from the signing
    /// serialization: the wire form is `from || msg || sig`, i.e. the
    /// signed bytes minus the 5-byte domain tag, plus the signature.
    pub fn sign(from: ReplicaId, msg: PrimeMsg, key: &mut KeyPair) -> Self {
        let mut wire = SignedMsg::signed_bytes(from, &msg);
        let sig = key.sign(&wire);
        wire.drain(..5);
        wire.extend_from_slice(&sig.to_bytes());
        Envelope {
            msg: SignedMsg { from, msg, sig },
            wire: Bytes::from(wire),
        }
    }
}

impl Wire for SignedMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.from.0);
        self.msg.encode(w);
        w.put_raw(&self.sig.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let from = ReplicaId(r.get_u32()?);
        let msg = PrimeMsg::decode(r)?;
        let sig: [u8; 16] = r
            .get_raw(16)?
            .try_into()
            .map_err(|_| DecodeError::new("sig"))?;
        Ok(SignedMsg {
            from,
            msg,
            sig: Signature::from_bytes(&sig),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Update;
    use bytes::Bytes;
    use itcrypto::keys::KeyPair;

    fn sample_update() -> SignedUpdate {
        let mut kp = KeyPair::generate(1);
        let update = Update::new(1, 1, Bytes::from_static(b"u"));
        let sig = kp.sign(&update.to_wire());
        SignedUpdate { update, sig }
    }

    fn roundtrip(msg: PrimeMsg) {
        let bytes = msg.to_wire();
        assert_eq!(PrimeMsg::from_wire(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn envelope_wire_matches_encode() {
        // The serialize-once wire bytes must be exactly what a separate
        // `to_wire` pass would produce, for every message shape.
        let mut kp = KeyPair::generate(9);
        let vector = vec![1, 2, 3];
        let sig = kp.sign(&AruRow::signed_bytes(ReplicaId(0), &vector));
        let row = AruRow {
            replica: ReplicaId(0),
            vector,
            sig,
        };
        let msgs = [
            PrimeMsg::PoRequest {
                origin: ReplicaId(1),
                po_seq: 5,
                update: sample_update(),
            },
            PrimeMsg::PrePrepare {
                view: 1,
                seq: 9,
                matrix: vec![row.clone(), row],
            },
            PrimeMsg::Prepare {
                view: 1,
                seq: 9,
                digest: Digest([7; 32]),
            },
            PrimeMsg::SuspectLeader { view: 4 },
        ];
        for msg in msgs {
            let env = Envelope::sign(ReplicaId(1), msg, &mut kp);
            assert_eq!(env.wire, env.msg.to_wire());
            assert_eq!(SignedMsg::from_wire(&env.wire).expect("decodes"), env.msg);
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let mut kp = KeyPair::generate(2);
        let vector = vec![3, 0, 7];
        let sig = kp.sign(&AruRow::signed_bytes(ReplicaId(2), &vector));
        let row = AruRow {
            replica: ReplicaId(2),
            vector,
            sig,
        };
        roundtrip(PrimeMsg::PoRequest {
            origin: ReplicaId(1),
            po_seq: 5,
            update: sample_update(),
        });
        roundtrip(PrimeMsg::PoAru { row: row.clone() });
        roundtrip(PrimeMsg::PrePrepare {
            view: 1,
            seq: 9,
            matrix: vec![row.clone(), row.clone()],
        });
        roundtrip(PrimeMsg::Prepare {
            view: 1,
            seq: 9,
            digest: Digest([7; 32]),
        });
        roundtrip(PrimeMsg::Commit {
            view: 1,
            seq: 9,
            digest: Digest([8; 32]),
        });
        roundtrip(PrimeMsg::PoFetch {
            origin: ReplicaId(0),
            po_seq: 3,
        });
        roundtrip(PrimeMsg::PoData {
            original: vec![1, 2, 3, 4],
        });
        roundtrip(PrimeMsg::SuspectLeader { view: 4 });
        roundtrip(PrimeMsg::ViewChange {
            new_view: 5,
            max_committed: 10,
            prepared_seq: 11,
            prepared_view: 4,
            prepared_matrix: vec![row.clone()],
        });
        roundtrip(PrimeMsg::NewView {
            view: 5,
            start_seq: 12,
        });
        roundtrip(PrimeMsg::Checkpoint {
            exec_seq: 100,
            app_digest: Digest([9; 32]),
        });
        roundtrip(PrimeMsg::CatchupRequest { have_exec_seq: 4 });
        roundtrip(PrimeMsg::CatchupReply {
            exec_seq: 100,
            app_digest: Digest([1; 32]),
            snapshot: vec![1, 2, 3],
            next_order_seq: 50,
            exec_cover: vec![9, 9, 9, 9],
            view: 2,
        });
        roundtrip(PrimeMsg::CatchupDedup {
            exec_seq: 100,
            dedup: vec![(7, 40, vec![42, 44]), (9, 0, vec![])],
        });
        roundtrip(PrimeMsg::CatchupDedup {
            exec_seq: 3,
            dedup: Vec::new(),
        });
        let batch = PoBatch::sign(
            ReplicaId(2),
            9,
            vec![sample_update(), sample_update()],
            &mut kp,
        );
        roundtrip(PrimeMsg::PoRequestBatch {
            batch: batch.clone(),
        });
        let proof = batch.tree().prove(1).expect("in range");
        roundtrip(PrimeMsg::PoBatchMember {
            origin: ReplicaId(2),
            first_po_seq: 9,
            count: 2,
            index: 1,
            update: sample_update(),
            path: proof.path,
            root_sig: batch.root_sig,
        });
        roundtrip(PrimeMsg::ViewChangeWindow {
            new_view: 6,
            max_committed: 10,
            certs: vec![(11, 4, vec![row.clone()]), (12, 5, vec![row.clone()])],
        });
        roundtrip(PrimeMsg::ViewChangeWindow {
            new_view: 6,
            max_committed: 10,
            certs: Vec::new(),
        });
        roundtrip(PrimeMsg::CatchupChunk {
            exec_seq: 100,
            index: 1,
            count: 3,
            data: vec![9, 8, 7],
        });
    }

    #[test]
    fn batch_root_signature_verifies_and_detects_member_tamper() {
        let mut kp = KeyPair::generate(5);
        let mut reg = KeyRegistry::new();
        reg.register(Principal::Replica(1), kp.public_key());
        let mut cache = VerifyCache::new(64);
        let batch = PoBatch::sign(
            ReplicaId(1),
            4,
            vec![sample_update(), sample_update(), sample_update()],
            &mut kp,
        );
        assert!(batch.verify_cached(&reg, &mut cache));
        // Second verification is a cache hit on the root key.
        let hits = cache.hits;
        assert!(batch.verify_cached(&reg, &mut cache));
        assert!(cache.hits > hits);
        // A tampered member changes the recomputed root: different cache
        // key, fresh verification, rejection — cached == uncached.
        let mut bad = batch.clone();
        bad.updates[1].update.client_seq += 1;
        assert!(!bad.verify_cached(&reg, &mut cache));
        assert!(!bad.verify_cached(&reg, &mut cache));
        // An empty batch is rejected outright.
        let mut empty = batch.clone();
        empty.updates.clear();
        assert!(!empty.verify_cached(&reg, &mut cache));
    }

    /// The root a batch is signed under is the root its inclusion proofs
    /// fold to, whatever the member count leaves on the right edge; the
    /// members differ in size and in every field a leaf binds.
    #[test]
    fn folded_root_equals_the_tree_root_for_every_batch_size() {
        let mut kp = KeyPair::generate(1);
        let updates: Vec<SignedUpdate> = (0..33u64)
            .map(|i| {
                let payload = vec![i as u8; (i as usize * 7) % 80];
                let update = Update::new(i as u32 % 3, i + 1, Bytes::from(payload));
                let sig = kp.sign(&update.to_wire());
                SignedUpdate { update, sig }
            })
            .collect();
        for n in 1..=updates.len() {
            let batch = PoBatch::sign(ReplicaId(2), 1 + n as u64, updates[..n].to_vec(), &mut kp);
            assert_eq!(batch.root(), batch.tree().root(), "{n} members");
            assert_eq!(
                updates[n - 1].wire_len(),
                updates[n - 1].to_wire().len(),
                "the capacity hint is the encoded length"
            );
        }
    }

    #[test]
    fn batch_member_proof_folds_to_signed_root() {
        let mut kp = KeyPair::generate(6);
        let mut reg = KeyRegistry::new();
        reg.register(Principal::Replica(0), kp.public_key());
        let mut cache = VerifyCache::new(64);
        let updates = vec![sample_update(), sample_update(), sample_update()];
        let batch = PoBatch::sign(ReplicaId(0), 7, updates.clone(), &mut kp);
        let tree = batch.tree();
        for (i, u) in updates.iter().enumerate() {
            let proof = tree.prove(i).expect("in range");
            let folded = proof.fold_root(&PoBatch::leaf_bytes(7 + i as u64, u));
            assert!(PoBatch::verify_root_cached(
                &reg,
                &mut cache,
                ReplicaId(0),
                7,
                updates.len() as u32,
                folded,
                &batch.root_sig,
            ));
        }
        // Folding with the wrong sequence (a replayed index) yields a
        // different root, so the signature check fails.
        let proof = tree.prove(0).expect("in range");
        let folded = proof.fold_root(&PoBatch::leaf_bytes(8, &updates[0]));
        assert!(!PoBatch::verify_root_cached(
            &reg,
            &mut cache,
            ReplicaId(0),
            7,
            updates.len() as u32,
            folded,
            &batch.root_sig,
        ));
    }

    #[test]
    fn signed_envelope_verifies_and_detects_tamper() {
        let mut kp = KeyPair::generate(3);
        let mut reg = KeyRegistry::new();
        reg.register(Principal::Replica(3), kp.public_key());
        let msg = PrimeMsg::SuspectLeader { view: 2 };
        let signed = SignedMsg::sign(ReplicaId(3), msg, &mut kp);
        assert!(signed.verify(&reg));
        // Claiming a different sender fails.
        let mut forged = signed.clone();
        forged.from = ReplicaId(1);
        reg.register(Principal::Replica(1), KeyPair::generate(9).public_key());
        assert!(!forged.verify(&reg));
        // Tampering with the message fails.
        let mut tampered = signed.clone();
        tampered.msg = PrimeMsg::SuspectLeader { view: 3 };
        assert!(!tampered.verify(&reg));
        // Wire roundtrip preserves verification.
        let rt = SignedMsg::from_wire(&signed.to_wire()).expect("roundtrip");
        assert!(rt.verify(&reg));
    }

    #[test]
    fn aru_row_verification() {
        let mut kp = KeyPair::generate(4);
        let mut reg = KeyRegistry::new();
        reg.register(Principal::Replica(0), kp.public_key());
        let vector = vec![1, 2, 3, 4];
        let sig = kp.sign(&AruRow::signed_bytes(ReplicaId(0), &vector));
        let row = AruRow {
            replica: ReplicaId(0),
            vector,
            sig,
        };
        assert!(row.verify(&reg));
        let mut bad = row.clone();
        bad.vector[0] = 99;
        assert!(!bad.verify(&reg));
    }

    #[test]
    fn malformed_rejected() {
        assert!(PrimeMsg::from_wire(&[]).is_err());
        assert!(PrimeMsg::from_wire(&[99]).is_err());
        let msg = PrimeMsg::SuspectLeader { view: 1 };
        let bytes = msg.to_wire();
        assert!(PrimeMsg::from_wire(&bytes[..bytes.len() - 1]).is_err());
    }
}
