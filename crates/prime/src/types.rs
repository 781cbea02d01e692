//! Core types: replica identifiers, configurations, and client updates.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use bytes::Bytes;
use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use itcrypto::schnorr::Signature;
use itcrypto::sha256::{sha256, Digest};
use simnet::hash::MixState;
use simnet::wire::{DecodeError, Reader, Wire, Writer};

use crate::messages::AruRow;
use crate::verdicts;

/// A replica index in `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub u32);

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Fault-tolerance configuration: `n = 3f + 2k + 1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Config {
    /// Maximum simultaneous intrusions tolerated.
    pub f: u32,
    /// Maximum replicas simultaneously in proactive recovery.
    pub k: u32,
    /// Read by nothing: every `CatchupReply` carries the sender's client
    /// dedup table, whatever this is. Kept only because
    /// `benchmark/src/adapter.rs` assigns it; it goes when the benchmark
    /// is next re-based (ROADMAP.md).
    pub transfer_dedup: bool,
    /// Maximum client updates packed into one `PoRequestBatch` before the
    /// batch closes and disseminates (at least 1; 1, the default, sends
    /// every update at once as a batch of one). Larger batches amortize
    /// the per-message NIC cost of pre-order dissemination — the E11
    /// saturation bottleneck — across many updates with a single
    /// Merkle-root signature.
    pub batch_max: u32,
    /// Ordering window: how many Pre-Prepare sequences the leader may
    /// keep in flight above the committed watermark (1 = one at a time,
    /// the serialized ordering). Deeper windows overlap ordering rounds
    /// with dissemination. Whatever the depth, a view-change vote carries
    /// every prepared-but-uncommitted certificate in one
    /// `ViewChangeWindow`.
    pub pipeline: u32,
}

impl Config {
    /// Creates a configuration.
    pub fn new(f: u32, k: u32) -> Self {
        Config {
            f,
            k,
            transfer_dedup: false,
            batch_max: 1,
            pipeline: 1,
        }
    }

    /// Sets the batch size to `batch_max` updates and the ordering window
    /// to `pipeline` sequences (each at least 1) on top of this
    /// configuration (builder-style).
    pub fn with_batching(mut self, batch_max: u32, pipeline: u32) -> Self {
        self.batch_max = batch_max.max(1);
        self.pipeline = pipeline.max(1);
        self
    }

    /// The red-team deployment: `f = 1, k = 0` → 4 replicas (§IV-A).
    pub fn red_team() -> Self {
        Config::new(1, 0)
    }

    /// The plant deployment: `f = 1, k = 1` → 6 replicas (§V).
    pub fn plant() -> Self {
        Config::new(1, 1)
    }

    /// Total replicas `n = 3f + 2k + 1`.
    pub fn n(&self) -> u32 {
        3 * self.f + 2 * self.k + 1
    }

    /// Quorum for prepare/commit certificates: `2f + k + 1`.
    pub fn ordering_quorum(&self) -> u32 {
        2 * self.f + self.k + 1
    }

    /// Rows of a pre-prepare matrix that must cover an update before it
    /// executes: `f + k + 1` (at least one correct, non-recovering row).
    pub fn coverage_threshold(&self) -> u32 {
        self.f + self.k + 1
    }

    /// The leader of a view.
    pub fn leader_of(&self, view: u64) -> ReplicaId {
        ReplicaId((view % self.n() as u64) as u32)
    }
}

/// The replicas a replica orders with, and their fault budget.
///
/// The static configuration is the *full* membership ([`Membership::full`]):
/// every replica, with the configuration's `f` and `k`. When a wide-area
/// deployment loses a site, the survivors may no longer hold its ordering
/// quorum `2f + k + 1`. If a majority of the original replicas survives,
/// the management plane installs a *degraded epoch*: ordering continues
/// among the listed `members` with reduced thresholds, and failback
/// restores the full membership. Degraded epochs always run with
/// `f = 0` — a membership small enough to need one cannot simultaneously
/// mask an intrusion (quorum intersection `2q > m + f` would fail), which
/// is exactly what the chaos invariant checker's beyond-budget negative
/// control demonstrates. The quorum is a simple majority `⌊m/2⌋ + 1`,
/// expressed as `k = q - 1` so the familiar `2f + k + 1` formula still
/// yields it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Membership {
    /// The member replica ids, sorted ascending.
    members: Vec<u32>,
    /// Intrusions tolerated within the epoch (always 0 for degraded epochs).
    pub f: u32,
    /// Recovery budget within the epoch.
    pub k: u32,
}

impl Membership {
    /// The static configuration as a membership: replicas `0..n`, the
    /// configuration's `f` and `k`, leaders rotating over all of them.
    pub fn full(cfg: &Config) -> Self {
        Membership {
            members: (0..cfg.n()).collect(),
            f: cfg.f,
            k: cfg.k,
        }
    }

    /// Builds a degraded epoch over `members`: `f = 0`, majority quorum.
    ///
    /// Panics if fewer than two members are given — a singleton cannot
    /// form a meaningful ordering epoch.
    pub fn degraded(mut members: Vec<u32>) -> Self {
        assert!(
            members.len() >= 2,
            "a degraded epoch needs at least two members"
        );
        members.sort_unstable();
        members.dedup();
        let quorum = members.len() as u32 / 2 + 1;
        Membership {
            members,
            f: 0,
            k: quorum - 1,
        }
    }

    /// Number of members `m`.
    pub fn len(&self) -> u32 {
        self.members.len() as u32
    }

    /// Whether the membership is empty (never true for constructed epochs).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` belongs to the epoch.
    pub fn contains(&self, id: ReplicaId) -> bool {
        self.members.binary_search(&id.0).is_ok()
    }

    /// The member ids, sorted ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Epoch ordering quorum `2f + k + 1`.
    pub fn ordering_quorum(&self) -> u32 {
        2 * self.f + self.k + 1
    }

    /// Epoch suspicion threshold `f + k + 1`.
    pub fn suspect_threshold(&self) -> u32 {
        self.f + self.k + 1
    }

    /// The epoch leader of a view: views rotate over the member list.
    pub fn leader_of(&self, view: u64) -> ReplicaId {
        ReplicaId(self.members[(view % self.members.len() as u64) as usize])
    }
}

/// A client update: the unit Prime orders and the SCADA master executes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Update {
    /// Originating client id (a proxy, HMI, or generator).
    pub client: u32,
    /// Client-local sequence number (for idempotence).
    pub client_seq: u64,
    /// Opaque application payload (a SCADA update).
    pub payload: Bytes,
}

impl Update {
    /// Creates an update.
    pub fn new(client: u32, client_seq: u64, payload: impl Into<Bytes>) -> Self {
        Update {
            client,
            client_seq,
            payload: payload.into(),
        }
    }

    /// Digest over the full update.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_wire())
    }
}

impl Wire for Update {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.client)
            .put_u64(self.client_seq)
            .put_bytes(&self.payload);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Update {
            client: r.get_u32()?,
            client_seq: r.get_u64()?,
            payload: Bytes::from(r.get_bytes()?),
        })
    }
}

/// An update signed by its originating client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedUpdate {
    /// The update.
    pub update: Update,
    /// Client signature over the update bytes.
    pub sig: Signature,
}

impl SignedUpdate {
    /// Bytes [`Wire::encode`] writes for this update.
    pub fn wire_len(&self) -> usize {
        4 + 8 + 4 + self.update.payload.len() + 16
    }

    /// Signs `update` as its client, vouched for on this thread: no
    /// replica here verifies the signature again.
    pub fn sign(update: Update, key: &mut KeyPair) -> Self {
        let sig = key.sign(&update.to_wire());
        let signed = SignedUpdate { update, sig };
        verdicts::vouch(key, &signed);
        signed
    }

    /// Verifies the client signature against the registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            Principal::Client(self.update.client),
            &self.update.to_wire(),
            &self.sig,
        )
    }
}

impl Wire for SignedUpdate {
    fn encode(&self, w: &mut Writer) {
        self.update.encode(w);
        w.put_raw(&self.sig.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let update = Update::decode(r)?;
        let sig_bytes: [u8; 16] = r
            .get_raw(16)?
            .try_into()
            .map_err(|_| DecodeError::new("signature"))?;
        Ok(SignedUpdate {
            update,
            sig: Signature::from_bytes(&sig_bytes),
        })
    }
}

/// The client updates a replica has verified, by `(client, client_seq)`.
///
/// A client sends each update to every replica, and every origin that
/// pre-orders it relays it to every replica again, so a replica meets the
/// same signed update once from the client and once per origin. Only the
/// first meeting needs a signature check: an update equal (`==`, every
/// byte of update and signature) to the one remembered under its key is
/// the update already verified. Any other update is verified, and
/// remembered only if valid, so a forgery under a remembered key is
/// checked every time it arrives.
///
/// At most `cap` updates are remembered, the oldest forgotten first; a
/// forgotten update is verified again when it next arrives. The table is
/// probed by key and never walked.
#[derive(Clone, Debug, Default)]
pub struct VerifiedUpdates {
    by_key: HashMap<(u32, u64), SignedUpdate, MixState>,
    order: VecDeque<(u32, u64)>,
    cap: usize,
}

impl VerifiedUpdates {
    /// A table remembering at most `cap` updates.
    pub fn new(cap: usize) -> Self {
        VerifiedUpdates {
            cap,
            ..Self::default()
        }
    }

    /// Whether `update` carries its client's signature: true at once for
    /// the update remembered under its key, otherwise `verify()`'s
    /// verdict, remembering `update` when that is true.
    pub fn check(&mut self, update: &SignedUpdate, verify: impl FnOnce() -> bool) -> bool {
        let key = (update.update.client, update.update.client_seq);
        if self.by_key.get(&key) == Some(update) {
            return true;
        }
        if !verify() {
            return false;
        }
        if self.by_key.insert(key, update.clone()).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                if let Some(oldest) = self.order.pop_front() {
                    self.by_key.remove(&oldest);
                }
            }
        }
        true
    }

    /// Number of updates remembered.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Forgets every update.
    pub fn clear(&mut self) {
        self.by_key.clear();
        self.order.clear();
    }
}

/// ARU rows a replica remembers per signing replica in [`VerifiedRows`].
pub(crate) const ROWS_PER_SIGNER: usize = 32;

/// The ARU rows a replica has verified: the last [`ROWS_PER_SIGNER`] of
/// each replica of the group, so `n × ROWS_PER_SIGNER` at most.
///
/// A row recurs in every pre-prepare matrix that carries it and in repeated
/// PO-ARU gossip, until its replica's vector moves on. A row equal (`==`:
/// replica, vector and signature) to one remembered is the row already
/// verified. Any other row is verified, and remembered only if valid, so a
/// forgery is checked every time it arrives.
#[derive(Debug)]
pub(crate) struct VerifiedRows {
    by_signer: Vec<VecDeque<AruRow>>,
}

impl VerifiedRows {
    /// A memo for a group of `n` replicas.
    pub(crate) fn new(n: usize) -> Self {
        VerifiedRows {
            by_signer: vec![VecDeque::new(); n],
        }
    }

    /// Whether `row` carries its replica's signature: true at once for a
    /// row remembered, otherwise `verify()`'s verdict, remembering `row`
    /// when that is true. A row naming no replica of the group is only
    /// verified.
    pub(crate) fn check(&mut self, row: &AruRow, verify: impl FnOnce() -> bool) -> bool {
        let Some(rows) = self.by_signer.get_mut(row.replica.0 as usize) else {
            return verify();
        };
        if rows.iter().rev().any(|known| known == row) {
            return true;
        }
        if !verify() {
            return false;
        }
        if rows.len() == ROWS_PER_SIGNER {
            // The oldest row's buffer takes the new one: a memo that turns
            // over every round allocates nothing.
            let mut oldest = rows.pop_front().expect("a full memo has an oldest row");
            oldest.vector.clone_from(&row.vector);
            oldest.sig = row.sig;
            rows.push_back(oldest);
        } else {
            rows.push_back(row.clone());
        }
        true
    }

    /// Forgets every row.
    pub(crate) fn clear(&mut self) {
        self.by_signer.iter_mut().for_each(VecDeque::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itcrypto::keys::KeyPair;

    #[test]
    fn replica_counts_match_paper() {
        assert_eq!(Config::red_team().n(), 4);
        assert_eq!(Config::plant().n(), 6);
        assert_eq!(Config::new(2, 0).n(), 7);
        assert_eq!(Config::new(2, 2).n(), 11);
    }

    #[test]
    fn quorum_sizes() {
        let c = Config::plant(); // f=1, k=1, n=6
        assert_eq!(c.ordering_quorum(), 4);
        assert_eq!(c.coverage_threshold(), 3);
        assert_eq!(Membership::full(&c).suspect_threshold(), 3);
        let r = Config::red_team(); // f=1, k=0, n=4
        assert_eq!(r.ordering_quorum(), 3);
        assert_eq!(r.coverage_threshold(), 2);
    }

    #[test]
    fn leader_rotates() {
        let c = Config::red_team();
        assert_eq!(c.leader_of(0), ReplicaId(0));
        assert_eq!(c.leader_of(1), ReplicaId(1));
        assert_eq!(c.leader_of(4), ReplicaId(0));
        assert_eq!(Membership::full(&c).members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn verified_rows_keep_the_last_rows_of_each_signer() {
        let mut key = KeyPair::generate(7);
        let row = |key: &mut KeyPair, replica: u32, aru: u64| AruRow {
            replica: ReplicaId(replica),
            vector: vec![aru; 2],
            sig: key.sign(&aru.to_be_bytes()),
        };
        let mut memo = VerifiedRows::new(2);
        let mut runs = 0;
        let rows: Vec<AruRow> = (0..=ROWS_PER_SIGNER as u64)
            .map(|aru| row(&mut key, 0, aru))
            .collect();
        for r in &rows {
            assert!(memo.check(r, || {
                runs += 1;
                true
            }));
        }
        let other = row(&mut key, 1, 0);
        assert!(memo.check(&other, || true));
        let held = |memo: &VerifiedRows| -> Vec<usize> {
            memo.by_signer.iter().map(VecDeque::len).collect()
        };
        assert_eq!(runs, ROWS_PER_SIGNER + 1);
        assert_eq!(held(&memo), vec![ROWS_PER_SIGNER, 1]);
        // Signer 0's oldest row alone was forgotten; signer 1's is its own.
        assert!(memo.check(&rows[1], || unreachable!("remembered")));
        assert!(memo.check(&other, || unreachable!("remembered")));
        assert!(memo.check(&rows[0], || true));
        // A rejected row is not remembered; a row naming no replica of the
        // group is verified and never remembered.
        assert!(!memo.check(&row(&mut key, 1, 9), || false));
        assert!(!memo.check(&row(&mut key, 1, 9), || false));
        let stranger = row(&mut key, 2, 0);
        assert!(memo.check(&stranger, || true));
        assert!(!memo.check(&stranger, || false));
        memo.clear();
        assert_eq!(held(&memo), vec![0, 0]);
    }

    #[test]
    fn degraded_membership_quorums() {
        // 3+3 after losing one site: three survivors, majority quorum 2.
        let m = Membership::degraded(vec![2, 0, 1]);
        assert_eq!(m.members(), &[0, 1, 2]);
        assert_eq!((m.f, m.k), (0, 1));
        assert_eq!(m.ordering_quorum(), 2);
        assert_eq!(m.suspect_threshold(), 2);
        // Quorum intersection safety: 2q > m + f.
        assert!(2 * m.ordering_quorum() > m.len() + m.f);
        // Four survivors: majority quorum 3 — still safe.
        let m4 = Membership::degraded(vec![0, 1, 2, 3]);
        assert_eq!(m4.ordering_quorum(), 3);
        assert!(2 * m4.ordering_quorum() > m4.len() + m4.f);
    }

    #[test]
    fn degraded_membership_leader_rotates_over_members() {
        let m = Membership::degraded(vec![0, 1, 2]);
        assert_eq!(m.leader_of(0), ReplicaId(0));
        assert_eq!(m.leader_of(4), ReplicaId(1));
        // A gap-y membership still rotates over its own list.
        let m = Membership::degraded(vec![0, 4, 5]);
        assert_eq!(m.leader_of(1), ReplicaId(4));
        assert_eq!(m.leader_of(2), ReplicaId(5));
        assert!(m.contains(ReplicaId(4)));
        assert!(!m.contains(ReplicaId(3)));
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn degraded_membership_rejects_singleton() {
        let _ = Membership::degraded(vec![3]);
    }

    #[test]
    fn update_wire_roundtrip_and_digest() {
        let u = Update::new(3, 99, Bytes::from_static(b"open B57"));
        let rt = Update::from_wire(&u.to_wire()).expect("roundtrip");
        assert_eq!(rt, u);
        assert_eq!(rt.digest(), u.digest());
        let u2 = Update::new(3, 100, Bytes::from_static(b"open B57"));
        assert_ne!(u.digest(), u2.digest());
    }

    #[test]
    fn signed_update_verify() {
        let mut kp = KeyPair::generate(77);
        let mut reg = KeyRegistry::new();
        reg.register(Principal::Client(5), kp.public_key());
        let update = Update::new(5, 1, Bytes::from_static(b"x"));
        let sig = kp.sign(&update.to_wire());
        let su = SignedUpdate { update, sig };
        assert!(su.verify(&reg));
        // Tampered payload fails.
        let mut bad = su.clone();
        bad.update.payload = Bytes::from_static(b"y");
        assert!(!bad.verify(&reg));
        // Unknown client fails.
        let mut unknown = su.clone();
        unknown.update.client = 6;
        assert!(!unknown.verify(&reg));
        // Wire roundtrip preserves the signature.
        let rt = SignedUpdate::from_wire(&su.to_wire()).expect("roundtrip");
        assert!(rt.verify(&reg));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ReplicaId(3).to_string(), "r3");
        assert_eq!(format!("{:?}", ReplicaId(3)), "r3");
    }
}
