//! Core types: replica identifiers, configurations, and client updates.

use std::fmt;

use bytes::Bytes;
use itcrypto::keys::{KeyRegistry, Principal};
use itcrypto::schnorr::Signature;
use itcrypto::sha256::{sha256, Digest};
use simnet::wire::{DecodeError, Reader, Wire, Writer};

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
    /// When set, catch-up replies carry the sender's client dedup table
    /// so a recovering replica suppresses the same duplicate orderings
    /// its peers already executed. Without it, a recovered replica's
    /// execution numbering (and application digest) can permanently fork
    /// from the veterans' under duplicate introduction — a divergence the
    /// chaos invariant checker surfaced (see DESIGN.md, "Resilience &
    /// chaos"). Off by default to keep the legacy experiments' catch-up
    /// wire format (and their pinned digests) stable; chaos deployments
    /// arm it.
    pub transfer_dedup: bool,
    /// Maximum client updates packed into one `PoRequestBatch` before the
    /// batch closes and disseminates (0 = batching off: every update goes
    /// out as a legacy per-update `PoRequest`, byte-identical to the
    /// pre-batching wire format). Batching amortizes the per-message NIC
    /// cost of pre-order dissemination — the E11 saturation bottleneck —
    /// across many updates with a single Merkle-root signature.
    pub batch_max: u32,
    /// Ordering pipeline depth: how many Pre-Prepare sequences the leader
    /// may keep in flight at once (1 = the legacy serialized ordering,
    /// byte-identical wire behavior). Depths above 1 overlap ordering
    /// rounds with dissemination and switch view-change votes to the
    /// windowed `ViewChangeWindow` certificate carrier.
    pub pipeline: u32,
    /// Catch-up snapshot chunk size in bytes (0 = off: snapshots travel
    /// whole inside `CatchupReply`, the legacy wire format). When armed,
    /// snapshots larger than this split into `CatchupChunk` messages so a
    /// large state transfer does not occupy the sender's NIC lane in one
    /// long burst.
    pub transfer_chunk: u32,
}

impl Config {
    /// Creates a configuration.
    pub fn new(f: u32, k: u32) -> Self {
        Config {
            f,
            k,
            transfer_dedup: false,
            batch_max: 0,
            pipeline: 1,
            transfer_chunk: 0,
        }
    }

    /// Arms Merkle-batched pre-order dissemination and pipelined
    /// sequencing on top of this configuration (builder-style).
    pub fn with_batching(mut self, batch_max: u32, pipeline: u32) -> Self {
        self.batch_max = batch_max;
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

    /// Suspicions needed to depose a leader: `f + k + 1`.
    pub fn suspect_threshold(&self) -> u32 {
        self.f + self.k + 1
    }

    /// The leader of a view.
    pub fn leader_of(&self, view: u64) -> ReplicaId {
        ReplicaId((view % self.n() as u64) as u32)
    }

    /// All replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n()).map(ReplicaId)
    }
}

/// A restricted membership epoch installed after losing an entire site.
///
/// When a wide-area deployment loses a site, the survivors may no longer
/// hold the static ordering quorum `2f + k + 1` of the full configuration.
/// If a majority of the original replicas survives, the management plane
/// installs a *degraded epoch*: ordering continues among the listed
/// `members` with reduced thresholds. Degraded epochs always run with
/// `f = 0` — a membership small enough to need one cannot simultaneously
/// mask an intrusion (quorum intersection `2q > m + f` would fail), which
/// is exactly what the chaos invariant checker's beyond-budget negative
/// control demonstrates. The quorum is a simple majority `⌊m/2⌋ + 1`,
/// expressed as `k = q - 1` so the familiar `2f + k + 1` formula still
/// yields it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Membership {
    /// The surviving replica ids, sorted ascending.
    members: Vec<u32>,
    /// Intrusions tolerated within the epoch (always 0 for degraded epochs).
    pub f: u32,
    /// Recovery budget within the epoch.
    pub k: u32,
}

impl Membership {
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

    /// Verifies the client signature against the registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            Principal::Client(self.update.client),
            &self.update.to_wire(),
            &self.sig,
        )
    }

    /// [`SignedUpdate::verify`] through a verdict cache: the same client
    /// signature is checked on submission and again inside every
    /// PO-Request that relays the update.
    pub fn verify_cached(
        &self,
        registry: &KeyRegistry,
        cache: &mut itcrypto::verify_cache::VerifyCache,
    ) -> bool {
        // Encoded once, for the cache key and for the verifier.
        let mut w = Writer::with_capacity(self.wire_len());
        self.update.encode(&mut w);
        let bytes = w.as_slice();
        let key = itcrypto::verify_cache::VerifyCache::key(
            b"prime.update",
            self.update.client as u64,
            bytes,
            &self.sig.to_bytes(),
        );
        cache.check(key, || {
            registry.verify(Principal::Client(self.update.client), bytes, &self.sig)
        })
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
        assert_eq!(c.suspect_threshold(), 3);
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
        assert_eq!(c.replicas().count(), 4);
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
