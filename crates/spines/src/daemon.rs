//! The Spines daemon: link crypto, flooding, deduplication, delivery.
//!
//! Each Spire host embeds one daemon per overlay it participates in. The
//! daemon is transport-agnostic: the owner feeds it received wire bytes
//! ([`SpinesDaemon::on_wire`]) and transmits whatever `(addr, bytes)`
//! pairs the daemon returns. This keeps the daemon synchronous and
//! deterministic while the hosting [`simnet::Process`] does the I/O.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use bytes::{BufMut, Bytes};
use itcrypto::stream::{LinkKeys, KEYSTREAM_BLOCK};
use simnet::types::IpAddr;
use simnet::wire::{DecodeError, Reader, Wire};

use crate::config::{SpinesConfig, SpinesMode};
use crate::fairness::FairQueue;
use crate::message::{Destination, MsgKind, SpinesMsg};

/// Maximum remembered (src, seq) pairs for flood deduplication.
const SEEN_CAP: usize = 100_000;
/// Forwarding budget drained per received frame.
const FORWARD_BUDGET: usize = 4;
/// Per-source forward queue cap (flooders drop their own excess).
const PER_SOURCE_CAP: usize = 64;

/// A message delivered to the local application.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Originating daemon.
    pub src: u32,
    /// The destination it was sent to.
    pub dst: Destination,
    /// Application payload.
    pub payload: Bytes,
}

/// Counters exposed for experiments and the MANA board.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Messages this daemon originated.
    pub originated: u64,
    /// Messages forwarded to neighbors.
    pub forwarded: u64,
    /// Messages delivered to the local application.
    pub delivered: u64,
    /// Frames rejected for failed authentication/decryption.
    pub auth_failures: u64,
    /// Frames rejected as duplicates.
    pub duplicates: u64,
    /// Legacy diagnostic messages ignored in intrusion-tolerant mode.
    pub legacy_diag_ignored: u64,
    /// Malformed frames.
    pub malformed: u64,
}

/// Cached registry counter handles mirroring [`DaemonStats`], plus the
/// seal/open tallies that only exist in the registry. Re-registered under
/// a deployment scope by [`SpinesDaemon::attach_obs`].
struct DaemonObs {
    originated: obs::Counter,
    forwarded: obs::Counter,
    delivered: obs::Counter,
    auth_failures: obs::Counter,
    duplicates: obs::Counter,
    legacy_diag_ignored: obs::Counter,
    malformed: obs::Counter,
    sealed: obs::Counter,
    opened: obs::Counter,
}

impl DaemonObs {
    fn from_hub(hub: &obs::ObsHub, scope: &str) -> Self {
        let c = |metric: &str| hub.counter(&format!("{scope}.{metric}"));
        DaemonObs {
            originated: c("originated"),
            forwarded: c("forwarded"),
            delivered: c("delivered"),
            auth_failures: c("auth_failures"),
            duplicates: c("duplicates"),
            legacy_diag_ignored: c("legacy_diag_ignored"),
            malformed: c("malformed"),
            sealed: c("sealed"),
            opened: c("opened"),
        }
    }
}

/// Length of the authentication tag closing a sealed frame.
const TAG_LEN: usize = 32;
/// Bytes of a sealed frame before its ciphertext: mode tag, nonce, length.
const SEALED_HEADER: usize = 1 + 8 + 4;

/// Wire envelope, parsed in place: mode tag + either plaintext (legacy)
/// or `nonce ‖ length-prefixed ciphertext ‖ tag`.
enum LinkFrame<'a> {
    Legacy(&'a [u8]),
    Sealed {
        nonce: u64,
        ciphertext: &'a [u8],
        tag: &'a [u8; TAG_LEN],
    },
}

impl<'a> LinkFrame<'a> {
    /// Strict parse of a whole datagram; borrows, never allocates.
    fn parse(data: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(data);
        let frame = match r.get_u8()? {
            0 => {
                let len = r.get_u32()? as usize;
                LinkFrame::Legacy(r.get_raw(len)?)
            }
            1 => {
                let nonce = r.get_u64()?;
                let len = r.get_u32()? as usize;
                let ciphertext = r.get_raw(len)?;
                let tag = r
                    .get_raw(TAG_LEN)?
                    .try_into()
                    .map_err(|_| DecodeError::new("tag"))?;
                LinkFrame::Sealed {
                    nonce,
                    ciphertext,
                    tag,
                }
            }
            _ => return Err(DecodeError::new("link frame tag")),
        };
        r.expect_end()?;
        Ok(frame)
    }
}

/// One overlay neighbour: where its frames go, the last nonce used
/// toward it, and the keys of the link.
struct Link {
    neighbor: u32,
    addr: IpAddr,
    /// Outgoing nonce (never reused on a link direction, across restarts
    /// included: see [`SpinesDaemon::set_seq_base`]).
    nonce: u64,
    /// Derived by the first frame sealed or opened on the link: deriving
    /// costs four HMAC key setups.
    keys: Option<LinkKeys>,
}

impl Link {
    /// The real keys of daemon `id`'s link to this neighbour.
    fn keys(&mut self, cfg: &SpinesConfig, id: u32) -> &LinkKeys {
        self.keys
            .get_or_insert_with(|| LinkKeys::derive(&cfg.link_key(id, self.neighbor)))
    }
}

/// The hash of the daemon's two lookup tables (`seen`, `link_of`): each
/// word is folded in by a rotate and a multiplication. A fixed function of
/// the key, so a table is the same from run to run; both tables are only
/// probed by key, never walked, so their layout cannot reach an output.
#[derive(Clone, Copy, Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits, the product keeps
        // its best ones high.
        self.0 ^ (self.0 >> 32)
    }
}

type MixState = BuildHasherDefault<MixHasher>;

/// One Spines overlay daemon.
pub struct SpinesDaemon {
    cfg: SpinesConfig,
    id: u32,
    subscriptions: BTreeSet<u16>,
    next_seq: u64,
    /// The last [`SEEN_CAP`] `(src, seq)` pairs, oldest first in
    /// `seen_order`.
    seen: HashSet<(u32, u64), MixState>,
    seen_order: VecDeque<(u32, u64)>,
    /// This daemon's neighbours, in configuration order.
    links: Vec<Link>,
    /// Neighbour address → its place in `links`.
    link_of: HashMap<IpAddr, usize, MixState>,
    /// Pre-derived all-zero "keys" for the rebuilt-binary case
    /// (`has_keys == false`), lazily built.
    null_keys: Option<LinkKeys>,
    forward_queue: FairQueue<SpinesMsg>,
    deliveries: Vec<Delivery>,
    /// Whether the daemon is running (attackers stop it in E3).
    pub running: bool,
    /// Whether the daemon holds valid link keys (a rebuilt/modified binary
    /// without the deployment's keys does not).
    pub has_keys: bool,
    /// Set when a legacy-mode daemon executed an attacker diagnostic —
    /// i.e. the exploit fired.
    pub legacy_compromised: bool,
    /// Counters.
    pub stats: DaemonStats,
    /// Observability hub (detached until [`SpinesDaemon::attach_obs`]).
    obs: obs::ObsHub,
    c: DaemonObs,
}

impl SpinesDaemon {
    /// Creates daemon `id` of the overlay described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the configuration.
    pub fn new(id: u32, cfg: SpinesConfig) -> Self {
        assert!(cfg.daemons.contains_key(&id), "daemon id not in config");
        let hub = obs::ObsHub::new();
        let counters = DaemonObs::from_hub(&hub, &format!("spines.d{id}"));
        let links: Vec<Link> = cfg
            .neighbors(id)
            .into_iter()
            .filter_map(|neighbor| {
                Some(Link {
                    neighbor,
                    addr: cfg.addr_of(neighbor)?,
                    nonce: 0,
                    keys: None,
                })
            })
            .collect();
        let link_of = links.iter().enumerate().map(|(i, l)| (l.addr, i)).collect();
        SpinesDaemon {
            cfg,
            id,
            subscriptions: BTreeSet::new(),
            next_seq: 0,
            seen: HashSet::default(),
            seen_order: VecDeque::new(),
            links,
            link_of,
            null_keys: None,
            forward_queue: FairQueue::new(PER_SOURCE_CAP),
            deliveries: Vec::new(),
            running: true,
            has_keys: true,
            legacy_compromised: false,
            stats: DaemonStats::default(),
            obs: hub,
            c: counters,
        }
    }

    /// Joins the shared deployment hub, re-registering this daemon's
    /// counters as `{scope}.{metric}` and carrying over any tallies
    /// accumulated while detached.
    pub fn attach_obs(&mut self, hub: &obs::ObsHub, scope: &str) {
        let fresh = DaemonObs::from_hub(hub, scope);
        fresh.originated.add(self.c.originated.get());
        fresh.forwarded.add(self.c.forwarded.get());
        fresh.delivered.add(self.c.delivered.get());
        fresh.auth_failures.add(self.c.auth_failures.get());
        fresh.duplicates.add(self.c.duplicates.get());
        fresh
            .legacy_diag_ignored
            .add(self.c.legacy_diag_ignored.get());
        fresh.malformed.add(self.c.malformed.get());
        fresh.sealed.add(self.c.sealed.get());
        fresh.opened.add(self.c.opened.get());
        self.obs = hub.clone();
        self.c = fresh;
    }

    /// This daemon's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current forwarding fair-queue depth (summed across sources) —
    /// the per-link gauge the flight recorder's [`obs::Event::LinkHealth`]
    /// snapshots record.
    pub fn forward_depth(&self) -> usize {
        self.forward_queue.len()
    }

    /// Journals one overlay-hop forwarding span: an instant
    /// [`obs::Stage::SpinesHop`] child of `parent`, attributed to
    /// `node` (the hosting component's id). Hosts call this when a
    /// traced packet reaches their daemon's port, so each overlay hop
    /// of a traced message appears in the span tree. No-op (returning
    /// `None`) when tracing is off or the packet carried no context.
    pub fn trace_hop(&self, parent: Option<obs::TraceCtx>, node: u32) -> Option<obs::TraceCtx> {
        self.obs.instant_span(parent, obs::Stage::SpinesHop, node)
    }

    /// The overlay configuration.
    pub fn config(&self) -> &SpinesConfig {
        &self.cfg
    }

    /// Subscribes the local application to a group.
    pub fn subscribe(&mut self, group: u16) {
        self.subscriptions.insert(group);
    }

    /// Raises the originating sequence number and every link's nonce to
    /// at least `base`. A daemon restarted after proactive recovery must
    /// not reuse sequence numbers from its previous life, or peers' flood
    /// deduplication silently drops everything it sends; nor may it reuse
    /// a nonce, because its link keys are the same and a repeated nonce
    /// repeats the keystream. Hosts derive the base from the (always
    /// advancing) clock at start-up.
    pub fn set_seq_base(&mut self, base: u64) {
        self.next_seq = self.next_seq.max(base);
        for link in &mut self.links {
            link.nonce = link.nonce.max(base);
        }
    }

    /// Drains messages delivered to the local application.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Originates a message to every subscriber of `group`. Returns the
    /// wire sends `(neighbor addr, bytes)` the owner must transmit.
    pub fn multicast(&mut self, group: u16, priority: u8, payload: Bytes) -> Vec<(IpAddr, Bytes)> {
        self.originate(Destination::Group(group), priority, MsgKind::Data, payload)
    }

    /// Originates a message to one daemon.
    pub fn unicast(&mut self, dst: u32, priority: u8, payload: Bytes) -> Vec<(IpAddr, Bytes)> {
        self.originate(Destination::Daemon(dst), priority, MsgKind::Data, payload)
    }

    /// Originates a legacy diagnostic message (only an attacker does this).
    pub fn send_legacy_diag(&mut self, payload: Bytes) -> Vec<(IpAddr, Bytes)> {
        self.originate(Destination::Group(0), 0, MsgKind::LegacyDiag, payload)
    }

    fn originate(
        &mut self,
        dst: Destination,
        priority: u8,
        kind: MsgKind,
        payload: Bytes,
    ) -> Vec<(IpAddr, Bytes)> {
        if !self.running {
            return Vec::new();
        }
        let msg = SpinesMsg {
            src: self.id,
            seq: self.next_seq,
            dst,
            priority,
            kind,
            payload,
        };
        self.next_seq += 1;
        self.stats.originated += 1;
        self.c.originated.inc();
        self.remember(msg.src, msg.seq);
        // Local delivery for group messages we subscribe to.
        self.maybe_deliver(&msg);
        self.flood(&msg, None)
    }

    /// Processes received wire bytes from `from`. Returns frames to send
    /// (forwarded floods).
    pub fn on_wire(&mut self, from: IpAddr, data: &[u8]) -> Vec<(IpAddr, Bytes)> {
        if !self.running {
            return Vec::new();
        }
        let Some(&link) = self.link_of.get(&from) else {
            // Not a neighbour: outsiders can't speak overlay.
            self.stats.auth_failures += 1;
            self.c.auth_failures.inc();
            self.obs
                .journal(obs::Event::AuthFailure { daemon: self.id });
            return Vec::new();
        };
        let neighbor = self.links[link].neighbor;
        let msg = match self.open_frame(link, data) {
            Ok(m) => m,
            Err(dropped) => {
                match dropped {
                    Dropped::Auth => {
                        self.stats.auth_failures += 1;
                        self.c.auth_failures.inc();
                        self.obs
                            .journal(obs::Event::AuthFailure { daemon: self.id });
                    }
                    Dropped::Malformed => {
                        self.stats.malformed += 1;
                        self.c.malformed.inc();
                    }
                    Dropped::Duplicate => {
                        self.stats.duplicates += 1;
                        self.c.duplicates.inc();
                    }
                }
                return Vec::new();
            }
        };
        self.remember(msg.src, msg.seq);
        self.maybe_deliver(&msg);
        // Queue for fair forwarding, then drain a budget.
        let src = msg.src;
        self.forward_queue.push(src, msg);
        let drained = self.forward_queue.drain(FORWARD_BUDGET);
        let mut out = Vec::new();
        for item in drained {
            out.extend(self.flood(&item.value, Some(neighbor)));
        }
        out
    }

    /// Authenticates and decodes one frame received on `links[link]`,
    /// unless flood deduplication drops it first. Nine frames in ten on a
    /// full mesh are copies of a message already seen, so a sealed frame is
    /// opened
    /// in two steps: the MAC over the whole frame is checked, then only
    /// the first keystream block is decrypted, which holds the `(src,
    /// seq)` the `seen` set is keyed by; the rest is decrypted and
    /// decoded for a new message only. (So a key holder replaying a seen
    /// `(src, seq)` over a garbage body counts as a duplicate, not as
    /// malformed; nothing else can tell the order of the two checks.)
    fn open_frame(&mut self, link: usize, data: &[u8]) -> Result<SpinesMsg, Dropped> {
        let frame = LinkFrame::parse(data).map_err(|_| Dropped::Malformed)?;
        match (self.cfg.mode, frame) {
            (
                SpinesMode::IntrusionTolerant,
                LinkFrame::Sealed {
                    nonce,
                    ciphertext,
                    tag,
                },
            ) => {
                obs::prof::charge_crypto("spines;hop", obs::prof::CryptoOp::Hmac, 1);
                let keys = self.links[link].keys(&self.cfg, self.id);
                if !keys.verify(nonce, ciphertext, tag) {
                    return Err(Dropped::Auth);
                }
                self.c.opened.inc();
                let head_len = ciphertext.len().min(KEYSTREAM_BLOCK);
                let mut head = [0u8; KEYSTREAM_BLOCK];
                head[..head_len].copy_from_slice(&ciphertext[..head_len]);
                keys.decrypt_from(nonce, 0, &mut head[..head_len]);
                let (src, seq) = dedup_key(&head[..head_len]).ok_or(Dropped::Malformed)?;
                if self.seen.contains(&(src, seq)) {
                    return Err(Dropped::Duplicate);
                }
                let mut plaintext = Vec::with_capacity(ciphertext.len());
                plaintext.extend_from_slice(&head[..head_len]);
                plaintext.extend_from_slice(&ciphertext[head_len..]);
                keys.decrypt_from(nonce, 1, &mut plaintext[head_len..]);
                SpinesMsg::from_wire(&plaintext).map_err(|_| Dropped::Malformed)
            }
            (SpinesMode::Legacy, LinkFrame::Legacy(plaintext)) => {
                let msg = SpinesMsg::from_wire(plaintext).map_err(|_| Dropped::Malformed)?;
                if self.seen.contains(&(msg.src, msg.seq)) {
                    return Err(Dropped::Duplicate);
                }
                Ok(msg)
            }
            // Mode mismatch: an unencrypted daemon talking to an
            // intrusion-tolerant network (or vice versa) is rejected.
            _ => Err(Dropped::Auth),
        }
    }

    fn maybe_deliver(&mut self, msg: &SpinesMsg) {
        match msg.kind {
            MsgKind::Data => {
                let for_me = match msg.dst {
                    Destination::Daemon(d) => d == self.id,
                    Destination::Group(g) => self.subscriptions.contains(&g),
                };
                if for_me {
                    self.stats.delivered += 1;
                    self.c.delivered.inc();
                    self.deliveries.push(Delivery {
                        src: msg.src,
                        dst: msg.dst,
                        payload: msg.payload.clone(),
                    });
                }
            }
            MsgKind::LegacyDiag => match self.cfg.mode {
                SpinesMode::Legacy => {
                    // The vulnerable handler runs attacker input.
                    self.legacy_compromised = true;
                }
                SpinesMode::IntrusionTolerant => {
                    // Code path disabled: §IV-B "it was in a portion of the
                    // code that is disabled when Spines is run in
                    // intrusion-tolerant mode".
                    self.stats.legacy_diag_ignored += 1;
                    self.c.legacy_diag_ignored.inc();
                }
            },
        }
    }

    fn flood(&mut self, msg: &SpinesMsg, exclude: Option<u32>) -> Vec<(IpAddr, Bytes)> {
        let mut out = Vec::with_capacity(self.links.len());
        // Serialize once, into a buffer that never has to grow; only the
        // per-link sealing differs per neighbor.
        let plaintext = msg.to_wire_vec();
        for link in &mut self.links {
            if Some(link.neighbor) == exclude {
                continue;
            }
            let mut frame = Vec::with_capacity(SEALED_HEADER + plaintext.len() + TAG_LEN);
            match self.cfg.mode {
                SpinesMode::Legacy => {
                    frame.put_u8(0);
                    frame.put_u32(plaintext.len() as u32);
                    frame.put_slice(&plaintext);
                }
                SpinesMode::IntrusionTolerant => {
                    link.nonce += 1;
                    let nonce = link.nonce;
                    self.c.sealed.inc();
                    obs::prof::charge_crypto("spines;hop", obs::prof::CryptoOp::Hmac, 1);
                    // Seal in place, straight into the outgoing buffer.
                    frame.put_u8(1);
                    frame.put_u64(nonce);
                    frame.put_u32(plaintext.len() as u32);
                    frame.put_slice(&plaintext);
                    // A binary rebuilt without key material seals under
                    // all-zero keys: it can still read the network (opening
                    // uses the real keys), it just cannot produce frames
                    // its peers accept.
                    let keys = if self.has_keys {
                        link.keys(&self.cfg, self.id)
                    } else {
                        self.null_keys
                            .get_or_insert_with(|| LinkKeys::derive(&[0u8; 32]))
                    };
                    let tag = keys.seal_in_place(nonce, &mut frame[SEALED_HEADER..]);
                    frame.put_slice(&tag);
                }
            }
            self.stats.forwarded += 1;
            self.c.forwarded.inc();
            obs::prof::charge_msg("spines;hop", 1, plaintext.len() as u64);
            out.push((link.addr, Bytes::from(frame)));
        }
        out
    }

    fn remember(&mut self, src: u32, seq: u64) {
        if self.seen.insert((src, seq)) {
            self.seen_order.push_back((src, seq));
            if self.seen_order.len() > SEEN_CAP {
                if let Some(old) = self.seen_order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }
}

/// Why a received frame went no further.
enum Dropped {
    Auth,
    Malformed,
    Duplicate,
}

/// The `(src, seq)` a [`SpinesMsg`] plaintext begins with.
fn dedup_key(plaintext: &[u8]) -> Option<(u32, u64)> {
    let (src, rest) = plaintext.split_first_chunk::<4>()?;
    let (seq, _) = rest.split_first_chunk::<8>()?;
    Some((u32::from_be_bytes(*src), u64::from_be_bytes(*seq)))
}

impl std::fmt::Debug for SpinesDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpinesDaemon")
            .field("id", &self.id)
            .field("running", &self.running)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::types::Port;

    fn cfg(n: u32, mode: SpinesMode) -> SpinesConfig {
        let daemons: Vec<(u32, IpAddr)> = (0..n)
            .map(|i| (i, IpAddr::new(10, 1, 0, (i + 1) as u8)))
            .collect();
        SpinesConfig::full_mesh(daemons, Port(8100), [9; 32], mode)
    }

    /// Delivers wire sends between daemons until quiescent.
    fn exchange(daemons: &mut [SpinesDaemon], mut pending: Vec<(IpAddr, Bytes)>, from: IpAddr) {
        let mut hops: Vec<(IpAddr, IpAddr, Bytes)> =
            pending.drain(..).map(|(to, b)| (from, to, b)).collect();
        while let Some((src, dst, bytes)) = hops.pop() {
            let idx = daemons
                .iter()
                .position(|d| d.cfg.addr_of(d.id) == Some(dst))
                .expect("destination daemon exists");
            let my_addr = daemons[idx].cfg.addr_of(daemons[idx].id).expect("addr");
            let out = daemons[idx].on_wire(src, &bytes);
            for (to, b) in out {
                hops.push((my_addr, to, b));
            }
        }
    }

    #[test]
    fn group_multicast_reaches_subscribers() {
        let c = cfg(4, SpinesMode::IntrusionTolerant);
        let mut ds: Vec<SpinesDaemon> = (0..4).map(|i| SpinesDaemon::new(i, c.clone())).collect();
        for d in &mut ds {
            d.subscribe(8101);
        }
        let sends = ds[0].multicast(8101, 1, Bytes::from_static(b"hello"));
        assert_eq!(sends.len(), 3);
        let from = c.addr_of(0).expect("addr");
        exchange(&mut ds, sends, from);
        for (i, d) in ds.iter_mut().enumerate() {
            let got = d.take_deliveries();
            assert_eq!(got.len(), 1, "daemon {i}");
            assert_eq!(got[0].payload.as_ref(), b"hello");
            assert_eq!(got[0].src, 0);
        }
    }

    #[test]
    fn unicast_only_reaches_target() {
        let c = cfg(3, SpinesMode::IntrusionTolerant);
        let mut ds: Vec<SpinesDaemon> = (0..3).map(|i| SpinesDaemon::new(i, c.clone())).collect();
        let sends = ds[0].unicast(2, 1, Bytes::from_static(b"direct"));
        let from = c.addr_of(0).expect("addr");
        exchange(&mut ds, sends, from);
        assert!(ds[1].take_deliveries().is_empty());
        assert_eq!(ds[2].take_deliveries().len(), 1);
    }

    #[test]
    fn self_subscribed_multicast_delivers_locally() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut d = SpinesDaemon::new(0, c);
        d.subscribe(5);
        let _ = d.multicast(5, 1, Bytes::from_static(b"loop"));
        assert_eq!(d.take_deliveries().len(), 1);
    }

    #[test]
    fn daemon_without_keys_is_rejected() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut d0 = SpinesDaemon::new(0, c.clone());
        let mut d1 = SpinesDaemon::new(1, c.clone());
        d1.subscribe(7);
        d0.has_keys = false; // red team's rebuilt daemon
        let sends = d0.multicast(7, 1, Bytes::from_static(b"evil"));
        for (to, bytes) in sends {
            assert_eq!(to, c.addr_of(1).expect("addr"));
            d1.on_wire(c.addr_of(0).expect("addr"), &bytes);
        }
        assert!(d1.take_deliveries().is_empty());
        assert_eq!(d1.stats.auth_failures, 1);
    }

    #[test]
    fn outsider_address_rejected() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut d1 = SpinesDaemon::new(1, c);
        let out = d1.on_wire(IpAddr::new(66, 6, 6, 6), b"garbage");
        assert!(out.is_empty());
        assert_eq!(d1.stats.auth_failures, 1);
    }

    #[test]
    fn legacy_exploit_fires_in_legacy_mode_only() {
        // Legacy network: the diagnostic handler runs.
        let cl = cfg(2, SpinesMode::Legacy);
        let mut a = SpinesDaemon::new(0, cl.clone());
        let mut b = SpinesDaemon::new(1, cl.clone());
        let sends = a.send_legacy_diag(Bytes::from_static(b"rm -rf /"));
        for (_to, bytes) in sends {
            b.on_wire(cl.addr_of(0).expect("addr"), &bytes);
        }
        assert!(b.legacy_compromised);

        // Intrusion-tolerant network: same message, code path disabled.
        let ci = cfg(2, SpinesMode::IntrusionTolerant);
        let mut a = SpinesDaemon::new(0, ci.clone());
        let mut b = SpinesDaemon::new(1, ci.clone());
        let sends = a.send_legacy_diag(Bytes::from_static(b"rm -rf /"));
        for (_to, bytes) in sends {
            b.on_wire(ci.addr_of(0).expect("addr"), &bytes);
        }
        assert!(!b.legacy_compromised);
        assert_eq!(b.stats.legacy_diag_ignored, 1);
    }

    #[test]
    fn duplicates_suppressed() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut a = SpinesDaemon::new(0, c.clone());
        let mut b = SpinesDaemon::new(1, c.clone());
        b.subscribe(3);
        let sends = a.multicast(3, 1, Bytes::from_static(b"x"));
        let (_, bytes) = &sends[0];
        let from = c.addr_of(0).expect("addr");
        b.on_wire(from, bytes);
        b.on_wire(from, bytes);
        assert_eq!(b.take_deliveries().len(), 1);
        assert_eq!(b.stats.duplicates, 1);
    }

    #[test]
    fn one_past_the_cap_forgets_exactly_the_oldest() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut a = SpinesDaemon::new(0, c.clone());
        let mut b = SpinesDaemon::new(1, c.clone());
        b.subscribe(3);
        let from = c.addr_of(0).expect("addr");
        let send = |a: &mut SpinesDaemon| a.multicast(3, 1, Bytes::from_static(b"x"))[0].1.clone();
        let (oldest, second) = (send(&mut a), send(&mut a));
        b.on_wire(from, &oldest);
        b.on_wire(from, &second);
        // Fill the window to its cap without sealing 100 000 frames.
        for seq in 2..SEEN_CAP as u64 {
            b.remember(0, seq);
        }
        assert_eq!((b.seen.len(), b.seen_order.len()), (SEEN_CAP, SEEN_CAP));
        b.on_wire(from, &oldest);
        assert_eq!(b.stats.duplicates, 1, "the cap itself forgets nothing");
        a.set_seq_base(SEEN_CAP as u64);
        b.on_wire(from, &send(&mut a));
        assert_eq!((b.seen.len(), b.seen_order.len()), (SEEN_CAP, SEEN_CAP));
        assert_eq!(b.take_deliveries().len(), 3);
        // The second-oldest first: replaying the forgotten one re-enters
        // it, and that pushes the second-oldest out in turn.
        b.on_wire(from, &second);
        assert_eq!(b.stats.duplicates, 2);
        assert!(b.take_deliveries().is_empty());
        b.on_wire(from, &oldest);
        assert_eq!(b.stats.duplicates, 2);
        assert_eq!(
            b.take_deliveries().len(),
            1,
            "forgotten, so delivered again"
        );
        b.on_wire(from, &second);
        assert_eq!(b.take_deliveries().len(), 1, "and now the second-oldest is");
    }

    #[test]
    fn stopped_daemon_is_silent() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut a = SpinesDaemon::new(0, c.clone());
        a.running = false;
        assert!(a.multicast(1, 1, Bytes::from_static(b"x")).is_empty());
        assert!(a
            .on_wire(c.addr_of(1).expect("addr"), b"anything")
            .is_empty());
    }

    #[test]
    fn multihop_line_topology_floods_end_to_end() {
        let daemons: Vec<(u32, IpAddr)> = (0..4)
            .map(|i| (i, IpAddr::new(10, 1, 0, (i + 1) as u8)))
            .collect();
        let c = SpinesConfig::with_edges(
            daemons,
            [(0, 1), (1, 2), (2, 3)],
            Port(8100),
            [3; 32],
            SpinesMode::IntrusionTolerant,
        );
        let mut ds: Vec<SpinesDaemon> = (0..4).map(|i| SpinesDaemon::new(i, c.clone())).collect();
        ds[3].subscribe(9);
        let sends = ds[0].multicast(9, 1, Bytes::from_static(b"far"));
        let from = c.addr_of(0).expect("addr");
        exchange(&mut ds, sends, from);
        assert_eq!(ds[3].take_deliveries().len(), 1);
    }

    #[test]
    fn seq_base_prevents_dedup_after_restart() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut old = SpinesDaemon::new(0, c.clone());
        let mut peer = SpinesDaemon::new(1, c.clone());
        peer.subscribe(4);
        let from = c.addr_of(0).expect("addr");
        for i in 0..5 {
            let sends = old.multicast(4, 1, Bytes::from(vec![i]));
            for (_to, bytes) in sends {
                peer.on_wire(from, &bytes);
            }
        }
        assert_eq!(peer.take_deliveries().len(), 5);
        // Restart without a seq base: everything is dedup-dropped.
        let mut restarted = SpinesDaemon::new(0, c.clone());
        let sends = restarted.multicast(4, 1, Bytes::from_static(b"lost"));
        for (_to, bytes) in sends {
            peer.on_wire(from, &bytes);
        }
        assert!(
            peer.take_deliveries().is_empty(),
            "reused seq silently dropped"
        );
        // Restart with a clock-derived base: delivery resumes.
        let mut fixed = SpinesDaemon::new(0, c.clone());
        fixed.set_seq_base(1_000_000);
        let sends = fixed.multicast(4, 1, Bytes::from_static(b"alive"));
        for (_to, bytes) in sends {
            peer.on_wire(from, &bytes);
        }
        assert_eq!(peer.take_deliveries().len(), 1);
    }

    #[test]
    fn incarnations_never_reuse_a_link_nonce() {
        // Proactive recovery rebuilds the daemon under the same link keys:
        // a nonce used twice on a link direction is a keystream used
        // twice. Hosts pass the same clock-derived base as for `seq`.
        let c = cfg(3, SpinesMode::IntrusionTolerant);
        let emitted = |base_us: u64, messages: u8| {
            let mut d = SpinesDaemon::new(0, c.clone());
            d.set_seq_base(base_us << 16);
            let mut nonces = BTreeSet::new();
            for i in 0..messages {
                for (to, frame) in d.multicast(4, 1, Bytes::from(vec![i])) {
                    let nonce = u64::from_be_bytes(frame[1..9].try_into().expect("8 bytes"));
                    assert!(nonces.insert((to, nonce)), "reuse within one life");
                }
            }
            nonces
        };
        let first = emitted(0, 40);
        let second = emitted(7, 40);
        assert_eq!(first.len(), 80);
        assert!(first.is_disjoint(&second), "a restart replayed a nonce");
    }

    #[test]
    fn legacy_frame_rejected_by_it_network() {
        let ci = cfg(2, SpinesMode::IntrusionTolerant);
        let cl = SpinesConfig {
            mode: SpinesMode::Legacy,
            ..ci.clone()
        };
        let mut legacy = SpinesDaemon::new(0, cl);
        let mut it = SpinesDaemon::new(1, ci.clone());
        it.subscribe(2);
        let sends = legacy.multicast(2, 1, Bytes::from_static(b"old"));
        for (_to, bytes) in sends {
            it.on_wire(ci.addr_of(0).expect("addr"), &bytes);
        }
        assert!(it.take_deliveries().is_empty());
        assert_eq!(it.stats.auth_failures, 1);
    }
}
