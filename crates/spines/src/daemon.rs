//! The Spines daemon: link crypto, flooding, deduplication, delivery.
//!
//! Each Spire host embeds one daemon per overlay it participates in. The
//! daemon is transport-agnostic: the owner feeds it received wire bytes
//! ([`SpinesDaemon::on_wire`]) and transmits whatever `(addr, bytes)`
//! pairs the daemon returns. This keeps the daemon synchronous and
//! deterministic while the hosting [`simnet::Process`] does the I/O.

use std::collections::{BTreeSet, HashMap};

use bytes::{BufMut, Bytes};
use itcrypto::stream::{LinkKeys, KEYSTREAM_BLOCK, TAG_LEN};
use simnet::hash::MixState;
use simnet::types::IpAddr;
use simnet::wire::{DecodeError, Reader, Wire};

use crate::config::{SpinesConfig, SpinesMode};
use crate::fairness::FairQueue;
use crate::message::{Destination, MsgKind, SpinesMsg};

/// Numbers a [`ReplayWindow`] spans: the highest accepted and the 1,023
/// below it. DESIGN.md ("Memory bounded by the configuration") argues the
/// width.
const WINDOW: u64 = 1024;
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

/// A daemon's counters, read from the registry by [`SpinesDaemon::stats`].
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

/// Cached registry counter handles: the [`DaemonStats`] counts plus the
/// seal/open tallies, registered once under the daemon's scope.
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

/// Bytes of a sealed frame before its ciphertext: mode tag, nonce, length.
const SEALED_HEADER: usize = 1 + 8 + 4;

/// Wire envelope, parsed in place: mode tag + either plaintext (legacy)
/// or `nonce ‖ length-prefixed ciphertext ‖ 16-byte GCM tag`.
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
/// toward it, and the keys of the link's two directions.
struct Link {
    neighbor: u32,
    addr: IpAddr,
    /// Outgoing nonce (never reused on a link direction, across restarts
    /// included: see [`SpinesDaemon::set_seq_base`]).
    nonce: u64,
    /// The keys this daemon seals under, derived by the first frame sealed
    /// on the link: deriving costs two HMAC-SHA-256 calls (the link key and
    /// its AES key), an AES key expansion and the powers H¹…H⁸ of the
    /// GHASH key. No SHA-256 runs per frame after that.
    seal_keys: Option<LinkKeys>,
    /// The keys the neighbour seals under, derived by the first frame
    /// opened on the link.
    open_keys: Option<LinkKeys>,
    /// The nonces of the frames accepted from the neighbour. Only the
    /// neighbour holds the keys of its direction, so only it chooses them:
    /// a nonce seen again is a replay of one of its frames.
    received: ReplayWindow,
}

impl Link {
    /// The keys daemon `id` seals its frames to this neighbour under.
    fn seal_keys(&mut self, cfg: &SpinesConfig, id: u32) -> &LinkKeys {
        self.seal_keys
            .get_or_insert_with(|| LinkKeys::derive(&cfg.link_key(id, self.neighbor)))
    }

    /// The keys daemon `id` opens this neighbour's frames under.
    fn open_keys(&mut self, cfg: &SpinesConfig, id: u32) -> &LinkKeys {
        self.open_keys
            .get_or_insert_with(|| LinkKeys::derive(&cfg.link_key(self.neighbor, id)))
    }
}

/// One Spines overlay daemon.
pub struct SpinesDaemon {
    cfg: SpinesConfig,
    id: u32,
    subscriptions: BTreeSet<u16>,
    next_seq: u64,
    /// Flood deduplication.
    seen: SeenWindows,
    /// This daemon's neighbours, in ascending id order.
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
    /// Observability hub, fixed at construction.
    obs: obs::ObsHub,
    c: DaemonObs,
}

impl SpinesDaemon {
    /// Creates daemon `id` of the overlay described by `cfg`, standalone:
    /// on a fresh hub, its counters scoped `spines.d{id}`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the configuration.
    pub fn new(id: u32, cfg: SpinesConfig) -> Self {
        Self::with_hub(id, cfg, &obs::ObsHub::new(), &format!("spines.d{id}"))
    }

    /// Creates daemon `id` of the overlay described by `cfg` on `hub`,
    /// registering its counters as `{scope}.{metric}`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the configuration.
    pub fn with_hub(id: u32, cfg: SpinesConfig, hub: &obs::ObsHub, scope: &str) -> Self {
        assert!(cfg.daemons.contains_key(&id), "daemon id not in config");
        let counters = DaemonObs::from_hub(hub, scope);
        let links: Vec<Link> = cfg
            .neighbors(id)
            .into_iter()
            .filter_map(|neighbor| {
                Some(Link {
                    neighbor,
                    addr: cfg.addr_of(neighbor)?,
                    nonce: 0,
                    seal_keys: None,
                    open_keys: None,
                    received: ReplayWindow::default(),
                })
            })
            .collect();
        let link_of = links.iter().enumerate().map(|(i, l)| (l.addr, i)).collect();
        let seen = SeenWindows::new(&cfg);
        SpinesDaemon {
            cfg,
            id,
            subscriptions: BTreeSet::new(),
            next_seq: 0,
            seen,
            links,
            link_of,
            null_keys: None,
            forward_queue: FairQueue::new(PER_SOURCE_CAP),
            deliveries: Vec::new(),
            running: true,
            has_keys: true,
            legacy_compromised: false,
            obs: hub.clone(),
            c: counters,
        }
    }

    /// This daemon's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The daemon's counters, read from its registry handles. A daemon
    /// rebuilt on the same hub under the same scope continues from the
    /// totals of the one it replaced.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            originated: self.c.originated.get(),
            forwarded: self.c.forwarded.get(),
            delivered: self.c.delivered.get(),
            auth_failures: self.c.auth_failures.get(),
            duplicates: self.c.duplicates.get(),
            legacy_diag_ignored: self.c.legacy_diag_ignored.get(),
            malformed: self.c.malformed.get(),
        }
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
        self.c.originated.inc();
        self.seen.accept(msg.src, msg.seq);
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
                        self.c.auth_failures.inc();
                        self.obs
                            .journal(obs::Event::AuthFailure { daemon: self.id });
                    }
                    Dropped::Malformed => {
                        self.c.malformed.inc();
                    }
                    Dropped::Duplicate => {
                        self.c.duplicates.inc();
                    }
                }
                return Vec::new();
            }
        };
        self.seen.accept(msg.src, msg.seq);
        self.maybe_deliver(&msg);
        // Queue for fair forwarding (a message for this daemon ends here),
        // then drain a budget.
        if msg.dst != Destination::Daemon(self.id) {
            self.forward_queue.push(msg.src, msg);
        }
        let drained = self.forward_queue.drain(FORWARD_BUDGET);
        let mut out = Vec::new();
        for item in drained {
            out.extend(self.flood(&item.value, Some(neighbor)));
        }
        out
    }

    /// Authenticates and decodes one frame received on `links[link]`,
    /// unless deduplication drops it first. Three frames in four on the
    /// plant's full mesh are copies of a message already seen, so a sealed
    /// frame is opened in two steps: the GCM tag over the whole frame is
    /// checked (and a replayed nonce refused), then only the first
    /// keystream block is decrypted, which holds the `(src, seq)` the flood
    /// dedup windows are keyed by; the rest is decrypted and decoded for a
    /// new message only. (So a key holder replaying a seen
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
                let keys = self.links[link].open_keys(&self.cfg, self.id);
                if !keys.verify(nonce, ciphertext, tag) {
                    return Err(Dropped::Auth);
                }
                self.c.opened.inc();
                let received = &mut self.links[link].received;
                if received.seen(nonce) {
                    return Err(Dropped::Duplicate);
                }
                received.accept(nonce);
                let keys = self.links[link].open_keys(&self.cfg, self.id);
                let head_len = ciphertext.len().min(KEYSTREAM_BLOCK);
                let mut head = [0u8; KEYSTREAM_BLOCK];
                head[..head_len].copy_from_slice(&ciphertext[..head_len]);
                keys.decrypt_from(nonce, 0, &mut head[..head_len]);
                let (src, seq) = dedup_key(&head[..head_len]).ok_or(Dropped::Malformed)?;
                self.seen.fresh(src, seq)?;
                let mut plaintext = Vec::with_capacity(ciphertext.len());
                plaintext.extend_from_slice(&head[..head_len]);
                plaintext.extend_from_slice(&ciphertext[head_len..]);
                keys.decrypt_from(nonce, 1, &mut plaintext[head_len..]);
                SpinesMsg::from_wire(&plaintext).map_err(|_| Dropped::Malformed)
            }
            (SpinesMode::Legacy, LinkFrame::Legacy(plaintext)) => {
                let msg = SpinesMsg::from_wire(plaintext).map_err(|_| Dropped::Malformed)?;
                self.seen.fresh(msg.src, msg.seq)?;
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
                    self.c.legacy_diag_ignored.inc();
                }
            },
        }
    }

    /// Seals `msg` for every neighbour but `exclude`, except that a relay
    /// (`exclude` set) next to a unicast's destination hands it to that
    /// destination only. Any path of correct daemons from the source to
    /// `d` still ends on a neighbour of `d`, which forwards to `d`: whatever
    /// daemons are silent, `d` receives exactly when flooding to all would
    /// reach it.
    fn flood(&mut self, msg: &SpinesMsg, exclude: Option<u32>) -> Vec<(IpAddr, Bytes)> {
        let targets = match (exclude, msg.dst) {
            (Some(_), Destination::Daemon(d)) => self
                .links
                .binary_search_by_key(&d, |l| l.neighbor)
                .map_or(0..self.links.len(), |i| i..i + 1),
            _ => 0..self.links.len(),
        };
        let mut out = Vec::with_capacity(targets.len());
        // Serialize once, into a buffer that never has to grow; only the
        // per-link sealing differs per neighbor.
        let plaintext = msg.to_wire_vec();
        for link in &mut self.links[targets] {
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
                        link.seal_keys(&self.cfg, self.id)
                    } else {
                        self.null_keys
                            .get_or_insert_with(|| LinkKeys::derive(&[0u8; 32]))
                    };
                    let tag = keys.seal_in_place(nonce, &mut frame[SEALED_HEADER..]);
                    frame.put_slice(&tag);
                }
            }
            self.c.forwarded.inc();
            out.push((link.addr, Bytes::from(frame)));
        }
        // One charge per flood of what each frame would have charged.
        if !out.is_empty() && obs::prof::enabled() {
            let frames = out.len() as u64;
            if self.cfg.mode == SpinesMode::IntrusionTolerant {
                obs::prof::charge_crypto("spines;hop", obs::prof::CryptoOp::Hmac, frames);
            }
            obs::prof::charge_msg("spines;hop", frames, frames * plaintext.len() as u64);
        }
        out
    }
}

/// Flood deduplication: one [`SourceWindows`] per daemon of the
/// configuration, in id order. Its size is fixed when the daemon is built.
struct SeenWindows(Vec<(u32, SourceWindows)>);

impl SeenWindows {
    fn new(cfg: &SpinesConfig) -> Self {
        SeenWindows(
            cfg.daemons
                .keys()
                .map(|&src| (src, SourceWindows::default()))
                .collect(),
        )
    }

    fn position(&self, src: u32) -> Option<usize> {
        self.0.binary_search_by_key(&src, |&(id, _)| id).ok()
    }

    /// Whether `(src, seq)` may be accepted: a duplicate if its source's
    /// windows have seen it, malformed if no daemon of the overlay is `src`
    /// (only a key holder gets this far, and it cannot add a window).
    fn fresh(&self, src: u32, seq: u64) -> Result<(), Dropped> {
        match self.position(src) {
            None => Err(Dropped::Malformed),
            Some(i) if self.0[i].1.seen(seq) => Err(Dropped::Duplicate),
            Some(_) => Ok(()),
        }
    }

    fn accept(&mut self, src: u32, seq: u64) {
        if let Some(i) = self.position(src) {
            self.0[i].1.accept(seq);
        }
    }
}

/// The sequence numbers accepted from one source, in two
/// [`ReplayWindow`]s. A number belongs to the window whose span holds it,
/// else to the window it is less than [`WINDOW`] above; one that belongs
/// to neither opens a window in place of the one that accepted less
/// recently. No number is refused for being old: `(src, seq)` is
/// authenticated hop by hop only, so with one window a key holder could
/// claim a `seq` far above the source's and put all its real numbers below
/// the window with one frame. A claimed number takes one window here, and
/// the source's own frames keep or reopen the other. Replays are refused
/// on the link, by nonce ([`Link::received`]).
#[derive(Default)]
struct SourceWindows {
    windows: [ReplayWindow; 2],
    /// The window that accepted last.
    last: usize,
}

impl SourceWindows {
    /// The window `seq` belongs to, if any. The tops are a window or more
    /// apart (a window opens on a number the other does not hold or
    /// extend to, and grows only into numbers the other does not hold), so
    /// at most one window holds `seq`, and at most one extends to it.
    fn home(&self, seq: u64) -> Option<usize> {
        let top = |i: &usize| self.windows[*i].top;
        let holds = |i: &usize| top(i).is_some_and(|t| seq <= t && t - seq < WINDOW);
        let extends = |i: &usize| top(i).is_some_and(|t| seq > t && seq - t < WINDOW);
        (0..2).find(holds).or_else(|| (0..2).find(extends))
    }

    fn seen(&self, seq: u64) -> bool {
        self.home(seq).is_some_and(|i| self.windows[i].seen(seq))
    }

    fn accept(&mut self, seq: u64) {
        let i = self.home(seq).unwrap_or_else(|| {
            let spare = 1 - self.last;
            self.windows[spare] = ReplayWindow::default();
            spare
        });
        self.windows[i].accept(seq);
        self.last = i;
    }
}

/// RFC 4303's anti-replay window over a sequence of numbers: the highest
/// accepted, and one bit for each of the [`WINDOW`] numbers ending there,
/// in a fixed 136 bytes. A number below the window counts as seen, so
/// nothing is accepted twice however long the run.
#[derive(Default)]
struct ReplayWindow {
    /// The highest sequence number accepted; `None` before the first.
    top: Option<u64>,
    /// Bit `seq % WINDOW`: whether `seq`, inside the window, was accepted.
    map: [u64; (WINDOW / 64) as usize],
}

impl ReplayWindow {
    fn seen(&self, seq: u64) -> bool {
        match self.top {
            Some(top) if seq <= top => top - seq >= WINDOW || self.bit(seq),
            _ => false,
        }
    }

    fn accept(&mut self, seq: u64) {
        match self.top {
            Some(top) if seq <= top => {
                if top - seq < WINDOW {
                    self.set(seq, true);
                }
                return;
            }
            // Each number passed over takes the bit of one that falls out
            // of the window, and has not been accepted.
            Some(top) if seq - top < WINDOW => (top + 1..seq).for_each(|s| self.set(s, false)),
            _ => self.map = Default::default(),
        }
        self.top = Some(seq);
        self.set(seq, true);
    }

    fn bit(&self, seq: u64) -> bool {
        let i = seq % WINDOW;
        self.map[(i / 64) as usize] & 1 << (i % 64) != 0
    }

    fn set(&mut self, seq: u64, accepted: bool) {
        let i = seq % WINDOW;
        let (word, mask) = (&mut self.map[(i / 64) as usize], 1u64 << (i % 64));
        if accepted {
            *word |= mask;
        } else {
            *word &= !mask;
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
            .field("stats", &self.stats())
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

    /// Frames sealed across `daemons`.
    fn sealed(daemons: &[SpinesDaemon]) -> u64 {
        daemons.iter().map(|d| d.c.sealed.get()).sum()
    }

    /// A 14-daemon full mesh, the plant's external overlay.
    fn mesh14() -> (SpinesConfig, Vec<SpinesDaemon>) {
        let c = cfg(14, SpinesMode::IntrusionTolerant);
        let ds = (0..14).map(|i| SpinesDaemon::new(i, c.clone())).collect();
        (c, ds)
    }

    #[test]
    fn a_unicast_on_a_full_mesh_is_handed_to_its_destination() {
        let (c, mut ds) = mesh14();
        let sends = ds[0].unicast(9, 1, Bytes::from_static(b"close breaker"));
        assert_eq!(sends.len(), 13, "the originator seals for every neighbour");
        exchange(&mut ds, sends, c.addr_of(0).expect("addr"));
        assert_eq!(sealed(&ds), 13 + 12, "each relay hands it to daemon 9 only");
        for (i, d) in ds.iter_mut().enumerate() {
            let expected = match i {
                0 => 13,
                9 => 0,
                _ => 1,
            };
            assert_eq!(d.stats().forwarded, expected, "daemon {i}");
            assert_eq!(d.take_deliveries().len(), usize::from(i == 9), "daemon {i}");
        }
        assert_eq!(ds[9].stats().duplicates, 12, "one copy from each relay");
        assert_eq!(ds[9].forward_depth(), 0, "the destination queues nothing");
    }

    #[test]
    fn a_group_multicast_on_a_full_mesh_still_floods() {
        let (c, mut ds) = mesh14();
        ds[9].subscribe(5);
        let sends = ds[0].multicast(5, 1, Bytes::from_static(b"frame"));
        exchange(&mut ds, sends, c.addr_of(0).expect("addr"));
        assert_eq!(sealed(&ds), 13 + 13 * 12);
        assert_eq!(ds[9].take_deliveries().len(), 1);
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
        assert_eq!(d1.stats().auth_failures, 1);
    }

    #[test]
    fn outsider_address_rejected() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut d1 = SpinesDaemon::new(1, c);
        let out = d1.on_wire(IpAddr::new(66, 6, 6, 6), b"garbage");
        assert!(out.is_empty());
        assert_eq!(d1.stats().auth_failures, 1);
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
        assert_eq!(b.stats().legacy_diag_ignored, 1);
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
        assert_eq!(b.stats().duplicates, 1);
    }

    #[test]
    fn a_frame_reflected_to_its_sealer_fails_authentication() {
        // Each direction of a link has its own keys: a frame daemon 0
        // sealed for daemon 1, sent back to daemon 0 on that link, does
        // not open.
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let mut a = SpinesDaemon::new(0, c.clone());
        a.subscribe(3);
        let sends = a.multicast(3, 1, Bytes::from_static(b"x"));
        assert_eq!(a.take_deliveries().len(), 1);
        let (to, frame) = &sends[0];
        assert_eq!(*to, c.addr_of(1).expect("addr"));
        assert!(a.on_wire(*to, frame).is_empty());
        assert_eq!(a.stats().auth_failures, 1);
        assert_eq!(a.stats().duplicates, 0);
        assert!(a.take_deliveries().is_empty());
    }

    /// Daemon 1 of a three-daemon mesh, fed frames that daemon 0 seals
    /// for any `(src, seq)`, and under any nonce, as a key holder can.
    struct Receiver {
        sender: SpinesDaemon,
        rx: SpinesDaemon,
        from: IpAddr,
        /// The next number [`Receiver::seal_at`] claims for daemon 2.
        fresh_seq: u64,
    }

    impl Receiver {
        fn new() -> Self {
            let c = cfg(3, SpinesMode::IntrusionTolerant);
            let mut rx = SpinesDaemon::new(1, c.clone());
            rx.subscribe(3);
            Receiver {
                sender: SpinesDaemon::new(0, c.clone()),
                rx,
                from: c.addr_of(0).expect("addr"),
                fresh_seq: 0,
            }
        }

        fn seal(&mut self, src: u32, seq: u64) -> Bytes {
            let msg = SpinesMsg {
                src,
                seq,
                dst: Destination::Group(3),
                priority: 1,
                kind: MsgKind::Data,
                payload: Bytes::from_static(b"x"),
            };
            let to = self.rx.cfg.addr_of(1).expect("addr");
            let sends = self.sender.flood(&msg, None);
            sends.into_iter().find(|(a, _)| *a == to).expect("link").1
        }

        /// A message no window has seen, sealed under `nonce`.
        fn seal_at(&mut self, nonce: u64) -> Bytes {
            let link = self.sender.links.iter_mut().find(|l| l.neighbor == 1);
            link.expect("link").nonce = nonce - 1;
            self.fresh_seq += 1;
            self.seal(2, self.fresh_seq)
        }

        /// Whether `(src, seq)` was delivered; otherwise it counted as a
        /// duplicate.
        fn offer(&mut self, src: u32, seq: u64) -> bool {
            let frame = self.seal(src, seq);
            self.take(&frame)
        }

        /// Whether a fresh message sealed under `nonce` was delivered.
        fn fresh_at(&mut self, nonce: u64) -> bool {
            let frame = self.seal_at(nonce);
            self.take(&frame)
        }

        /// Whether `frame` was delivered; otherwise it counted as a
        /// duplicate.
        fn take(&mut self, frame: &Bytes) -> bool {
            let before = self.rx.stats();
            self.rx.on_wire(self.from, frame);
            let after = self.rx.stats();
            assert_eq!(
                (after.delivered - before.delivered) + (after.duplicates - before.duplicates),
                1,
                "delivered or a duplicate"
            );
            after.delivered > before.delivered
        }
    }

    #[test]
    fn the_link_window_edge_is_top_minus_1023() {
        let mut r = Receiver::new();
        let [top, edge, below] = [5_000, 5_000 - 1_023, 5_000 - 1_024].map(|n| r.seal_at(n));
        assert!(r.take(&top));
        assert!(r.take(&edge), "inside the window, never seen");
        assert!(!r.take(&edge), "and only once");
        assert!(
            !r.take(&below),
            "below the window: a replay though never seen"
        );
        assert!(!r.take(&top));
        assert!(r.fresh_at(4_999));
    }

    #[test]
    fn a_nonce_jump_of_a_window_or_more_clears_the_map() {
        let mut r = Receiver::new();
        let first: Vec<Bytes> = (100..=110).map(|n| r.seal_at(n)).collect();
        for frame in &first {
            assert!(r.take(frame));
        }
        // One short of a window: 100 is still the window's bottom.
        assert!(r.fresh_at(100 + 1_023));
        assert!(!r.take(&first[0]));
        assert!(r.fresh_at(111), "passed over, never seen");
        // Five past it: 100..=104 fell out, and the numbers that took
        // their bits were never seen.
        let top = r.seal_at(100 + 1_023 + 5);
        assert!(r.take(&top));
        assert!(!r.take(&first[4]));
        for n in 1_124..=1_127 {
            assert!(r.fresh_at(n), "{n} inherits a cleared bit");
        }
        assert!(!r.take(&top));
        // A whole window past: only the new top is known.
        assert!(r.fresh_at(1_128 + 1_024));
        assert!(r.fresh_at(1_128 + 1), "inside, never seen");
        assert!(!r.take(&top), "below");
    }

    #[test]
    fn a_source_has_two_flood_windows_and_the_older_gives_way() {
        let mut r = Receiver::new();
        for seq in 100..=110 {
            assert!(r.offer(0, seq));
        }
        assert!(r.offer(0, 5_000), "a window or more ahead: a second window");
        assert!(!r.offer(0, 105), "the first still holds its numbers");
        assert!(r.offer(0, 111), "and grows");
        assert!(r.offer(0, 5_000 - 1_023), "the second's bottom");
        assert!(!r.offer(0, 5_000 - 1_023));
        assert!(!r.offer(0, 5_000));
        // Neither window holds it: it replaces the one that accepted less
        // recently, the first.
        assert!(r.offer(0, 20_000));
        assert!(!r.offer(0, 5_000), "the second is kept");
        assert!(r.offer(0, 105), "forgotten with the first");
        assert!(!r.offer(0, 20_000));
    }

    #[test]
    fn a_claimed_number_far_ahead_cannot_cut_its_source_off() {
        // Daemon 0 holds link keys and claims numbers of daemon 2's far
        // above its real ones, two between every two of its messages.
        // Daemon 1 delivers each real message once, and counts its copy
        // forwarded by daemon 0 as a duplicate.
        let mut r = Receiver::new();
        let c = r.rx.cfg.clone();
        let mut x = SpinesDaemon::new(2, c.clone());
        let (x_addr, rx_addr) = (c.addr_of(2).expect("addr"), c.addr_of(1).expect("addr"));
        let claims = [u64::MAX, 1 << 63, (1 << 63) + 4_096, 1 << 40, 7 << 16];
        for i in 0..40u8 {
            let sends = x.multicast(3, 1, Bytes::from(vec![i]));
            let (_, frame) = sends.iter().find(|(to, _)| *to == rx_addr).expect("frame");
            r.rx.on_wire(x_addr, frame);
            let got = r.rx.take_deliveries();
            assert_eq!(got.len(), 1, "message {i}");
            assert_eq!(got[0].payload.as_ref(), [i]);
            assert!(!r.offer(2, u64::from(i)), "copy of message {i}");
            for k in 0..2 {
                let claim = claims[(2 * i as usize + k) % claims.len()];
                r.offer(2, claim - u64::from(i));
            }
            r.rx.take_deliveries();
        }
    }

    #[test]
    fn sources_have_independent_windows() {
        let mut r = Receiver::new();
        assert!(r.offer(0, 9_000));
        assert!(r.offer(2, 3), "source 2's window is its own");
        assert!(!r.offer(2, 3));
        assert!(r.offer(2, 2));
        assert!(r.offer(2, 9_000), "the same number from another source");
        assert!(!r.offer(0, 9_000));
        assert!(!r.offer(2, 9_000));
    }

    #[test]
    fn an_id_outside_the_configuration_is_malformed() {
        let mut r = Receiver::new();
        let frame = r.seal(7, 1);
        r.rx.on_wire(r.from, &frame);
        assert_eq!(r.rx.stats().malformed, 1);
        assert_eq!(r.rx.seen.0.len(), 3, "one window per configured daemon");
        assert!(r.rx.take_deliveries().is_empty());
    }

    #[test]
    fn an_incarnation_jump_moves_the_window_past_the_old_life() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let from = c.addr_of(0).expect("addr");
        let mut peer = SpinesDaemon::new(1, c.clone());
        peer.subscribe(4);
        let mut old = SpinesDaemon::new(0, c.clone());
        let old_frames: Vec<Bytes> = (0..5)
            .map(|i| old.multicast(4, 1, Bytes::from(vec![i]))[0].1.clone())
            .collect();
        for f in &old_frames {
            peer.on_wire(from, f);
        }
        let mut restarted = SpinesDaemon::new(0, c.clone());
        restarted.set_seq_base(7 << 16);
        let new_frames: Vec<Bytes> = (0..3)
            .map(|i| restarted.multicast(4, 1, Bytes::from(vec![i]))[0].1.clone())
            .collect();
        for f in &new_frames {
            peer.on_wire(from, f);
        }
        assert_eq!(peer.take_deliveries().len(), 8);
        for f in old_frames.iter().chain(&new_frames) {
            peer.on_wire(from, f);
        }
        assert!(peer.take_deliveries().is_empty());
        assert_eq!(peer.stats().duplicates, 8);
    }

    #[test]
    fn a_frame_replayed_after_1025_newer_messages_is_still_a_duplicate() {
        let c = cfg(2, SpinesMode::IntrusionTolerant);
        let from = c.addr_of(0).expect("addr");
        let (mut a, mut b) = (SpinesDaemon::new(0, c.clone()), SpinesDaemon::new(1, c));
        b.subscribe(3);
        let captured = a.multicast(3, 1, Bytes::from_static(b"open breaker"))[0]
            .1
            .clone();
        b.on_wire(from, &captured);
        // 1,025 newer messages arrive; the link loses the one after each,
        // so its window holds nonces never accepted, the captured frame's
        // bit among them.
        for _ in 0..1_025 {
            let frame = a.multicast(3, 1, Bytes::from_static(b"x"))[0].1.clone();
            b.on_wire(from, &frame);
            let _lost = a.multicast(3, 1, Bytes::from_static(b"x"));
        }
        assert_eq!(b.take_deliveries().len(), 1_026);
        b.on_wire(from, &captured);
        assert!(
            b.take_deliveries().is_empty(),
            "the tag holds, the link's window refuses the nonce"
        );
        assert_eq!(b.stats().duplicates, 1);
    }

    proptest::proptest! {
        /// Per-source sequences that jump ahead (by a window or more too),
        /// step back less than a window and repeat themselves: every
        /// decision and every counter is the unbounded set's.
        #[test]
        fn windows_decide_as_an_unbounded_set_within_the_window(
            ops in proptest::collection::vec((0u32..2, 0u8..3, 0u64..1_400), 1..160),
        ) {
            let mut r = Receiver::new();
            let mut reference = BTreeSet::new();
            let mut top = [None::<u64>; 2];
            let mut expected = DaemonStats::default();
            for (source, kind, n) in ops {
                let src = source * 2;
                let slot = &mut top[source as usize];
                let seq = match (kind, *slot) {
                    (0, _) | (_, None) => slot.map_or(n, |t| t + 1 + n),
                    (1, Some(t)) => t.saturating_sub(n % WINDOW),
                    (_, Some(t)) => t.saturating_sub(n % 8),
                };
                *slot = Some(slot.map_or(seq, |t| t.max(seq)));
                let accepted = reference.insert((src, seq));
                proptest::prop_assert_eq!(r.offer(src, seq), accepted, "({}, {})", src, seq);
                if accepted {
                    expected.delivered += 1;
                    expected.forwarded += 1;
                } else {
                    expected.duplicates += 1;
                }
            }
            proptest::prop_assert_eq!(r.rx.stats(), expected);
        }

        /// A random connected overlay of 4 to 12 daemons (a random
        /// spanning tree plus random edges), some of them silent: a unicast
        /// from `s` reaches `d` exactly when a multicast to a group only
        /// `d` subscribes to does, which the daemons flood to every
        /// neighbour. With fewer silent daemons than node-disjoint paths
        /// from `s` to `d`, it always arrives.
        #[test]
        fn a_handed_over_unicast_reaches_whatever_flooding_reaches(
            n in 4u32..13,
            parents in proptest::collection::vec(proptest::prelude::any::<u32>(), 11),
            extra in proptest::collection::vec((0u32..12, 0u32..12), 0..24),
            silent in proptest::prelude::any::<u16>(),
            ends in (0u32..12, 1u32..12),
        ) {
            let daemons: Vec<(u32, IpAddr)> = (0..n)
                .map(|i| (i, IpAddr::new(10, 1, 0, (i + 1) as u8)))
                .collect();
            let tree = (1..n).map(|i| (parents[i as usize - 1] % i, i));
            let more = extra.into_iter().map(|(a, b)| (a % n, b % n)).filter(|(a, b)| a != b);
            let c = SpinesConfig::with_edges(
                daemons,
                tree.chain(more),
                Port(8100),
                [4; 32],
                SpinesMode::IntrusionTolerant,
            );
            let s = ends.0 % n;
            let d = (s + ends.1 % (n - 1) + 1) % n;
            let is_silent = |i: u32| i != s && i != d && (silent & (1 << i)) != 0;
            let mesh = || -> Vec<SpinesDaemon> {
                (0..n)
                    .map(|i| {
                        let mut daemon = SpinesDaemon::new(i, c.clone());
                        daemon.running = !is_silent(i);
                        if i == d {
                            daemon.subscribe(5);
                        }
                        daemon
                    })
                    .collect()
            };
            let from = c.addr_of(s).expect("addr");
            let mut flooded = mesh();
            let sends = flooded[s as usize].multicast(5, 1, Bytes::from_static(b"x"));
            exchange(&mut flooded, sends, from);
            let mut handed = mesh();
            let sends = handed[s as usize].unicast(d, 1, Bytes::from_static(b"x"));
            exchange(&mut handed, sends, from);

            let reached = handed[d as usize].take_deliveries().len();
            proptest::prop_assert!(reached <= 1);
            proptest::prop_assert_eq!(reached, flooded[d as usize].take_deliveries().len());
            proptest::prop_assert!(sealed(&handed) <= sealed(&flooded));
            let silent_count = (0..n).filter(|&i| is_silent(i)).count() as u32;
            if silent_count < crate::routing::disjoint_paths(&c, s, d) {
                proptest::prop_assert_eq!(reached, 1);
            }
        }

        /// Two streams of one source's numbers, far apart (its own and
        /// the ones a key holder claims for it), interleaved, each moving
        /// less than a window at a time: each keeps a window of its own,
        /// and every decision is the unbounded set's.
        #[test]
        fn two_streams_of_a_source_decide_as_an_unbounded_set(
            ops in proptest::collection::vec((0usize..2, 0u8..3, 0u64..1_023), 1..160),
        ) {
            let mut r = Receiver::new();
            let mut reference = BTreeSet::new();
            let mut top = [0, 1 << 40];
            for (stream, kind, n) in ops {
                let t = &mut top[stream];
                let seq = match kind {
                    0 => *t + 1 + n,
                    1 => t.saturating_sub(n),
                    _ => t.saturating_sub(n % 8),
                };
                *t = (*t).max(seq);
                proptest::prop_assert_eq!(r.offer(0, seq), reference.insert(seq), "{}", seq);
            }
        }
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
        assert_eq!(it.stats().auth_failures, 1);
    }
}
