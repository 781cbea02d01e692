//! `SpinesDaemon::on_wire` checks a sealed frame's GCM tag, decrypts only the
//! first keystream block to read `(src, seq)`, and decrypts and decodes
//! the rest for a new message only. These tests hold it to the model it
//! replaced — open the whole frame, decode it, *then* consult `seen` —
//! which is kept here, in test code, built on the one-shot
//! `itcrypto::stream::{seal, open}` and the `Wire` codec.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use itcrypto::stream::{open, seal, SealedBox};
use proptest::prelude::*;
use simnet::types::{IpAddr, Port};
use simnet::wire::{DecodeError, Reader, Wire, Writer};
use spines::daemon::DaemonStats;
use spines::fairness::FairQueue;
use spines::{Delivery, Destination, MsgKind, SpinesConfig, SpinesDaemon, SpinesMode, SpinesMsg};

const DAEMONS: u32 = 6;
const GROUP: u16 = 7;

fn addr(id: u32) -> IpAddr {
    IpAddr::new(10, 1, 0, id as u8 + 1)
}

fn id_of(addr: IpAddr) -> u32 {
    addr.0[3] as u32 - 1
}

fn mesh_config(mode: SpinesMode) -> SpinesConfig {
    SpinesConfig::full_mesh(
        (0..DAEMONS).map(|i| (i, addr(i))),
        Port(8100),
        [9; 32],
        mode,
    )
}

fn sealed_frame(sb: &SealedBox) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(1)
        .put_u64(sb.nonce)
        .put_bytes(&sb.ciphertext)
        .put_raw(&sb.tag);
    w.finish()
}

/// The reference daemon of an intrusion-tolerant overlay: the same
/// flooding, fairness and delivery rules, with every received frame opened
/// in full before the duplicate check.
struct RefDaemon {
    cfg: SpinesConfig,
    id: u32,
    subscribed: bool,
    next_seq: u64,
    seen: BTreeSet<(u32, u64)>,
    nonces: BTreeMap<u32, u64>,
    forward_queue: FairQueue<SpinesMsg>,
    deliveries: Vec<Delivery>,
    stats: DaemonStats,
}

impl RefDaemon {
    fn new(id: u32, cfg: SpinesConfig) -> Self {
        RefDaemon {
            cfg,
            id,
            subscribed: false,
            next_seq: 0,
            seen: BTreeSet::new(),
            nonces: BTreeMap::new(),
            // The daemon's PER_SOURCE_CAP.
            forward_queue: FairQueue::new(64),
            deliveries: Vec::new(),
            stats: DaemonStats::default(),
        }
    }

    fn open_fully(&self, neighbor: u32, data: &[u8]) -> Result<SpinesMsg, Verdict> {
        // The strict `Wire` decode of the link frame, as it was.
        let mut r = Reader::new(data);
        let parsed = (|| match r.get_u8()? {
            0 => {
                r.get_bytes()?;
                r.expect_end().map(|()| None)
            }
            1 => {
                let sb = SealedBox {
                    nonce: r.get_u64()?,
                    ciphertext: r.get_bytes()?,
                    tag: r.get_raw(16)?.try_into().expect("16 bytes"),
                };
                r.expect_end().map(|()| Some(sb))
            }
            _ => Err(DecodeError::new("link frame tag")),
        })();
        let sb = match parsed {
            Ok(Some(sb)) => sb,
            // A legacy frame on an intrusion-tolerant network.
            Ok(None) => return Err(Verdict::Auth),
            Err(_) => return Err(Verdict::Malformed),
        };
        let plain = open(&self.cfg.link_key(neighbor, self.id), &sb).ok_or(Verdict::Auth)?;
        SpinesMsg::from_wire(&plain).map_err(|_| Verdict::Malformed)
    }

    fn deliver(&mut self, msg: &SpinesMsg) {
        let for_me = match msg.dst {
            Destination::Daemon(d) => d == self.id,
            Destination::Group(g) => self.subscribed && g == GROUP,
        };
        if for_me {
            self.stats.delivered += 1;
            self.deliveries.push(Delivery {
                src: msg.src,
                dst: msg.dst,
                payload: msg.payload.clone(),
            });
        }
    }

    fn flood(&mut self, msg: &SpinesMsg, exclude: Option<u32>) -> Vec<(IpAddr, Bytes)> {
        let plaintext = msg.to_wire();
        let mut out = Vec::new();
        let mut neighbors = self.cfg.neighbors(self.id);
        // A relay next to a unicast's destination hands it over.
        if let (Some(_), Destination::Daemon(d)) = (exclude, msg.dst) {
            if neighbors.contains(&d) {
                neighbors = vec![d];
            }
        }
        for neighbor in neighbors {
            if Some(neighbor) == exclude {
                continue;
            }
            let nonce = self.nonces.entry(neighbor).or_insert(0);
            *nonce += 1;
            let sb = seal(&self.cfg.link_key(self.id, neighbor), *nonce, &plaintext);
            self.stats.forwarded += 1;
            out.push((addr(neighbor), sealed_frame(&sb)));
        }
        out
    }
}

enum Verdict {
    Auth,
    Malformed,
}

/// What the two implementations have in common, as the driver sees it.
trait Node {
    fn originate(&mut self, dst: Destination, payload: Bytes) -> Vec<(IpAddr, Bytes)>;
    fn receive(&mut self, from: IpAddr, data: &[u8]) -> Vec<(IpAddr, Bytes)>;
    fn drain(&mut self) -> Vec<Delivery>;
    fn counters(&self) -> DaemonStats;
}

impl Node for RefDaemon {
    fn originate(&mut self, dst: Destination, payload: Bytes) -> Vec<(IpAddr, Bytes)> {
        let msg = SpinesMsg {
            src: self.id,
            seq: self.next_seq,
            dst,
            priority: 1,
            kind: MsgKind::Data,
            payload,
        };
        self.next_seq += 1;
        self.stats.originated += 1;
        self.seen.insert((msg.src, msg.seq));
        self.deliver(&msg);
        self.flood(&msg, None)
    }

    fn receive(&mut self, from: IpAddr, data: &[u8]) -> Vec<(IpAddr, Bytes)> {
        let neighbor = id_of(from);
        let msg = match self.open_fully(neighbor, data) {
            Ok(msg) => msg,
            Err(Verdict::Auth) => {
                self.stats.auth_failures += 1;
                return Vec::new();
            }
            Err(Verdict::Malformed) => {
                self.stats.malformed += 1;
                return Vec::new();
            }
        };
        if !self.seen.insert((msg.src, msg.seq)) {
            self.stats.duplicates += 1;
            return Vec::new();
        }
        self.deliver(&msg);
        if msg.dst != Destination::Daemon(self.id) {
            self.forward_queue.push(msg.src, msg);
        }
        // The daemon's FORWARD_BUDGET.
        let mut out = Vec::new();
        for item in self.forward_queue.drain(4) {
            out.extend(self.flood(&item.value, Some(neighbor)));
        }
        out
    }

    fn drain(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    fn counters(&self) -> DaemonStats {
        self.stats
    }
}

impl Node for SpinesDaemon {
    fn originate(&mut self, dst: Destination, payload: Bytes) -> Vec<(IpAddr, Bytes)> {
        match dst {
            Destination::Daemon(d) => self.unicast(d, 1, payload),
            Destination::Group(g) => self.multicast(g, 1, payload),
        }
    }

    fn receive(&mut self, from: IpAddr, data: &[u8]) -> Vec<(IpAddr, Bytes)> {
        self.on_wire(from, data)
    }

    fn drain(&mut self) -> Vec<Delivery> {
        self.take_deliveries()
    }

    fn counters(&self) -> DaemonStats {
        self.stats()
    }
}

/// One step of a script: `(kind, origin, target, size)`.
type Op = (u8, u32, u32, u8);

/// Everything observable about a run.
#[derive(PartialEq, Debug)]
struct Outcome {
    /// Every frame put on the wire: `(from, to, bytes)`, in order.
    transcript: Vec<(IpAddr, IpAddr, Bytes)>,
    deliveries: Vec<Vec<Delivery>>,
    stats: Vec<DaemonStats>,
}

/// Runs `script` over `mesh`, carrying every frame to its neighbour in
/// FIFO order until the overlay is quiet after each step.
fn run<N: Node>(mesh: &mut [N], script: &[Op]) -> Outcome {
    let mut transcript: Vec<(IpAddr, IpAddr, Bytes)> = Vec::new();
    let mut wire: VecDeque<(IpAddr, IpAddr, Bytes)> = VecDeque::new();
    for &(kind, origin, target, size) in script {
        let payload = Bytes::from(vec![size; size as usize]);
        match kind % 4 {
            0 => {
                let sends = mesh[origin as usize].originate(Destination::Group(GROUP), payload);
                wire.extend(sends.into_iter().map(|(to, b)| (addr(origin), to, b)));
            }
            1 => {
                let sends = mesh[origin as usize].originate(Destination::Daemon(target), payload);
                wire.extend(sends.into_iter().map(|(to, b)| (addr(origin), to, b)));
            }
            // Replay an earlier frame on its own link, verbatim or with
            // one byte flipped.
            flip => {
                if transcript.is_empty() {
                    continue;
                }
                let pick = (origin as usize * 251 + target as usize) % transcript.len();
                let (from, to, bytes) = transcript[pick].clone();
                let mut bytes = bytes.to_vec();
                if flip == 3 {
                    let at = size as usize % bytes.len();
                    bytes[at] ^= 0x40;
                }
                wire.push_back((from, to, Bytes::from(bytes)));
            }
        }
        while let Some((from, to, bytes)) = wire.pop_front() {
            let forwards = mesh[id_of(to) as usize].receive(from, &bytes);
            transcript.push((from, to, bytes));
            wire.extend(forwards.into_iter().map(|(next, b)| (to, next, b)));
        }
    }
    Outcome {
        transcript,
        deliveries: mesh.iter_mut().map(Node::drain).collect(),
        stats: mesh.iter().map(Node::counters).collect(),
    }
}

fn real_mesh() -> Vec<SpinesDaemon> {
    let cfg = mesh_config(SpinesMode::IntrusionTolerant);
    (0..DAEMONS)
        .map(|id| {
            let mut d = SpinesDaemon::new(id, cfg.clone());
            if id % 2 == 0 {
                d.subscribe(GROUP);
            }
            d
        })
        .collect()
}

fn reference_mesh() -> Vec<RefDaemon> {
    let cfg = mesh_config(SpinesMode::IntrusionTolerant);
    (0..DAEMONS)
        .map(|id| {
            let mut d = RefDaemon::new(id, cfg.clone());
            d.subscribed = id % 2 == 0;
            d
        })
        .collect()
}

proptest! {
    /// Arbitrary interleavings of multicasts, unicasts, replays and
    /// corrupted replays over a six-daemon full mesh: the same frames on
    /// the wire, the same deliveries and the same counters as the
    /// open-fully-then-check model.
    #[test]
    fn dedupe_before_decrypt_is_invisible(
        script in proptest::collection::vec((0u8..4, 0u32..DAEMONS, 0u32..DAEMONS, any::<u8>()), 1..24),
    ) {
        let real = run(&mut real_mesh(), &script);
        let reference = run(&mut reference_mesh(), &script);
        prop_assert_eq!(real, reference);
    }
}

/// A subscribed daemon next to daemon 0.
const RX: u32 = 2;

/// Daemon `RX` after receiving one multicast from daemon 0, the frame that
/// carried it, and its reference twin in the same state.
fn one_frame_delivered() -> (SpinesDaemon, RefDaemon, Bytes) {
    let (mut real, mut reference) = (real_mesh(), reference_mesh());
    let payload = Bytes::from(vec![5u8; 70]);
    let sends = real[0].originate(Destination::Group(GROUP), payload.clone());
    let ref_sends = reference[0].originate(Destination::Group(GROUP), payload);
    assert_eq!(sends, ref_sends);
    let (_, frame) = sends
        .into_iter()
        .find(|(to, _)| *to == addr(RX))
        .expect("a frame for the receiver");
    let (mut real, mut reference) = (real.remove(RX as usize), reference.remove(RX as usize));
    real.receive(addr(0), &frame);
    reference.receive(addr(0), &frame);
    assert_eq!(real.counters(), reference.counters());
    assert_eq!(real.stats().delivered, 1);
    (real, reference, frame)
}

#[test]
fn replay_with_a_flipped_tail_byte_fails_authentication() {
    // The tag covers the whole ciphertext and is checked before the peek:
    // a frame whose head still names a seen (src, seq) is not waved
    // through as a duplicate.
    let (mut real, mut reference, frame) = one_frame_delivered();
    let mut tampered = frame.to_vec();
    let last_ciphertext_byte = tampered.len() - 16 - 1;
    tampered[last_ciphertext_byte] ^= 1;
    real.receive(addr(0), &tampered);
    reference.receive(addr(0), &tampered);
    assert_eq!(real.stats().auth_failures, 1);
    assert_eq!(real.stats().duplicates, 0);
    assert_eq!(real.counters(), reference.counters());
    // The untouched frame is still just a duplicate.
    real.receive(addr(0), &frame);
    assert_eq!(real.stats().duplicates, 1);
}

#[test]
fn sealed_plaintext_shorter_than_the_dedup_key_is_malformed() {
    let (mut real, mut reference, _) = one_frame_delivered();
    let key = real.config().link_key(0, RX);
    for len in [0usize, 1, 11] {
        let frame = sealed_frame(&seal(&key, 1000 + len as u64, &vec![0u8; len]));
        real.receive(addr(0), &frame);
        reference.receive(addr(0), &frame);
    }
    assert_eq!(real.stats().malformed, 3);
    assert_eq!(real.counters(), reference.counters());
}

#[test]
fn truncated_and_mismatched_frames_keep_their_verdicts() {
    let (mut real, mut reference, frame) = one_frame_delivered();
    // Cut anywhere, or extended: the strict parse fails before any crypto.
    for cut in [0, 1, 9, 13, frame.len() - 17, frame.len() - 1] {
        real.receive(addr(0), &frame[..cut]);
        reference.receive(addr(0), &frame[..cut]);
    }
    let mut extended = frame.to_vec();
    extended.push(0);
    real.receive(addr(0), &extended);
    reference.receive(addr(0), &extended);
    assert_eq!(real.stats().malformed, 7);
    assert_eq!(real.stats().auth_failures, 0);
    // A legacy (plaintext) frame on an intrusion-tolerant network, and a
    // sealed frame on a legacy one, are authentication failures.
    let mut legacy_sender = SpinesDaemon::new(0, mesh_config(SpinesMode::Legacy));
    let sends = legacy_sender.multicast(GROUP, 1, Bytes::from_static(b"old"));
    real.receive(addr(0), &sends[0].1);
    reference.receive(addr(0), &sends[0].1);
    assert_eq!(real.stats().auth_failures, 1);
    assert_eq!(real.counters(), reference.counters());
    let mut legacy_receiver = SpinesDaemon::new(RX, mesh_config(SpinesMode::Legacy));
    legacy_receiver.on_wire(addr(0), &frame);
    assert_eq!(legacy_receiver.stats().auth_failures, 1);
    assert!(legacy_receiver.take_deliveries().is_empty());
}

#[test]
fn key_holder_replaying_a_seen_id_over_garbage_counts_as_duplicate() {
    // The one reachable difference: a daemon that holds the link key seals
    // a body that does not decode, under a (src, seq) its peer has seen.
    // The full open called that malformed; the peek never decodes it.
    // Either way the frame is dropped and nothing is delivered.
    let (mut real, mut reference, _) = one_frame_delivered();
    let key = real.config().link_key(0, RX);
    let mut body = vec![0xEEu8; 40];
    body[..4].copy_from_slice(&0u32.to_be_bytes()); // src 0
    body[4..12].copy_from_slice(&0u64.to_be_bytes()); // seq 0: delivered above
    let frame = sealed_frame(&seal(&key, 77, &body));
    let before = real.counters();
    assert!(real.receive(addr(0), &frame).is_empty());
    assert!(reference.receive(addr(0), &frame).is_empty());
    assert_eq!(real.stats().duplicates, before.duplicates + 1);
    assert_eq!(real.stats().malformed, before.malformed);
    assert_eq!(reference.stats.malformed, before.malformed + 1);
    assert!(real.take_deliveries().len() == 1 && reference.drain().len() == 1);
    // Under an unseen (src, seq) the same body is malformed for both.
    body[4..12].copy_from_slice(&9u64.to_be_bytes());
    let frame = sealed_frame(&seal(&key, 78, &body));
    real.receive(addr(0), &frame);
    assert_eq!(real.stats().malformed, before.malformed + 1);
}
