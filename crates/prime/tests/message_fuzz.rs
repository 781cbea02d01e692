//! Byte-level fuzz properties of `SignedMsg`, what a replica reads out of
//! every internal Spines delivery.
//!
//! - Arbitrary bytes, bare or behind each live message tag, never panic
//!   the decoder.
//! - Every byte string `SignedMsg` decodes re-encodes to the same bytes:
//!   a signed envelope with any one byte changed either fails to decode or
//!   names a message that encodes back to exactly that string, so no two
//!   encodings name one message. Bytes appended to one always fail.
//! - Every strict prefix of a signed envelope fails to decode.
//! - A signed envelope with any one byte changed is refused, by the
//!   decoder or by `verify`.

use bytes::Bytes;
use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use itcrypto::schnorr::Signature;
use itcrypto::sha256::Digest;
use prime::messages::{AruRow, Envelope, PoBatch, PrimeMsg, SignedMsg};
use prime::types::{ReplicaId, SignedUpdate, Update};
use proptest::prelude::*;
use simnet::wire::Wire;

/// The wire tags a live message can carry (0, 6, 8, 13 and 17 are
/// retired).
const LIVE_TAGS: [u8; 13] = [1, 2, 3, 4, 5, 7, 9, 10, 11, 12, 14, 15, 16];

/// The sender of every generated envelope.
const SENDER: ReplicaId = ReplicaId(2);

/// The drawn fields a message is built from.
type Fields = ((u64, u64), Vec<u8>, Vec<u64>, Vec<bool>);

fn fields() -> impl Strategy<Value = Fields> {
    (
        (any::<u64>(), any::<u64>()),
        proptest::collection::vec(any::<u8>(), 0..12),
        proptest::collection::vec(any::<u64>(), 0..4),
        proptest::collection::vec(any::<bool>(), 0..4),
    )
}

fn signature(a: u64, b: u64) -> Signature {
    Signature { e: a, s: a ^ b }
}

fn update(((a, b), bytes, _, _): &Fields) -> SignedUpdate {
    SignedUpdate {
        update: Update::new(*a as u32, *b, Bytes::from(bytes.clone())),
        sig: signature(*b, *a),
    }
}

fn row(((a, b), _, words, _): &Fields) -> AruRow {
    AruRow {
        replica: ReplicaId(*a as u32 % 7),
        vector: words.clone(),
        sig: signature(*a, *b),
    }
}

fn digest(a: u64) -> Digest {
    let mut raw = [0u8; 32];
    for (i, chunk) in raw.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&a.rotate_left(8 * i as u32).to_be_bytes());
    }
    Digest(raw)
}

/// The message carried under wire tag `LIVE_TAGS[kind]`, built from `f`.
fn message(kind: usize, f: &Fields) -> PrimeMsg {
    let ((a, b), bytes, words, bits) = f;
    let matrix = || vec![row(f); bits.len()];
    match LIVE_TAGS[kind % LIVE_TAGS.len()] {
        1 => PrimeMsg::PoAru { row: row(f) },
        2 => PrimeMsg::PrePrepare {
            view: *a,
            seq: *b,
            matrix: matrix(),
        },
        3 => PrimeMsg::Prepare {
            view: *a,
            seq: *b,
            digest: digest(*a ^ *b),
        },
        4 => PrimeMsg::Commit {
            view: *a,
            seq: *b,
            digest: digest(*b),
        },
        5 => PrimeMsg::PoFetch {
            origin: ReplicaId(*b as u32),
            po_seq: *a,
        },
        7 => PrimeMsg::SuspectLeader { view: *a },
        9 => PrimeMsg::NewView {
            view: *a,
            start_seq: *b,
        },
        10 => PrimeMsg::Checkpoint {
            exec_seq: *a,
            app_digest: digest(*b),
        },
        11 => PrimeMsg::CatchupRequest { have_exec_seq: *b },
        12 => PrimeMsg::CatchupReply {
            exec_seq: *a,
            app_digest: digest(*a),
            snapshot: bytes.clone(),
            dedup: words
                .iter()
                .map(|&w| (w as u32, w >> 32, words.clone()))
                .collect(),
            next_order_seq: *b,
            exec_cover: words.clone(),
            view: *a ^ *b,
        },
        14 => PrimeMsg::PoRequestBatch {
            batch: PoBatch {
                origin: ReplicaId(*a as u32),
                first_po_seq: *b,
                updates: vec![update(f); 1 + bits.len()],
                root_sig: signature(*a, *a),
            },
        },
        15 => PrimeMsg::PoBatchMember {
            origin: ReplicaId(*a as u32),
            first_po_seq: *b,
            count: 1 + bits.len() as u32,
            index: bits.len() as u32,
            update: update(f),
            path: bits.iter().map(|&left| (digest(*a), left)).collect(),
            root_sig: signature(*b, *b),
        },
        _ => PrimeMsg::ViewChangeWindow {
            new_view: *a,
            max_committed: *b,
            certs: words.iter().map(|&w| (w, *a, matrix())).collect(),
        },
    }
}

/// `msg` signed by [`SENDER`], with the registry that knows its key.
fn signed(msg: PrimeMsg) -> (Bytes, SignedMsg, KeyRegistry) {
    let mut key = KeyPair::generate(0x5eed);
    let mut registry = KeyRegistry::new();
    registry.register(Principal::Replica(SENDER.0), key.public_key());
    let env = Envelope::sign(SENDER, msg, &mut key);
    (env.wire, env.msg, registry)
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        kind in 0usize..LIVE_TAGS.len(),
    ) {
        let _ = SignedMsg::from_wire(&noise);
        let tagged = [&SENDER.0.to_be_bytes()[..], &[LIVE_TAGS[kind]], &noise].concat();
        let _ = SignedMsg::from_wire(&tagged);
    }

    #[test]
    fn every_decoded_message_reencodes_to_its_bytes(
        kind in 0usize..LIVE_TAGS.len(),
        f in fields(),
        flip in 1u16..256,
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let (wire, msg, _) = signed(message(kind, &f));
        prop_assert_eq!(SignedMsg::from_wire(&wire).ok(), Some(msg));
        for at in 0..wire.len() {
            let mut altered = wire.to_vec();
            altered[at] ^= flip as u8;
            if let Ok(other) = SignedMsg::from_wire(&altered) {
                prop_assert_eq!(&other.to_wire()[..], &altered[..], "byte {}", at);
            }
        }
        let extended = [&wire[..], &tail].concat();
        prop_assert!(SignedMsg::from_wire(&extended).is_err());
    }

    #[test]
    fn every_strict_prefix_fails(kind in 0usize..LIVE_TAGS.len(), f in fields()) {
        let (wire, _, _) = signed(message(kind, &f));
        for cut in 0..wire.len() {
            prop_assert!(SignedMsg::from_wire(&wire[..cut]).is_err(), "cut to {}", cut);
        }
    }

    #[test]
    fn a_changed_byte_is_refused_by_decode_or_verify(
        kind in 0usize..LIVE_TAGS.len(),
        f in fields(),
        flip in 1u16..256,
    ) {
        let (wire, msg, registry) = signed(message(kind, &f));
        prop_assert!(msg.verify(&registry));
        for at in 0..wire.len() {
            let mut altered = wire.to_vec();
            altered[at] ^= flip as u8;
            if let Ok(other) = SignedMsg::from_wire(&altered) {
                prop_assert!(!other.verify(&registry), "byte {} of {:?}", at, other.msg);
            }
        }
    }
}
