//! Byte-level fuzz properties of `ExternalMsg`, what a replica, proxy or
//! HMI reads out of every external Spines delivery.
//!
//! - Arbitrary bytes, bare or behind each message tag, never panic the
//!   decoder.
//! - Every byte string `ExternalMsg` decodes re-encodes to the same bytes:
//!   a valid encoding with any one byte changed either fails to decode or
//!   names a message that encodes back to exactly that string, so no two
//!   encodings name one message. Bytes appended to one always fail.
//! - Every strict prefix of a valid encoding fails to decode.

use bytes::Bytes;
use itcrypto::schnorr::Signature;
use prime::types::{SignedUpdate, Update};
use proptest::prelude::*;
use simnet::wire::Wire;
use spire::messages::ExternalMsg;

/// A message of kind `kind % 3` built from the drawn fields.
fn message(
    kind: u8,
    text: &[u8],
    ids: (u32, u64, u64),
    bits: &[bool],
    words: &[u16],
) -> ExternalMsg {
    let (replica, seq, sig) = ids;
    let scenario: String = text.iter().map(|b| char::from(b'a' + b % 26)).collect();
    match kind % 3 {
        0 => ExternalMsg::ClientUpdate(SignedUpdate {
            update: Update::new(replica, seq, Bytes::from(text.to_vec())),
            sig: Signature {
                e: sig,
                s: seq ^ sig,
            },
        }),
        1 => ExternalMsg::PlcCommand {
            replica,
            scenario,
            breaker: sig as u16,
            close: bits.first() == Some(&true),
            exec_seq: seq,
        },
        _ => ExternalMsg::HmiFrame {
            replica,
            scenario,
            positions: bits.to_vec(),
            currents: words.to_vec(),
            exec_seq: seq,
        },
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        kind in 0u8..4,
    ) {
        let _ = ExternalMsg::from_wire(&noise);
        let tagged = [&[kind][..], &noise].concat();
        let _ = ExternalMsg::from_wire(&tagged);
    }

    #[test]
    fn every_decoded_message_reencodes_to_its_bytes(
        kind in 0u8..3,
        text in proptest::collection::vec(any::<u8>(), 0..12),
        ids in (any::<u32>(), any::<u64>(), any::<u64>()),
        fields in (
            proptest::collection::vec(any::<bool>(), 0..10),
            proptest::collection::vec(any::<u16>(), 0..10),
        ),
        flip in 1u16..256,
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let msg = message(kind, &text, ids, &fields.0, &fields.1);
        let bytes = msg.to_wire();
        prop_assert_eq!(ExternalMsg::from_wire(&bytes).ok(), Some(msg));
        for at in 0..bytes.len() {
            let mut altered = bytes.to_vec();
            altered[at] ^= flip as u8;
            if let Ok(other) = ExternalMsg::from_wire(&altered) {
                prop_assert_eq!(&other.to_wire()[..], &altered[..], "byte {}", at);
            }
        }
        let extended = [&bytes[..], &tail].concat();
        prop_assert!(ExternalMsg::from_wire(&extended).is_err());
    }

    #[test]
    fn every_strict_prefix_fails(
        kind in 0u8..3,
        text in proptest::collection::vec(any::<u8>(), 0..12),
        ids in (any::<u32>(), any::<u64>(), any::<u64>()),
        fields in (
            proptest::collection::vec(any::<bool>(), 0..10),
            proptest::collection::vec(any::<u16>(), 0..10),
        ),
    ) {
        let bytes = message(kind, &text, ids, &fields.0, &fields.1).to_wire();
        for cut in 0..bytes.len() {
            prop_assert!(ExternalMsg::from_wire(&bytes[..cut]).is_err(), "cut to {}", cut);
        }
    }
}
