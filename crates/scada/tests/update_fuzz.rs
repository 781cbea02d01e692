//! Byte-level fuzz properties of `ScadaUpdate`, the payload of every
//! update Prime orders and every replica applies.
//!
//! - Arbitrary bytes, bare or behind each update tag, never panic the
//!   decoder.
//! - Every byte string `ScadaUpdate` decodes re-encodes to the same bytes:
//!   a valid encoding with any one byte changed either fails to decode or
//!   names a message that encodes back to exactly that string, so no two
//!   encodings name one update. Bytes appended to one always fail.
//! - Every strict prefix of a valid encoding fails to decode.

use proptest::prelude::*;
use scada::updates::{DeviceReport, ScadaUpdate};
use simnet::wire::Wire;

/// An ASCII scenario tag from arbitrary bytes.
fn tag(text: &[u8]) -> String {
    text.iter().map(|b| char::from(b'a' + b % 26)).collect()
}

/// An update of kind `kind % 4` built from the drawn fields.
fn update(kind: u8, text: &[u8], seq: u64, bits: &[bool], words: &[u16]) -> ScadaUpdate {
    let scenario = tag(text);
    match kind % 4 {
        0 => ScadaUpdate::RtuStatus {
            scenario,
            poll_seq: seq,
            positions: bits.to_vec(),
            currents: words.to_vec(),
        },
        1 => ScadaUpdate::HmiCommand {
            scenario,
            breaker: seq as u16,
            close: bits.first() == Some(&true),
        },
        2 => ScadaUpdate::FieldRebaseline {
            scenario,
            positions: bits.to_vec(),
        },
        _ => ScadaUpdate::SubstationReport {
            station: seq as u32,
            devices: (0..words.len() % 4)
                .map(|d| DeviceReport {
                    scenario: format!("{scenario}{d}"),
                    poll_seq: seq.rotate_left(d as u32),
                    positions: bits[d.min(bits.len())..].to_vec(),
                    currents: words[d..].to_vec(),
                })
                .collect(),
        },
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        kind in 0u8..5,
    ) {
        let _ = ScadaUpdate::from_wire(&noise);
        let tagged = [&[kind][..], &noise].concat();
        let _ = ScadaUpdate::from_wire(&tagged);
    }

    #[test]
    fn every_decoded_update_reencodes_to_its_bytes(
        kind in 0u8..4,
        text in proptest::collection::vec(any::<u8>(), 0..12),
        seq in any::<u64>(),
        fields in (
            proptest::collection::vec(any::<bool>(), 0..10),
            proptest::collection::vec(any::<u16>(), 0..10),
        ),
        flip in 1u16..256,
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let u = update(kind, &text, seq, &fields.0, &fields.1);
        let bytes = u.to_wire();
        prop_assert_eq!(ScadaUpdate::from_wire(&bytes).ok(), Some(u));
        for at in 0..bytes.len() {
            let mut altered = bytes.to_vec();
            altered[at] ^= flip as u8;
            if let Ok(other) = ScadaUpdate::from_wire(&altered) {
                prop_assert_eq!(&other.to_wire()[..], &altered[..], "byte {}", at);
            }
        }
        let extended = [&bytes[..], &tail].concat();
        prop_assert!(ScadaUpdate::from_wire(&extended).is_err());
    }

    #[test]
    fn every_strict_prefix_fails(
        kind in 0u8..4,
        text in proptest::collection::vec(any::<u8>(), 0..12),
        seq in any::<u64>(),
        fields in (
            proptest::collection::vec(any::<bool>(), 0..10),
            proptest::collection::vec(any::<u16>(), 0..10),
        ),
    ) {
        let bytes = update(kind, &text, seq, &fields.0, &fields.1).to_wire();
        for cut in 0..bytes.len() {
            prop_assert!(ScadaUpdate::from_wire(&bytes[..cut]).is_err(), "cut to {}", cut);
        }
    }
}
