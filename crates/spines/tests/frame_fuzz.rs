//! Byte-level fuzz properties of what a Spines daemon reads off the wire:
//! the sealed link frame and the `SpinesMsg` inside it.
//!
//! - Arbitrary bytes from a neighbour never panic `on_wire`, are never
//!   delivered and never forwarded.
//! - Every single-byte change to a sealed frame (mode byte, nonce, length,
//!   ciphertext or tag), and every truncation or extension of one, counts
//!   as an authentication failure or as malformed, and is never delivered.
//! - Every byte string `SpinesMsg` decodes re-encodes to the same bytes, so
//!   no two encodings name one message.

use bytes::Bytes;
use proptest::prelude::*;
use simnet::types::{IpAddr, Port};
use simnet::wire::{Wire, Writer};
use spines::{SpinesConfig, SpinesDaemon, SpinesMode, SpinesMsg};

const GROUP: u16 = 7;

fn addr(id: u32) -> IpAddr {
    IpAddr::new(10, 1, 0, id as u8 + 1)
}

/// Daemons 0 and 1 of a three-daemon intrusion-tolerant mesh; daemon 1
/// subscribes to [`GROUP`].
fn pair() -> (SpinesDaemon, SpinesDaemon) {
    let cfg = SpinesConfig::full_mesh(
        (0..3).map(|i| (i, addr(i))),
        Port(8100),
        [9; 32],
        SpinesMode::IntrusionTolerant,
    );
    let mut rx = SpinesDaemon::new(1, cfg.clone());
    rx.subscribe(GROUP);
    (SpinesDaemon::new(0, cfg), rx)
}

/// The frame daemon 0 seals to daemon 1 for a multicast of `payload`.
fn sealed_frame(tx: &mut SpinesDaemon, payload: Vec<u8>) -> Bytes {
    let sends = tx.multicast(GROUP, 1, Bytes::from(payload));
    let (_, frame) = sends
        .into_iter()
        .find(|(to, _)| *to == addr(1))
        .expect("a frame for daemon 1");
    frame
}

/// Feeds `frame` to `rx` from daemon 0 and asserts that it was refused as
/// an authentication failure or as malformed, and went nowhere.
fn assert_refused(rx: &mut SpinesDaemon, frame: &[u8], what: &str) {
    let before = rx.stats();
    let out = rx.on_wire(addr(0), frame);
    let after = rx.stats();
    assert!(out.is_empty(), "{what}: forwarded");
    assert!(rx.take_deliveries().is_empty(), "{what}: delivered");
    let refused =
        (after.auth_failures - before.auth_failures) + (after.malformed - before.malformed);
    assert_eq!(refused, 1, "{what}: {before:?} -> {after:?}");
    assert_eq!(after.delivered, before.delivered, "{what}");
    assert_eq!(after.duplicates, before.duplicates, "{what}");
}

proptest! {
    /// Bytes from a neighbour that no key holder sealed: raw noise, and
    /// noise shaped as a sealed frame (mode byte 1, a length that matches,
    /// a random tag), which reaches the tag check.
    #[test]
    fn arbitrary_bytes_are_never_delivered(
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        nonce in any::<u64>(),
        forged in proptest::collection::vec(any::<u8>(), 0..200),
        tag in any::<[u8; 16]>(),
    ) {
        let (_, mut rx) = pair();
        let out = rx.on_wire(addr(0), &noise);
        prop_assert!(out.is_empty());
        prop_assert!(rx.take_deliveries().is_empty());
        let mut w = Writer::new();
        w.put_u8(1).put_u64(nonce).put_bytes(&forged).put_raw(&tag);
        assert_refused(&mut rx, &w.finish(), "forged frame");
        prop_assert_eq!(rx.stats().auth_failures, 1);
    }

    /// Every byte of a sealed frame changed in turn, every proper prefix,
    /// and the frame with bytes appended: all refused. The untouched frame
    /// is delivered afterwards, so the receiver would have taken it.
    #[test]
    fn every_altered_sealed_frame_is_refused(
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        flip in 1u16..256,
        tail in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let (mut tx, mut rx) = pair();
        let frame = sealed_frame(&mut tx, payload.clone());
        let flip = flip as u8;
        for at in 0..frame.len() {
            let mut altered = frame.to_vec();
            altered[at] ^= flip;
            assert_refused(&mut rx, &altered, &format!("byte {at} ^ {flip:#04x}"));
        }
        for cut in 0..frame.len() {
            assert_refused(&mut rx, &frame[..cut], &format!("cut to {cut}"));
        }
        for extra in 1..=tail.len() {
            let extended = [&frame[..], &tail[..extra]].concat();
            assert_refused(&mut rx, &extended, &format!("{extra} bytes appended"));
        }
        rx.on_wire(addr(0), &frame);
        let delivered = rx.take_deliveries();
        prop_assert_eq!(delivered.len(), 1);
        prop_assert_eq!(&delivered[0].payload[..], &payload[..]);
    }

    /// Byte strings shaped like a `SpinesMsg` (any destination tag, any
    /// four-byte id, any kind, a length prefix that may or may not match)
    /// either fail to decode or re-encode to exactly themselves.
    #[test]
    fn every_decoded_message_reencodes_to_its_bytes(
        head in (any::<u32>(), any::<u64>()),
        dst in (0u8..3, any::<u32>(), any::<bool>()),
        priority_kind in (any::<u8>(), 0u8..3),
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        skew in 0u32..3,
    ) {
        let (tag, id, small) = dst;
        // Half the ids fit a u16, so group destinations decode too.
        let id = if small { id & 0xffff } else { id };
        let mut w = Writer::new();
        w.put_u32(head.0).put_u64(head.1).put_u8(tag).put_u32(id);
        w.put_u8(priority_kind.0).put_u8(priority_kind.1);
        w.put_u32(payload.len() as u32 + skew).put_raw(&payload);
        let bytes = w.finish();
        for len in [bytes.len(), bytes.len() - 1] {
            if let Ok(msg) = SpinesMsg::from_wire(&bytes[..len]) {
                prop_assert_eq!(&msg.to_wire()[..], &bytes[..len]);
            }
        }
    }
}
