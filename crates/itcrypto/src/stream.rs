//! Counter-mode stream cipher and encrypt-then-MAC envelope used for Spines
//! link encryption.
//!
//! Keystream block `i` for nonce `n` is the keyed inner hash
//! `SHA-256((key ^ ipad) ‖ n ‖ i)`: **one** compression of `n ‖ i ‖ padding`
//! from the key's precomputed inner midstate, 32 bytes of keystream each.
//! Ciphertext is plaintext XOR keystream. The PRF assumption is the one
//! HMAC's own proof rests on: the SHA-256 compression function keyed
//! through its chaining input, here on a fixed-length input (so there is
//! no extension to guard against and no outer hash to pay for). The
//! encryption key is never used as a MAC key. The red-team experiment
//! hinges on this layer: the modified Spines daemon without the link keys
//! cannot produce valid traffic (§IV-B).

use crate::hmac::HmacKey;

/// Bytes of keystream one PRF call (one compression) yields.
pub const KEYSTREAM_BLOCK: usize = 32;

/// Encrypts or decrypts `data` in place (XOR stream, so the operation is an
/// involution).
///
/// # Examples
///
/// ```
/// use itcrypto::stream::xor_stream;
///
/// let key = [7u8; 32];
/// let mut data = b"breaker B57 trip".to_vec();
/// xor_stream(&key, 42, &mut data);
/// assert_ne!(&data, b"breaker B57 trip");
/// xor_stream(&key, 42, &mut data);
/// assert_eq!(&data, b"breaker B57 trip");
/// ```
pub fn xor_stream(key: &[u8; 32], nonce: u64, data: &mut [u8]) {
    xor_stream_with(&HmacKey::new(key), nonce, data);
}

/// [`xor_stream`] with a precomputed PRF key: every 32-byte keystream
/// block costs one SHA-256 compression.
pub fn xor_stream_with(key: &HmacKey, nonce: u64, data: &mut [u8]) {
    xor_blocks(key, nonce, 0, data);
}

/// XORs keystream blocks `first_block..` of `nonce` over `data`.
fn xor_blocks(key: &HmacKey, nonce: u64, first_block: u64, data: &mut [u8]) {
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&nonce.to_be_bytes());
    for (counter, chunk) in (first_block..).zip(data.chunks_mut(KEYSTREAM_BLOCK)) {
        input[8..].copy_from_slice(&counter.to_be_bytes());
        let ks = key.inner_hash16(&input);
        for (byte, k) in chunk.iter_mut().zip(ks) {
            *byte ^= k;
        }
    }
}

/// The pre-derived per-link key pair (encryption PRF + MAC). Deriving and
/// precomputing once per link replaces two HKDF derivations plus two HMAC
/// key setups on every frame. The methods are the envelope's three steps
/// taken apart, so a caller can seal into its own buffer and can
/// authenticate a frame before deciding how much of it to decrypt.
#[derive(Clone)]
pub struct LinkKeys {
    enc: HmacKey,
    mac: HmacKey,
}

impl LinkKeys {
    /// Derives the encryption and MAC subkeys from `link_key` exactly as
    /// [`seal`]/[`open`] do internally.
    pub fn derive(link_key: &[u8; 32]) -> Self {
        LinkKeys {
            enc: HmacKey::new(&crate::hmac::derive_key(link_key, b"enc")),
            mac: HmacKey::new(&crate::hmac::derive_key(link_key, b"mac")),
        }
    }

    /// Encrypts `buf` in place under `nonce` and returns the tag over
    /// `nonce ‖ ciphertext` (encrypt-then-MAC).
    pub fn seal_in_place(&self, nonce: u64, buf: &mut [u8]) -> [u8; 32] {
        xor_stream_with(&self.enc, nonce, buf);
        self.mac.mac_concat(&[&nonce.to_be_bytes(), buf]).0
    }

    /// Whether `tag` authenticates `nonce ‖ ciphertext`.
    pub fn verify(&self, nonce: u64, ciphertext: &[u8], tag: &[u8; 32]) -> bool {
        let expect = self.mac.mac_concat(&[&nonce.to_be_bytes(), ciphertext]);
        crate::hmac::verify_tag(&expect, &crate::sha256::Digest(*tag))
    }

    /// Decrypts `data`, a piece of the ciphertext of `nonce` that starts
    /// `first_block` whole [`KEYSTREAM_BLOCK`]s into it. Call only on
    /// ciphertext [`LinkKeys::verify`] accepted.
    pub fn decrypt_from(&self, nonce: u64, first_block: u64, data: &mut [u8]) {
        xor_blocks(&self.enc, nonce, first_block, data);
    }
}

/// An authenticated, encrypted envelope: encrypt-then-MAC with separate keys
/// derived from one link key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// Nonce used for the stream cipher (unique per message per link).
    pub nonce: u64,
    /// Ciphertext bytes.
    pub ciphertext: Vec<u8>,
    /// HMAC tag over `nonce || ciphertext`.
    pub tag: [u8; 32],
}

/// Seals `plaintext` under `link_key` with the given `nonce`.
pub fn seal(link_key: &[u8; 32], nonce: u64, plaintext: &[u8]) -> SealedBox {
    let mut ciphertext = plaintext.to_vec();
    let tag = LinkKeys::derive(link_key).seal_in_place(nonce, &mut ciphertext);
    SealedBox {
        nonce,
        ciphertext,
        tag,
    }
}

/// Opens a sealed box, returning the plaintext if the tag verifies.
pub fn open(link_key: &[u8; 32], sealed: &SealedBox) -> Option<Vec<u8>> {
    let keys = LinkKeys::derive(link_key);
    if !keys.verify(sealed.nonce, &sealed.ciphertext, &sealed.tag) {
        return None;
    }
    let mut plaintext = sealed.ciphertext.clone();
    keys.decrypt_from(sealed.nonce, 0, &mut plaintext);
    Some(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::probe::{compressions, on_each_backend};

    const KEY: [u8; 32] = [9u8; 32];

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal(&KEY, 1, b"hello plant");
        assert_eq!(open(&KEY, &sealed), Some(b"hello plant".to_vec()));
    }

    #[test]
    fn wrong_key_fails() {
        let sealed = seal(&KEY, 1, b"hello");
        let other = [8u8; 32];
        assert_eq!(open(&other, &sealed), None);
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut sealed = seal(&KEY, 1, b"hello");
        sealed.ciphertext[0] ^= 0xff;
        assert_eq!(open(&KEY, &sealed), None);
    }

    #[test]
    fn tampered_nonce_fails() {
        let mut sealed = seal(&KEY, 1, b"hello");
        sealed.nonce = 2;
        assert_eq!(open(&KEY, &sealed), None);
    }

    #[test]
    fn tampered_tag_fails() {
        let mut sealed = seal(&KEY, 1, b"hello");
        sealed.tag[31] ^= 1;
        assert_eq!(open(&KEY, &sealed), None);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_by_nonce() {
        let a = seal(&KEY, 1, b"same message");
        let b = seal(&KEY, 2, b"same message");
        assert_ne!(a.ciphertext, b"same message");
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn empty_message_roundtrip() {
        let sealed = seal(&KEY, 7, b"");
        assert_eq!(open(&KEY, &sealed), Some(Vec::new()));
    }

    #[test]
    fn long_message_roundtrip() {
        let msg: Vec<u8> = (0..10_000u32).map(|x| x as u8).collect();
        let sealed = seal(&KEY, 3, &msg);
        assert_eq!(open(&KEY, &sealed), Some(msg));
    }

    #[test]
    fn link_keys_steps_match_oneshot_exactly() {
        let keys = LinkKeys::derive(&KEY);
        for (nonce, msg) in [(1u64, &b"short"[..]), (7, &[0u8; 100][..]), (9, &[][..])] {
            let sealed = seal(&KEY, nonce, msg);
            let mut buf = msg.to_vec();
            let tag = keys.seal_in_place(nonce, &mut buf);
            assert_eq!((buf.as_slice(), tag), (&sealed.ciphertext[..], sealed.tag));
            assert!(keys.verify(nonce, &buf, &tag));
            // Head block first, then the rest: the same plaintext.
            let split = buf.len().min(KEYSTREAM_BLOCK);
            let (head, rest) = buf.split_at_mut(split);
            keys.decrypt_from(nonce, 0, head);
            keys.decrypt_from(nonce, 1, rest);
            assert_eq!(buf, msg);
        }
        let sealed = seal(&KEY, 3, b"cross");
        let mut bad = sealed.ciphertext.clone();
        bad[0] ^= 1;
        assert!(!keys.verify(3, &bad, &sealed.tag));
        assert!(!keys.verify(4, &sealed.ciphertext, &sealed.tag));
    }

    /// Pinned envelope bytes, produced by an independent implementation
    /// of the construction in the module docs (Python `hashlib`/`hmac`):
    /// link key `00..1f`, nonce `0x0102030405060708`, plaintext byte `i` =
    /// `7i + 3`. A change to the keystream, the MAC input or the key
    /// derivation has to change these on purpose.
    #[test]
    fn seal_known_answers() {
        let link_key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let nonce = 0x0102_0304_0506_0708;
        let long = "6ff8024ab12e9b6d9828cbeb3c1ba2473bec4b30d7565a445fdbd035ced2ed20\
                    d4215025833ee69948c1bab1dde18595547143e69f74ad042a21fc7cb730b02a\
                    2df6a8b79f352d903ac0016c2a72ec672c0715df83917c0db5f38ecd45b02754\
                    667b9a9e";
        let vectors = [
            (
                0usize,
                "9c6ea14faa9a922dcda9d8215cdb004371b555868b60cbee6150f65518526ab2",
            ),
            (
                1,
                "480fe406b7ecfa5333f7210cfdb46f094d429ed509e017a7820de358667371f4",
            ),
            (
                31,
                "79bf7f38efc717b511f7e5d16a607e3a680b49cb92bcbcdd0f030c3195339831",
            ),
            (
                32,
                "21cf187930ca13c4f725535a2096dea37d52bd531f929f6a766671986dc7c4c7",
            ),
            (
                33,
                "521099e285016aae1beb88ee4d7f14dcb50369ae1ac60bb9c2c755cf0ebdce84",
            ),
            (
                100,
                "3a126fe1b653c50a5e5c61261859630a915874ca59c726333a7449701ce14bad",
            ),
        ];
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        on_each_backend(|| {
            for (len, tag) in vectors {
                let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let sealed = seal(&link_key, nonce, &plaintext);
                // Every ciphertext is a prefix of the longest: one keystream.
                assert_eq!(hex(&sealed.ciphertext), long[..2 * len], "len={len}");
                assert_eq!(hex(&sealed.tag), tag, "len={len}");
                assert_eq!(open(&link_key, &sealed), Some(plaintext));
            }
        });
    }

    /// The Spines hop budget in SHA-256 compressions, for an 88-byte
    /// overlay message (three keystream blocks; nonce + ciphertext fill two
    /// MAC blocks, and the outer hash is a third).
    #[test]
    fn hop_budget_in_compressions() {
        let keys = LinkKeys::derive(&KEY);
        let mut buf = [0x11u8; 88];
        let mut tag = [0u8; 32];
        assert_eq!(compressions(|| tag = keys.seal_in_place(9, &mut buf)), 6);
        // A duplicate: authenticate the frame, decrypt the first block.
        let mut head = [0u8; KEYSTREAM_BLOCK];
        head.copy_from_slice(&buf[..KEYSTREAM_BLOCK]);
        let peek = compressions(|| {
            assert!(keys.verify(9, &buf, &tag));
            keys.decrypt_from(9, 0, &mut head);
        });
        assert_eq!(peek, 4);
        assert_eq!(head, [0x11; KEYSTREAM_BLOCK]);
        // A new message: decrypt the rest as well.
        let rest = compressions(|| keys.decrypt_from(9, 1, &mut buf[KEYSTREAM_BLOCK..]));
        assert_eq!(peek + rest, 6);
        assert_eq!(buf[KEYSTREAM_BLOCK..], [0x11; 88 - KEYSTREAM_BLOCK]);
    }

    #[test]
    fn xor_stream_block_boundaries() {
        // Lengths around the 32-byte block size.
        for len in [0usize, 1, 31, 32, 33, 64, 65] {
            let mut data: Vec<u8> = (0..len).map(|x| x as u8).collect();
            let orig = data.clone();
            xor_stream(&KEY, 5, &mut data);
            xor_stream(&KEY, 5, &mut data);
            assert_eq!(data, orig, "len={len}");
        }
    }
}
