//! Counter-mode stream cipher and encrypt-then-MAC envelope used for Spines
//! link encryption.
//!
//! The keystream is AES-256 in counter mode ([`crate::aes`]), the cipher
//! the paper's Spines takes from OpenSSL: keystream block `i` for nonce
//! `n` is `AES-256(key, n ‖ i)`, both big-endian in eight bytes each, 16
//! bytes of keystream a block, and ciphertext is plaintext XOR keystream.
//! The counter `i` wraps modulo 2⁶⁴ and never carries into `n`. The
//! encryption key is never used as a MAC key. The red-team experiment
//! hinges on this layer: the modified Spines daemon without the link keys
//! cannot produce valid traffic (§IV-B).

use crate::aes::Aes256;
use crate::hmac::HmacKey;

/// Bytes of keystream one PRF call (one AES block) yields.
pub const KEYSTREAM_BLOCK: usize = crate::aes::BLOCK;

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
    Aes256::new(key).ctr_xor(nonce, 0, data);
}

/// The pre-derived per-link key pair (encryption + MAC). Deriving and
/// precomputing once per link replaces two HKDF derivations, an AES key
/// expansion and an HMAC key setup on every frame. The methods are the envelope's three steps
/// taken apart, so a caller can seal into its own buffer and can
/// authenticate a frame before deciding how much of it to decrypt.
#[derive(Clone)]
pub struct LinkKeys {
    enc: Aes256,
    mac: HmacKey,
}

impl LinkKeys {
    /// Derives the encryption and MAC subkeys from `link_key` exactly as
    /// [`seal`]/[`open`] do internally.
    pub fn derive(link_key: &[u8; 32]) -> Self {
        LinkKeys {
            enc: Aes256::new(&crate::hmac::derive_key(link_key, b"enc")),
            mac: HmacKey::new(&crate::hmac::derive_key(link_key, b"mac")),
        }
    }

    /// Encrypts `buf` in place under `nonce` and returns the tag over
    /// `nonce ‖ ciphertext` (encrypt-then-MAC).
    pub fn seal_in_place(&self, nonce: u64, buf: &mut [u8]) -> [u8; 32] {
        self.enc.ctr_xor(nonce, 0, buf);
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
        self.enc.ctr_xor(nonce, first_block, data);
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
    use crate::aes::probe::aes_blocks;
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

    /// Pinned envelope bytes from outside this repository: link key
    /// `00..1f`, nonce `0x0102030405060708`, plaintext byte `i` = `7i + 3`,
    /// ciphertext from OpenSSL 3.5 and tag from Python `hmac`:
    ///
    /// ```text
    /// enc = hmac.new(link_key, b"enc", hashlib.sha256).digest()
    /// mac = hmac.new(link_key, b"mac", hashlib.sha256).digest()
    /// ct  = $(openssl enc -aes-256-ctr -K <enc hex> -iv 01020304050607080000000000000000 < plaintext)
    /// tag = hmac.new(mac, nonce.to_bytes(8, "big") + ct, hashlib.sha256).hexdigest()
    /// ```
    ///
    /// A change to the keystream, the MAC input or the key derivation has
    /// to change these on purpose.
    #[test]
    fn seal_known_answers() {
        let link_key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let nonce = 0x0102_0304_0506_0708;
        let long = "0235c2b128fd7b985de42b31c556e7d0978d498e15eef199c6be2ad9301c204c\
                    941d1192e34c06c481ce70333770433c07f069acaa690a53dcb2173d302b6da1\
                    90f6f78a4b5f3ed302b80147572e8d7831d5597b28271fa240ba7ee23d958bcc\
                    8a92d9aa";
        let vectors = [
            (
                0usize,
                "9c6ea14faa9a922dcda9d8215cdb004371b555868b60cbee6150f65518526ab2",
            ),
            (
                1,
                "8f0b3c343fff0aefba0762fe71bea22a46532adf50d0bdc90209275cebc586ca",
            ),
            (
                31,
                "3d16f3d825213c0eb33eba1d987655bffa3541d35bb7d760e016406595dee1fe",
            ),
            (
                32,
                "9dab2dbc7720629a98d5f5a856f78a7052cf4eae562e61f97680207d7762279f",
            ),
            (
                33,
                "96a7ee5ee35e2c62dc65b15c4c9452e216bd5d05a0abeae3ea166283e77c9793",
            ),
            (
                100,
                "d6ccd349e4bbf27837ba621c6c7bbf8a3af5cb67fb6f8aeb350e4d341f2f8e0c",
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

    /// The Spines hop budget for an 88-byte overlay message: SHA-256
    /// compressions for the MAC (nonce + ciphertext fill two blocks, and the
    /// outer hash is a third) and AES blocks of keystream consumed (six
    /// cover 88 bytes).
    #[test]
    fn hop_budget_in_compressions() {
        let keys = LinkKeys::derive(&KEY);
        // What `f` costs: (compressions, keystream blocks).
        let cost = |f: &mut dyn FnMut()| {
            let mut blocks = 0;
            let compressions = compressions(|| blocks = aes_blocks(f));
            (compressions, blocks)
        };
        let mut buf = [0x11u8; 88];
        let mut tag = [0u8; 32];
        assert_eq!(cost(&mut || tag = keys.seal_in_place(9, &mut buf)), (3, 6));
        // A duplicate: authenticate the frame, decrypt the first block.
        let mut head = [0u8; KEYSTREAM_BLOCK];
        head.copy_from_slice(&buf[..KEYSTREAM_BLOCK]);
        let peek = cost(&mut || {
            assert!(keys.verify(9, &buf, &tag));
            keys.decrypt_from(9, 0, &mut head);
        });
        assert_eq!(peek, (3, 1));
        assert_eq!(head, [0x11; KEYSTREAM_BLOCK]);
        // A new message: decrypt the rest as well.
        let rest = cost(&mut || keys.decrypt_from(9, 1, &mut buf[KEYSTREAM_BLOCK..]));
        assert_eq!((peek.0 + rest.0, peek.1 + rest.1), (3, 6));
        assert_eq!(buf[KEYSTREAM_BLOCK..], [0x11; 88 - KEYSTREAM_BLOCK]);
    }

    #[test]
    fn decrypt_from_any_block_split_equals_one_pass() {
        let keys = LinkKeys::derive(&KEY);
        let plaintext: Vec<u8> = (0..200u8).collect();
        let mut frame = plaintext.clone();
        keys.seal_in_place(11, &mut frame);
        for split in (0..=frame.len()).step_by(KEYSTREAM_BLOCK) {
            let mut pieces = frame.clone();
            let (head, rest) = pieces.split_at_mut(split);
            keys.decrypt_from(11, 0, head);
            keys.decrypt_from(11, (split / KEYSTREAM_BLOCK) as u64, rest);
            assert_eq!(pieces, plaintext, "split at {split}");
        }
    }

    #[test]
    fn xor_stream_block_boundaries() {
        // Lengths around the 16-byte block and the 128-byte batch.
        for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 257] {
            let mut data: Vec<u8> = (0..len).map(|x| x as u8).collect();
            let orig = data.clone();
            xor_stream(&KEY, 5, &mut data);
            xor_stream(&KEY, 5, &mut data);
            assert_eq!(data, orig, "len={len}");
        }
    }
}
