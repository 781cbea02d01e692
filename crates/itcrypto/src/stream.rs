//! The AES-256-GCM envelope (NIST SP 800-38D) used for Spines link
//! encryption, and the counter-mode stream under it.
//!
//! The keystream is AES-256 in counter mode ([`crate::aes`]), the cipher
//! the paper's Spines takes from OpenSSL: keystream block `i` for nonce
//! `n` is `AES-256(key, n ‖ i)`, both big-endian in eight bytes each, 16
//! bytes of keystream a block, and ciphertext is plaintext XOR keystream.
//! The counter `i` wraps modulo 2⁶⁴ and never carries into `n`.
//!
//! A frame is sealed as GCM with the 96-bit IV `n ‖ 0³²` and no additional
//! data: `J0 = n ‖ 1`, so `AES_K(J0)` is keystream block 1 of `n`, the
//! data is XORed with blocks 2 on, and the 16-byte tag is
//! [`crate::ghash`] of the ciphertext under `H = AES_K(0¹²⁸)` XOR
//! `AES_K(J0)`. GCM's 32-bit counter increment equals the 64-bit one for
//! any frame a `u32` length describes (under 2²⁸ blocks). GCM under a
//! repeated `(key, nonce)` gives away H, and with it forgeries, so a nonce
//! is never used twice under one key (Spines keys each link direction
//! apart and floors its nonces across restarts). The red-team experiment
//! hinges on this layer: the modified Spines daemon without the link keys
//! cannot produce valid traffic (§IV-B).

use crate::aes::Aes256;
use crate::ghash::Ghash;

/// Bytes of keystream one PRF call (one AES block) yields.
pub const KEYSTREAM_BLOCK: usize = crate::aes::BLOCK;

/// Bytes in a GCM tag.
pub const TAG_LEN: usize = 16;

/// Keystream block of a nonce that masks its GHASH into the tag (`J0`).
const TAG_BLOCK: u64 = 1;
/// Keystream block that encrypts a frame's first ciphertext block.
const FIRST_DATA_BLOCK: u64 = 2;

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

/// The pre-derived keys of one link direction: the AES key and the GHASH
/// key `H = AES_K(0¹²⁸)` with its powers. Deriving once per link replaces
/// an HKDF derivation, an AES key expansion and the powers of H on every
/// frame. The methods are the envelope's steps taken apart, so a caller
/// can seal into its own buffer and can authenticate a frame before
/// deciding how much of it to decrypt.
#[derive(Clone)]
pub struct LinkKeys {
    enc: Aes256,
    ghash: Ghash,
}

impl LinkKeys {
    /// Derives the keys from `link_key` exactly as [`seal`]/[`open`] do
    /// internally.
    pub fn derive(link_key: &[u8; 32]) -> Self {
        let enc = Aes256::new(&crate::hmac::derive_key(link_key, b"enc"));
        // Counter block 0 of nonce 0 is 0¹²⁸, so its keystream is H.
        let mut h = [0u8; KEYSTREAM_BLOCK];
        enc.ctr_xor(0, 0, &mut h);
        LinkKeys {
            enc,
            ghash: Ghash::new(&h),
        }
    }

    /// Encrypts `buf` in place under `nonce` and returns its GCM tag.
    pub fn seal_in_place(&self, nonce: u64, buf: &mut [u8]) -> [u8; TAG_LEN] {
        self.enc.ctr_xor(nonce, FIRST_DATA_BLOCK, buf);
        self.tag(nonce, buf)
    }

    /// Whether `tag` authenticates `ciphertext` under `nonce`, compared
    /// without an early exit.
    pub fn verify(&self, nonce: u64, ciphertext: &[u8], tag: &[u8; TAG_LEN]) -> bool {
        let expect = self.tag(nonce, ciphertext);
        expect.iter().zip(tag).fold(0, |acc, (a, b)| acc | (a ^ b)) == 0
    }

    /// Decrypts `data`, a piece of the ciphertext of `nonce` that starts
    /// `first_block` whole [`KEYSTREAM_BLOCK`]s into it. Call only on
    /// ciphertext [`LinkKeys::verify`] accepted.
    pub fn decrypt_from(&self, nonce: u64, first_block: u64, data: &mut [u8]) {
        self.enc
            .ctr_xor(nonce, FIRST_DATA_BLOCK.wrapping_add(first_block), data);
    }

    /// `GHASH_H(ciphertext) ⊕ AES_K(J0)`.
    fn tag(&self, nonce: u64, ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut tag = self.ghash.digest(ciphertext);
        self.enc.ctr_xor(nonce, TAG_BLOCK, &mut tag);
        tag
    }
}

/// An authenticated, encrypted envelope: AES-256-GCM under a key derived
/// from one link key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// Nonce, the first 64 bits of the GCM IV (unique per message per
    /// link direction).
    pub nonce: u64,
    /// Ciphertext bytes.
    pub ciphertext: Vec<u8>,
    /// GCM tag over the ciphertext.
    pub tag: [u8; TAG_LEN],
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
    use crate::ghash::probe::ghash_blocks;
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
        sealed.tag[TAG_LEN - 1] ^= 1;
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
    /// sealed by Python `cryptography` 48 (on OpenSSL 3.5):
    ///
    /// ```text
    /// enc = hmac.new(link_key, b"enc", hashlib.sha256).digest()
    /// out = AESGCM(enc).encrypt(nonce.to_bytes(8, "big") + bytes(4), pt, None)
    /// ct, tag = out[:-16], out[-16:]
    /// ```
    ///
    /// Every ciphertext is a prefix of one keystream; the first 100 bytes
    /// are pinned, and the 1,000-byte one by `hashlib.sha256(ct)`. A change
    /// to the keystream, the tag or the key derivation has to change these
    /// on purpose.
    #[test]
    fn seal_known_answers() {
        let link_key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let nonce = 0x0102_0304_0506_0708;
        let head = "74fdf172036c26e4a1ae10535710631c27d0894c4a89ea73fc92375d504b0dc1\
                    b0d6d7aa6bbfde33e2982167770eed1851b5795b08073f42a05a9ec21db5abec\
                    eaf2b9ca0f560f2b2963431bd766c5c8d08e04540b884b10e9f9f25a5d7d7e93\
                    289118ca";
        let long = "917f396486b3e0be0d8bfaba6692e732122214e8fdd5181a15a626e9462cf5c8";
        let vectors = [
            (0usize, "e4f7c8069a786c3d6d0c9319f7d2f590"),
            (1, "7d2a0d2314c0639cad6ce592a73a4d4e"),
            (15, "4b79ca5e7ca1b33024bed27b1715f960"),
            (16, "2679413992f5e59a4997da8bad4aee16"),
            (17, "e3edd75ba9ba60fa7e9875feb3e7d8e1"),
            (31, "f6460fd62f95f4e05cf13c627d05729f"),
            (32, "f28d11b4cf7e4ec934a33b7c4b2bd5dc"),
            (33, "a14034a7b9d899ce621c348b36f1b88f"),
            (100, "1a176eb098afc5e9c1a2571ceb11a23b"),
            (1000, "270c348e35450e6a188d3d55de290213"),
        ];
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        on_each_backend(|| {
            for (len, tag) in vectors {
                let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let sealed = seal(&link_key, nonce, &plaintext);
                let shown = sealed.ciphertext.len().min(100);
                assert_eq!(
                    hex(&sealed.ciphertext[..shown]),
                    head[..2 * shown],
                    "len={len}"
                );
                if len == 1000 {
                    assert_eq!(crate::sha256::sha256(&sealed.ciphertext).to_hex(), long);
                }
                assert_eq!(hex(&sealed.tag), tag, "len={len}");
                assert_eq!(open(&link_key, &sealed), Some(plaintext));
            }
        });
    }

    /// The Spines hop budget for an 88-byte overlay message: no SHA-256
    /// compression at all, AES blocks of keystream (six cover 88 bytes, one
    /// masks the tag) and GHASH blocks (six of ciphertext and the length
    /// block, in one group of eight).
    #[test]
    fn hop_budget_in_compressions() {
        let keys = LinkKeys::derive(&KEY);
        // What `f` costs: (compressions, keystream blocks, GHASH blocks).
        let cost = |f: &mut dyn FnMut()| {
            let (mut aes, mut ghash) = (0, 0);
            let compressions = compressions(|| ghash = ghash_blocks(|| aes = aes_blocks(f)));
            (compressions, aes, ghash)
        };
        let mut buf = [0x11u8; 88];
        let mut tag = [0u8; TAG_LEN];
        assert_eq!(
            cost(&mut || tag = keys.seal_in_place(9, &mut buf)),
            (0, 7, 7)
        );
        // A duplicate: authenticate the frame, decrypt the first block.
        let mut head = [0u8; KEYSTREAM_BLOCK];
        head.copy_from_slice(&buf[..KEYSTREAM_BLOCK]);
        let peek = cost(&mut || {
            assert!(keys.verify(9, &buf, &tag));
            keys.decrypt_from(9, 0, &mut head);
        });
        assert_eq!(peek, (0, 2, 7));
        assert_eq!(head, [0x11; KEYSTREAM_BLOCK]);
        // A new message: decrypt the rest as well.
        let rest = cost(&mut || keys.decrypt_from(9, 1, &mut buf[KEYSTREAM_BLOCK..]));
        assert_eq!(rest, (0, 5, 0));
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
