//! HMAC-SHA-256 (RFC 2104), used for key derivation: the Spines link keys
//! and the link cipher's key under each.

use crate::sha256::{compress, Digest, Sha256, H0};

const BLOCK: usize = 64;

/// Computes `HMAC-SHA-256(key, msg)`.
///
/// # Examples
///
/// ```
/// use itcrypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(msg)
}

/// A precomputed HMAC key: the SHA-256 midstates after absorbing the
/// ipad and opad blocks, 8 words each. A [`HmacKey::mac`] of a short
/// message then costs two compressions: the padded inner block(s) from
/// the inner midstate, and the outer hash finished as **one** compression
/// of a pre-padded block (inner digest ‖ `0x80` ‖ zeros ‖ bit length 768)
/// from the outer midstate. A caller that MACs many messages under one
/// key keeps one `HmacKey`. Produces bit-identical tags to the one-shot
/// [`hmac_sha256`] (a thin wrapper).
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ^ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after absorbing `key ^ opad`.
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares the midstates for `key` (hashed first if longer than the
    /// 64-byte block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = crate::sha256::sha256(key);
            k[..32].copy_from_slice(d.as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = H0;
            compress(&mut state, &k.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// Computes `HMAC-SHA-256(key, msg)` from the midstates.
    pub fn mac(&self, msg: &[u8]) -> Digest {
        let mut inner = Sha256::from_midstate(self.inner, BLOCK as u64);
        inner.update(msg);
        // The outer message is always opad block + 32-byte inner digest.
        let inner_digest = Digest::from_state(&inner.finalize_state());
        Digest::from_state(&finish_short(&self.outer, &inner_digest.0))
    }
}

/// Finishes a hash whose `midstate` has absorbed one block and that has
/// only `tail` left, short enough (at most 55 bytes) to share its block
/// with the padding: one compression of `tail ‖ 0x80 ‖ zeros ‖ bit length`.
fn finish_short(midstate: &[u32; 8], tail: &[u8]) -> [u32; 8] {
    let mut block = [0u8; BLOCK];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    block[56..].copy_from_slice(&(8 * (BLOCK + tail.len()) as u64).to_be_bytes());
    let mut state = *midstate;
    compress(&mut state, &block);
    state
}

/// Simple HKDF-like key derivation: `derive_key(master, label)` produces a
/// 32-byte subkey bound to `label`.
///
/// # Examples
///
/// ```
/// use itcrypto::hmac::derive_key;
///
/// let link = derive_key(b"master-secret", b"spines-link-3-4");
/// let other = derive_key(b"master-secret", b"spines-link-3-5");
/// assert_ne!(link, other);
/// ```
pub fn derive_key(master: &[u8], label: &[u8]) -> [u8; 32] {
    hmac_sha256(master, label).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::probe::{compressions, on_each_backend};

    // RFC 4231 test vectors, on the portable SHA-256 backend and on the
    // one this host selects.
    #[test]
    fn rfc4231_vectors_on_each_backend() {
        let vectors: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                    23, 24, 25,
                ],
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // 131-byte keys force the key-hashing path.
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the HMAC \
                  algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        on_each_backend(|| {
            for (key, msg, hex) in vectors {
                assert_eq!(hmac_sha256(key, msg).to_hex(), hex);
            }
        });
    }

    #[test]
    fn short_mac_costs_two_compressions() {
        let hk = HmacKey::new(b"k");
        // Up to 55 message bytes share the inner block with the padding.
        assert_eq!(compressions(|| _ = hk.mac(&[0; 55])), 2);
        assert_eq!(compressions(|| _ = hk.mac(&[0; 56])), 3);
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }

    #[test]
    fn derived_keys_are_label_separated() {
        let a = derive_key(b"m", b"a");
        let b = derive_key(b"m", b"b");
        let a2 = derive_key(b"m", b"a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn precomputed_key_matches_oneshot() {
        // Key lengths around the block size (including the hashed-key
        // path) and message lengths around compression boundaries.
        for key_len in [0usize, 1, 31, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|x| (x * 7) as u8).collect();
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 16, 55, 56, 64, 100, 1000] {
                let msg: Vec<u8> = (0..msg_len).map(|x| (x * 13) as u8).collect();
                assert_eq!(
                    hk.mac(&msg),
                    hmac_sha256(&key, &msg),
                    "key_len={key_len} msg_len={msg_len}"
                );
            }
        }
    }
}
