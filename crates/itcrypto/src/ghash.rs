//! GHASH (NIST SP 800-38D, §6.4), the authenticator of the AES-256-GCM
//! link envelope in [`crate::stream`].
//!
//! One [`Ghash::digest`] entry: GHASH under the hash subkey H over a
//! ciphertext, zero-padded to whole blocks, followed by the length block
//! `[0]₆₄ ‖ [8·len(C)]₆₄`. There is no additional authenticated data, so
//! this is GCM's `S` for `A` empty.
//!
//! Two backends, as in [`crate::aes`] and [`mod@crate::sha256`]. The
//! portable one, SP 800-38D Algorithm 1 a bit at a time, is always
//! compiled, runs wherever the other is absent, and is the oracle the tests
//! hold the other to. On x86-64 a backend on the carry-less multiply
//! (`pclmulqdq`) is chosen, once, when the CPU reports it. It multiplies up
//! to eight blocks by H⁸…H¹ independently and reduces their sum once, so
//! the key keeps those eight powers. There is no feature, variable or knob
//! to pick a backend.
//!
//! A block is read as a big-endian 128-bit integer, so the coefficient of
//! x⁰ is the top bit of the integer (SP 800-38D numbers bits from the left
//! of the string). Both backends and the stored powers use that reading.

/// Bytes in one GHASH block.
pub const BLOCK: usize = 16;

/// Blocks multiplied side by side before one reduction, and so the powers
/// of H a key keeps.
const GROUP: usize = 8;

/// A GHASH key: H¹…H⁸ for the hash subkey H.
///
/// # Examples
///
/// ```
/// use itcrypto::ghash::Ghash;
///
/// // The GCM specification's test case 2: AES-128 under the zero key,
/// // where H = AES(0¹²⁸) and C is one block.
/// let h = 0x66e94bd4ef8a2c3b884cfa59ca342b2e_u128.to_be_bytes();
/// let c = 0x0388dace60b6a392f328c2b971b2fe78_u128.to_be_bytes();
/// assert_eq!(
///     Ghash::new(&h).digest(&c),
///     0xf38cbb1ad69223dcc3457ae5b6b0f885_u128.to_be_bytes()
/// );
/// ```
#[derive(Clone)]
pub struct Ghash {
    /// `powers[i]` is H^(i + 1).
    powers: [u128; GROUP],
}

impl Ghash {
    /// Prepares the key for hash subkey `h` (in GCM, `AES_K(0¹²⁸)`).
    pub fn new(h: &[u8; BLOCK]) -> Self {
        let h = u128::from_be_bytes(*h);
        let mut powers = [h; GROUP];
        for i in 1..GROUP {
            powers[i] = mul(powers[i - 1], h);
        }
        Ghash { powers }
    }

    /// `GHASH_H(C ‖ 0ᵛ ‖ [0]₆₄ ‖ [8·len(C)]₆₄)` for `C = ciphertext`.
    pub fn digest(&self, ciphertext: &[u8]) -> [u8; BLOCK] {
        #[cfg(test)]
        probe::count(ciphertext.len().div_ceil(BLOCK) as u64 + 1);
        #[cfg(target_arch = "x86_64")]
        if let Some(digest) = self.digest_hardware(ciphertext) {
            return digest;
        }
        self.digest_portable(ciphertext)
    }

    /// [`Ghash::digest`] on the carry-less multiply, if this CPU has it.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn digest_hardware(&self, ciphertext: &[u8]) -> Option<[u8; BLOCK]> {
        if !x86::available() {
            return None;
        }
        // SAFETY: `x86::available()` is true only after
        // `is_x86_feature_detected!` reported, on this CPU, every feature
        // `x86::digest` is compiled with (pclmulqdq, sse2); the function
        // takes references only and has no other requirement.
        #[allow(unsafe_code)]
        let digest = unsafe { x86::digest(&self.powers, ciphertext) };
        Some(digest.to_be_bytes())
    }

    /// [`Ghash::digest`] one block at a time: `Y ← (Y ⊕ X)·H`.
    fn digest_portable(&self, ciphertext: &[u8]) -> [u8; BLOCK] {
        let h = self.powers[0];
        blocks(ciphertext)
            .fold(0, |y, x| mul(y ^ x, h))
            .to_be_bytes()
    }
}

/// The blocks GHASH absorbs for `ciphertext`: its whole blocks, its last
/// partial block padded with zeros, then the length block.
fn blocks(ciphertext: &[u8]) -> impl Iterator<Item = u128> + '_ {
    let (whole, tail) = ciphertext.as_chunks::<BLOCK>();
    whole
        .iter()
        .map(|block| u128::from_be_bytes(*block))
        .chain((!tail.is_empty()).then(|| padded(tail)))
        .chain(std::iter::once(length_block(ciphertext)))
}

/// A partial last block, zero-padded.
fn padded(tail: &[u8]) -> u128 {
    let mut block = [0u8; BLOCK];
    block[..tail.len()].copy_from_slice(tail);
    u128::from_be_bytes(block)
}

/// `[0]₆₄ ‖ [8·len(C)]₆₄`: no additional data, then the ciphertext's
/// length in bits.
fn length_block(ciphertext: &[u8]) -> u128 {
    8 * ciphertext.len() as u128
}

/// `x · y` in GF(2¹²⁸) modulo x¹²⁸ + x⁷ + x² + x + 1, SP 800-38D
/// Algorithm 1, with masks in place of branches on key bits.
fn mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0;
    let mut v = y;
    for i in (0..128).rev() {
        z ^= v & 0u128.wrapping_sub(x >> i & 1);
        v = (v >> 1) ^ (R & 0u128.wrapping_sub(v & 1));
    }
    z
}

#[cfg(target_arch = "x86_64")]
mod x86;

/// Test-only view into [`Ghash::digest`]: how many blocks (the length
/// block included) a piece of code absorbs.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count(blocks: u64) {
        BLOCKS.with(|b| b.set(b.get() + blocks));
    }

    /// The number of GHASH blocks `f` absorbs (on this thread).
    pub(crate) fn ghash_blocks(f: impl FnOnce()) -> u64 {
        let before = BLOCKS.with(Cell::get);
        f();
        BLOCKS.with(Cell::get) - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
            .collect()
    }

    /// The hardware backend's answer, where this host has one.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn hardware(key: &Ghash, ciphertext: &[u8]) -> Option<[u8; BLOCK]> {
        #[cfg(target_arch = "x86_64")]
        {
            key.digest_hardware(ciphertext)
        }
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// The GCM specification (McGrew and Viega), test cases 2 and 3: no
    /// additional data, so GHASH is the tag XOR `AES_K(J0)`. Checked with
    /// Python `cryptography` `AESGCM` and `AES` in ECB mode.
    #[test]
    fn gcm_spec_vectors_on_each_backend() {
        let vectors = [
            (
                "66e94bd4ef8a2c3b884cfa59ca342b2e",
                "0388dace60b6a392f328c2b971b2fe78",
                "f38cbb1ad69223dcc3457ae5b6b0f885",
            ),
            (
                "b83b533708bf535d0aa6e52980d53b78",
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
                "7f1b32b81b820d02614f8895ac1d4eac",
            ),
        ];
        for (h, ciphertext, expect) in vectors {
            let key = Ghash::new(&unhex(h).try_into().expect("16 bytes"));
            let (ciphertext, expect) = (unhex(ciphertext), unhex(expect));
            assert_eq!(key.digest_portable(&ciphertext)[..], expect);
            if let Some(hardware) = hardware(&key, &ciphertext) {
                assert_eq!(hardware[..], expect);
            }
            assert_eq!(key.digest(&ciphertext)[..], expect);
        }
    }

    #[test]
    fn powers_are_repeated_products() {
        let key = Ghash::new(&[0x5a; BLOCK]);
        let h = key.powers[0];
        let mut power = h;
        for (i, &stored) in key.powers.iter().enumerate().skip(1) {
            power = mul(power, h);
            assert_eq!(stored, power, "H^{}", i + 1);
        }
        // x⁰ (the top bit) is the identity.
        assert_eq!(mul(1 << 127, h), h);
        assert_eq!(mul(h, 1 << 127), h);
    }

    #[test]
    fn probe_counts_blocks_and_the_length_block() {
        let key = Ghash::new(&[1; BLOCK]);
        for (len, blocks) in [(0, 1), (1, 2), (16, 2), (17, 3), (88, 7), (1024, 65)] {
            let data = vec![0u8; len];
            assert_eq!(probe::ghash_blocks(|| _ = key.digest(&data)), blocks);
        }
    }

    /// Every length from 0 to 1,100 bytes, each under its own H: every
    /// partial last block, and groups of eight blocks up to nine times
    /// over with every remainder.
    #[test]
    fn backends_agree_at_every_length_to_1100() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 56) as u8
        };
        for len in 0..=1100 {
            let key = Ghash::new(&std::array::from_fn(|_| next()));
            let data: Vec<u8> = (0..len).map(|_| next()).collect();
            let oracle = key.digest_portable(&data);
            if let Some(hardware) = hardware(&key, &data) {
                assert_eq!(hardware, oracle, "len={len}");
            }
            assert_eq!(key.digest(&data), oracle, "len={len}");
        }
    }

    proptest! {
        #[test]
        fn backends_agree_on_any_ciphertext(
            h in any::<[u8; BLOCK]>(),
            data in proptest::collection::vec(any::<u8>(), 0..1101),
        ) {
            let key = Ghash::new(&h);
            let oracle = key.digest_portable(&data);
            if let Some(hardware) = hardware(&key, &data) {
                prop_assert_eq!(hardware, oracle);
            }
            prop_assert_eq!(key.digest(&data), oracle);
        }
    }
}
