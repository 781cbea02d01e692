//! From-scratch AES-256 (FIPS 197) in counter mode (SP 800-38A), the
//! keystream behind [`crate::stream`].
//!
//! Counter block `j` of a stream is `nonce (8 bytes, big-endian) ‖ counter
//! (8 bytes, big-endian)` with `counter = first_block + j`, so a stream
//! that starts at block 0 is byte for byte
//! `openssl enc -aes-256-ctr -K <key> -iv <nonce>0000000000000000`. The
//! counter wraps modulo 2⁶⁴ inside its own eight bytes and never carries
//! into the nonce half. That is the one place this stream and OpenSSL's
//! 128-bit counter would part, 2⁶⁸ bytes into a single nonce's stream.
//!
//! One [`Aes256::ctr_xor`] entry with two backends, as in
//! [`mod@crate::sha256`]. The portable one (S-box and one round table) is
//! always compiled, runs wherever the other is absent, and is the oracle
//! the tests hold the other to; its table lookups are indexed by secret
//! bytes, which puts its side channels on the same simulation-grade
//! footing as [`crate::schnorr`]'s 62-bit group. On x86-64 a backend on
//! the AES instructions is chosen, once, when the CPU reports them. There
//! is no feature, variable or knob to pick one. The key schedule is
//! expanded once, in portable code, and both backends read the same
//! fifteen round keys.

/// Bytes in one AES block, and so in one keystream block.
pub const BLOCK: usize = 16;

const ROUND_KEYS: usize = 15;

#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// SubBytes and MixColumns of one byte in the first row of its column:
/// `(2·S[x], S[x], S[x], 3·S[x])` as a big-endian word. The other three
/// rows are this word rotated.
const ROUND_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        // Doubling in GF(2⁸) modulo x⁸ + x⁴ + x³ + x + 1.
        let s2 = (s << 1) ^ (if s & 0x80 != 0 { 0x1b } else { 0 });
        table[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        x += 1;
    }
    table
};

/// An expanded AES-256 key, used in counter mode only (so there is no
/// inverse cipher).
///
/// # Examples
///
/// ```
/// use itcrypto::aes::Aes256;
///
/// // FIPS 197, appendix C.3: the keystream block for a counter block
/// // is that block's encryption.
/// let key: [u8; 32] = std::array::from_fn(|i| i as u8);
/// let mut block = [0u8; 16];
/// Aes256::new(&key).ctr_xor(0x0011_2233_4455_6677, 0x8899_aabb_ccdd_eeff, &mut block);
/// assert_eq!(block, 0x8ea2b7ca516745bfeafc49904b496089_u128.to_be_bytes());
/// ```
#[derive(Clone)]
pub struct Aes256 {
    round_keys: [[u8; BLOCK]; ROUND_KEYS],
}

impl Aes256 {
    /// Expands `key` into its fifteen round keys.
    pub fn new(key: &[u8; 32]) -> Self {
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]));
        let mut w = [0u32; 4 * ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        let mut rcon = 1u32 << 24;
        for i in 8..w.len() {
            let mut t = w[i - 1];
            if i % 8 == 0 {
                t = sub_word(t.rotate_left(8)) ^ rcon;
                rcon <<= 1;
            } else if i % 8 == 4 {
                t = sub_word(t);
            }
            w[i] = w[i - 8] ^ t;
        }
        let mut round_keys = [[0u8; BLOCK]; ROUND_KEYS];
        for (bytes, word) in round_keys.as_flattened_mut().chunks_exact_mut(4).zip(w) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Aes256 { round_keys }
    }

    /// XORs the keystream of `nonce`, from counter block `first_block` on,
    /// over `data`: encryption and decryption alike. A piece of a longer
    /// stream that starts on a block boundary is processed by passing the
    /// index of its first block.
    pub fn ctr_xor(&self, nonce: u64, first_block: u64, data: &mut [u8]) {
        #[cfg(test)]
        probe::count(data.len().div_ceil(BLOCK) as u64);
        #[cfg(target_arch = "x86_64")]
        if self.ctr_xor_hardware(nonce, first_block, data) {
            return;
        }
        self.ctr_xor_portable(nonce, first_block, data);
    }

    /// [`Aes256::ctr_xor`] on the AES instructions, if this CPU has them;
    /// otherwise `data` is untouched and the answer is `false`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn ctr_xor_hardware(&self, nonce: u64, first_block: u64, data: &mut [u8]) -> bool {
        if !x86::available() {
            return false;
        }
        // SAFETY: `x86::available()` is true only after
        // `is_x86_feature_detected!` reported, on this CPU, every feature
        // `x86::ctr_xor` is compiled with (aes, sse2, ssse3); the function
        // takes references only and has no other requirement.
        #[allow(unsafe_code)]
        unsafe {
            x86::ctr_xor(&self.round_keys, nonce, first_block, data)
        };
        true
    }

    /// [`Aes256::ctr_xor`] in plain integer arithmetic, a block at a time.
    fn ctr_xor_portable(&self, nonce: u64, first_block: u64, data: &mut [u8]) {
        let mut counter = first_block;
        for chunk in data.chunks_mut(BLOCK) {
            let keystream = self.encrypt_block(counter_block(nonce, counter));
            for (byte, k) in chunk.iter_mut().zip(keystream) {
                *byte ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// The cipher proper, on the state as four big-endian column words.
    fn encrypt_block(&self, block: [u8; BLOCK]) -> [u8; BLOCK] {
        let columns = |bytes: &[u8; BLOCK]| -> [u32; 4] {
            std::array::from_fn(|c| {
                u32::from_be_bytes(bytes[4 * c..4 * c + 4].try_into().expect("4 bytes"))
            })
        };
        // Row `r` of output column `c` comes from column `c + r`
        // (ShiftRows), and sits `8 * r` bits down its word.
        let byte = |s: &[u32; 4], c: usize, r: usize| (s[(c + r) % 4] >> (24 - 8 * r)) as u8;
        let add = |s: [u32; 4], key: &[u8; BLOCK]| {
            let key = columns(key);
            std::array::from_fn(|c| s[c] ^ key[c])
        };
        let (first, rest) = self.round_keys.split_first().expect("15 round keys");
        let (last, middle) = rest.split_last().expect("14 round keys");
        let mut s = add(columns(&block), first);
        for key in middle {
            let mixed = std::array::from_fn(|c| {
                (0..4).fold(0, |word, r| {
                    word ^ ROUND_TABLE[byte(&s, c, r) as usize].rotate_right(8 * r as u32)
                })
            });
            s = add(mixed, key);
        }
        let substituted = std::array::from_fn(|c| {
            u32::from_be_bytes(std::array::from_fn(|r| SBOX[byte(&s, c, r) as usize]))
        });
        let mut out = [0u8; BLOCK];
        for (bytes, word) in out.chunks_exact_mut(4).zip(add(substituted, last)) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// `nonce ‖ counter`, each big-endian.
fn counter_block(nonce: u64, counter: u64) -> [u8; BLOCK] {
    let mut block = [0u8; BLOCK];
    block[..8].copy_from_slice(&nonce.to_be_bytes());
    block[8..].copy_from_slice(&counter.to_be_bytes());
    block
}

#[cfg(target_arch = "x86_64")]
mod x86;

/// Test-only view into [`Aes256::ctr_xor`]: how many keystream blocks a
/// piece of code consumes. (A backend that works in batches may encrypt
/// spare blocks past the end of the data; those are not counted.)
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count(blocks: u64) {
        BLOCKS.with(|b| b.set(b.get() + blocks));
    }

    /// The number of keystream blocks `f` consumes (on this thread).
    pub(crate) fn aes_blocks(f: impl FnOnce()) -> u64 {
        let before = BLOCKS.with(Cell::get);
        f();
        BLOCKS.with(Cell::get) - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex<const N: usize>(hex: &str) -> [u8; N] {
        std::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
    }

    fn portable(key: &Aes256, nonce: u64, first_block: u64, input: &[u8]) -> Vec<u8> {
        let mut data = input.to_vec();
        key.ctr_xor_portable(nonce, first_block, &mut data);
        data
    }

    /// The hardware backend's answer, where this host has one.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn hardware(key: &Aes256, nonce: u64, first_block: u64, input: &[u8]) -> Option<Vec<u8>> {
        #[cfg(target_arch = "x86_64")]
        {
            let mut data = input.to_vec();
            key.ctr_xor_hardware(nonce, first_block, &mut data)
                .then_some(data)
        }
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// Both backends, called directly, and the entry that selects one
    /// must turn `input` into `expect`.
    fn check_each_backend(key: &Aes256, nonce: u64, first_block: u64, input: &[u8], expect: &[u8]) {
        assert_eq!(portable(key, nonce, first_block, input), expect);
        if let Some(hardware) = hardware(key, nonce, first_block, input) {
            assert_eq!(hardware, expect);
        }
        let mut selected = input.to_vec();
        key.ctr_xor(nonce, first_block, &mut selected);
        assert_eq!(selected, expect);
    }

    // FIPS 197, appendix C.3: the keystream block for counter block
    // 00112233445566778899aabbccddeeff is its encryption.
    #[test]
    fn fips197_c3_on_each_backend() {
        let key = Aes256::new(&std::array::from_fn(|i| i as u8));
        check_each_backend(
            &key,
            0x0011_2233_4455_6677,
            0x8899_aabb_ccdd_eeff,
            &[0; BLOCK],
            &unhex::<16>("8ea2b7ca516745bfeafc49904b496089"),
        );
    }

    // FIPS 197, appendix A.3: the first and last words the 256-bit key
    // expansion derives.
    #[test]
    fn fips197_a3_key_expansion() {
        let key = unhex::<32>("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let expanded = Aes256::new(&key);
        let words = expanded.round_keys.as_flattened();
        assert_eq!(words[..32], key);
        assert_eq!(words[32..36], unhex::<4>("9ba35411"));
        assert_eq!(words[236..], unhex::<4>("706c631e"));
    }

    // SP 800-38A, F.5.5 (CTR-AES256.Encrypt), all four blocks.
    #[test]
    fn sp800_38a_f55_on_each_backend() {
        let key = unhex::<32>("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let plaintext = unhex::<64>(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let ciphertext = unhex::<64>(
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
             2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6",
        );
        check_each_backend(
            &Aes256::new(&key),
            0xf0f1_f2f3_f4f5_f6f7,
            0xf8f9_fafb_fcfd_feff,
            &plaintext,
            &ciphertext,
        );
    }

    /// The counter wraps inside its own eight bytes: the nonce half is
    /// the same on both sides of `u64::MAX`.
    #[test]
    fn counter_wraps_modulo_2_64_without_touching_the_nonce() {
        let key = Aes256::new(&[0x42; 32]);
        let nonce = 0x0102_0304_0506_0708;
        // Blocks MAX-1, MAX, 0, 1 and three bytes of block 2, one by one.
        let mut expect = Vec::new();
        for counter in [u64::MAX - 1, u64::MAX, 0, 1, 2] {
            expect.extend(key.encrypt_block(counter_block(nonce, counter)));
        }
        expect.truncate(4 * BLOCK + 3);
        check_each_backend(&key, nonce, u64::MAX - 1, &[0; 4 * BLOCK + 3], &expect);
    }

    #[test]
    fn probe_counts_blocks_consumed() {
        let key = Aes256::new(&[1; 32]);
        for (len, blocks) in [(0, 0), (1, 1), (16, 1), (17, 2), (128, 8), (129, 9)] {
            let mut data = vec![0u8; len];
            assert_eq!(probe::aes_blocks(|| key.ctr_xor(5, 0, &mut data)), blocks);
        }
    }

    proptest! {
        #[test]
        fn backends_agree_on_any_stream(
            key in any::<[u8; 32]>(),
            nonce in any::<u64>(),
            first_block in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            let key = Aes256::new(&key);
            let oracle = portable(&key, nonce, first_block, &data);
            if let Some(hardware) = hardware(&key, nonce, first_block, &data) {
                prop_assert_eq!(&hardware, &oracle);
            }
            // The selected backend undoes what the oracle did.
            let mut back = oracle;
            key.ctr_xor(nonce, first_block, &mut back);
            prop_assert_eq!(&back, &data);
        }
    }
}
