//! From-scratch SHA-256 (FIPS 180-4).
//!
//! Used for every digest in the system: message digests for signatures,
//! Merkle-tree nodes, checkpoint digests, and as the compression function
//! inside [`crate::hmac`].
//!
//! Everything funnels through one `compress(state, block)` entry with two
//! backends. The portable rounds are always compiled, run wherever the
//! other is absent, and are the oracle the tests hold the other to. On
//! x86-64 a backend on the SHA extensions is chosen, once, when the CPU
//! reports them. There is no feature, variable or knob to pick one: a
//! host either has the instructions or it does not.

use std::fmt;

/// A 256-bit digest.
///
/// # Examples
///
/// ```
/// use itcrypto::sha256::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel for "no digest yet".
    pub const ZERO: Digest = Digest([0; 32]);

    /// The digest a final SHA-256 state stands for (big-endian words).
    pub(crate) fn from_state(state: &[u32; 8]) -> Digest {
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A short 8-hex-character prefix, convenient for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Interprets the first 8 bytes as a big-endian `u64` (for sampling and
    /// for deriving scalars in [`crate::schnorr`]).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use itcrypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256::from_midstate(H0, 0)
    }

    /// A hasher that has already absorbed `absorbed` bytes (whole blocks)
    /// into `state`: how [`crate::hmac::HmacKey`] resumes from its keyed
    /// midstates.
    pub(crate) fn from_midstate(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "a midstate sits on a block boundary");
        Sha256 {
            state,
            buf: [0; 64],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let room = 64 - self.buf_len;
        if data.len() < room {
            copy_short(&mut self.buf[self.buf_len..][..data.len()], data);
            self.buf_len += data.len();
            return;
        }
        let mut rest = data;
        if self.buf_len > 0 {
            let (head, tail) = rest.split_at(room);
            copy_short(&mut self.buf[self.buf_len..], head);
            compress(&mut self.state, &self.buf);
            rest = tail;
        }
        // Whole blocks are compressed where they lie.
        while let Some((block, tail)) = rest.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            rest = tail;
        }
        copy_short(&mut self.buf[..rest.len()], rest);
        self.buf_len = rest.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> Digest {
        Digest::from_state(&self.finalize_state())
    }

    /// [`Sha256::finalize`], leaving the digest as its eight state words.
    pub(crate) fn finalize_state(mut self) -> [u32; 8] {
        // Padding: 0x80, zeros, then the 64-bit length closing a block
        // (`buf_len` < 64 always: a full buffer is compressed at once).
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        self.state
    }
}

/// `dst.copy_from_slice(src)` for the pieces a hasher is fed. Length
/// prefixes, counters and short keys come a few bytes at a time, and a
/// `memcpy` call costs more than the bytes it moves: up to sixteen bytes are
/// copied as two words that overlap in the middle (the same word twice for
/// exactly four or eight), fewer than four as three overlapping bytes.
#[inline]
fn copy_short(dst: &mut [u8], src: &[u8]) {
    /// The first and the last `N` bytes, which cover `N..=2 * N` bytes.
    fn ends<const N: usize>(dst: &mut [u8], src: &[u8]) {
        *dst.first_chunk_mut::<N>().expect("N bytes") = *src.first_chunk().expect("N bytes");
        *dst.last_chunk_mut::<N>().expect("N bytes") = *src.last_chunk().expect("N bytes");
    }
    let len = src.len();
    assert_eq!(dst.len(), len);
    match len {
        0 => {}
        1..4 => {
            // First, middle, last: a loop here is compiled back into a call.
            dst[0] = src[0];
            dst[len / 2] = src[len / 2];
            dst[len - 1] = src[len - 1];
        }
        4..=8 => ends::<4>(dst, src),
        9..=16 => ends::<8>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// The SHA-256 compression function: folds one 64-byte block into `state`.
/// The single entry every hash and MAC goes through.
#[inline]
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(test)]
    if probe::count_and_ask_portable() {
        return compress_portable(state, block);
    }
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: `x86::available()` is true only after
        // `is_x86_feature_detected!` reported, on this CPU, every feature
        // `x86::compress` is compiled with (sha, sse2, ssse3, sse4.1);
        // the function takes references only and has no other
        // requirement.
        #[allow(unsafe_code)]
        unsafe {
            x86::compress(state, block)
        };
        return;
    }
    compress_portable(state, block);
}

/// The compression function in plain integer arithmetic: a rolling
/// 16-word message schedule indexed by constants, and the working
/// variables renamed instead of moved.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // Round `$base + $j` with the variables in the given order: only `d`
    // and `h` change, so the caller rotates the names, not the values.
    // After the first sixteen rounds each one first extends the schedule.
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $base:expr, $j:expr) => {
            if $base != 0 {
                let (w15, w2) = (w[($j + 1) & 15], w[($j + 14) & 15]);
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[$j] = w[$j]
                    .wrapping_add(s0)
                    .wrapping_add(w[($j + 9) & 15])
                    .wrapping_add(s1);
            }
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$base + $j])
                .wrapping_add(w[$j]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        };
    }
    // Sixteen rounds over the current sixteen schedule words.
    macro_rules! rounds16 {
        ($base:expr) => {
            round!(a b c d e f g h, $base, 0);
            round!(h a b c d e f g, $base, 1);
            round!(g h a b c d e f, $base, 2);
            round!(f g h a b c d e, $base, 3);
            round!(e f g h a b c d, $base, 4);
            round!(d e f g h a b c, $base, 5);
            round!(c d e f g h a b, $base, 6);
            round!(b c d e f g h a, $base, 7);
            round!(a b c d e f g h, $base, 8);
            round!(h a b c d e f g, $base, 9);
            round!(g h a b c d e f, $base, 10);
            round!(f g h a b c d e, $base, 11);
            round!(e f g h a b c d, $base, 12);
            round!(d e f g h a b c, $base, 13);
            round!(c d e f g h a b, $base, 14);
            round!(b c d e f g h a, $base, 15);
        };
    }
    rounds16!(0);
    for base in [16, 32, 48] {
        rounds16!(base);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86;

/// Test-only view into [`compress`]: how many compressions a piece of
/// code costs, and a way to pin the portable backend so that the same
/// vectors run on both.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
        static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn count_and_ask_portable() -> bool {
        COMPRESSIONS.with(|c| c.set(c.get() + 1));
        PORTABLE_ONLY.with(Cell::get)
    }

    /// The number of compressions `f` performs (on this thread).
    pub(crate) fn compressions(f: impl FnOnce()) -> u64 {
        let before = COMPRESSIONS.with(Cell::get);
        f();
        COMPRESSIONS.with(Cell::get) - before
    }

    /// Runs `f` twice: on the portable backend, then on whichever backend
    /// this host selects (the hardware one where detected).
    pub(crate) fn on_each_backend(f: impl Fn()) {
        on_portable(&f);
        f();
    }

    /// Runs `f` on the portable backend only.
    pub(crate) fn on_portable<R>(f: impl FnOnce() -> R) -> R {
        PORTABLE_ONLY.with(|p| p.set(true));
        let out = f();
        PORTABLE_ONLY.with(|p| p.set(false));
        out
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// use itcrypto::sha256::sha256;
///
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices (avoids an allocation at
/// call sites that would otherwise concatenate).
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// [`sha256_concat`] of two messages in lockstep: each block of one and
/// then the same block of the other, while both have one, and the longer
/// one finishes alone. The two chains share nothing, so an out-of-order
/// CPU overlaps each compression with the other message's instead of
/// waiting on its own. `padded` holds the two padded messages and is
/// reused across calls.
pub(crate) fn sha256_concat2(parts: [&[&[u8]]; 2], padded: &mut [Vec<u8>; 2]) -> [Digest; 2] {
    for (buf, parts) in padded.iter_mut().zip(parts) {
        pad_into(buf, parts);
    }
    let (a, _) = padded[0].as_chunks::<64>();
    let (b, _) = padded[1].as_chunks::<64>();
    let both = a.len().min(b.len());
    let (mut sa, mut sb) = (H0, H0);
    for (x, y) in a.iter().zip(b) {
        compress(&mut sa, x);
        compress(&mut sb, y);
    }
    a[both..].iter().for_each(|x| compress(&mut sa, x));
    b[both..].iter().for_each(|y| compress(&mut sb, y));
    [sa, sb].map(|s| Digest::from_state(&s))
}

/// `parts` concatenated into `buf` and padded as [`Sha256::finalize`]
/// pads them: 0x80, zeros, and the bit length closing the last block.
fn pad_into(buf: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let padded = (len + 1 + 8).next_multiple_of(64);
    buf.clear();
    buf.reserve(padded);
    for part in parts {
        buf.extend_from_slice(part);
    }
    buf.push(0x80);
    buf.resize(padded - 8, 0);
    buf.extend_from_slice(&(len as u64).wrapping_mul(8).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::probe::{on_each_backend, on_portable};
    use super::*;
    use proptest::prelude::*;

    // NIST / well-known test vectors, on the portable backend and on the
    // one this host selects.
    #[test]
    fn nist_vectors_on_each_backend() {
        let vectors: [(&[u8], &str); 7] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // 55 bytes leave exactly room for 0x80 + length; 56 do not.
            (
                &[0x62; 55],
                "eb2c86e932179f4ba13fe8715a26124b77d6bad290b9b4c1cc140cf633300c19",
            ),
            (
                &[0x62; 56],
                "a5fc6e203a4c2b657d0d153885932414b2ffc6a93f0f8bf8b3183315e5a7212c",
            ),
            // 64 bytes: the padding spills into a second block.
            (
                &[0x61; 64],
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                &[b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        on_each_backend(|| {
            for (msg, hex) in vectors {
                assert_eq!(sha256(msg).to_hex(), hex, "{} bytes", msg.len());
            }
        });
    }

    #[test]
    fn probe_pins_the_portable_backend_and_counts() {
        // "abc" is one padded block; 64 bytes are two; a pair costs what
        // its two messages cost apart.
        assert_eq!(probe::compressions(|| _ = sha256(b"abc")), 1);
        assert_eq!(probe::compressions(|| _ = sha256(&[0; 64])), 2);
        let mut padded = Default::default();
        let pair = || _ = sha256_concat2([&[b"abc"], &[&[0; 64]]], &mut padded);
        assert_eq!(probe::compressions(pair), 3);
        let mut hardware = H0;
        compress(&mut hardware, &[0x5a; 64]);
        let mut portable = H0;
        compress_portable(&mut portable, &[0x5a; 64]);
        assert_eq!(hardware, portable);
        assert_eq!(
            on_portable(|| {
                let mut s = H0;
                compress(&mut s, &[0x5a; 64]);
                s
            }),
            portable
        );
    }

    proptest! {
        #[test]
        fn backends_agree_on_any_block(state in any::<[u8; 32]>(), block in any::<[u8; 64]>()) {
            let state: [u32; 8] = std::array::from_fn(|i| {
                u32::from_be_bytes(state[4 * i..4 * i + 4].try_into().expect("4 bytes"))
            });
            let (mut selected, mut portable) = (state, state);
            compress(&mut selected, &block);
            compress_portable(&mut portable, &block);
            prop_assert_eq!(selected, portable);
        }

        #[test]
        fn paired_hashing_equals_two_one_shot_hashes(
            a in proptest::collection::vec(any::<u8>(), 0..300),
            b in proptest::collection::vec(any::<u8>(), 0..300),
            cut in 0usize..300,
        ) {
            // Each message in two parts, so the pad copies across a part
            // boundary; lengths differ, so one message often finishes alone.
            let (a0, a1) = a.split_at(cut.min(a.len()));
            on_each_backend(|| {
                assert_eq!(
                    sha256_concat2([&[a0, a1], &[&b]], &mut Default::default()),
                    [sha256(&a), sha256(&b)]
                );
            });
        }

        #[test]
        fn backends_agree_on_any_message_and_chunking(
            data in proptest::collection::vec(any::<u8>(), 0..301),
            pieces in proptest::collection::vec(0usize..18, 0..41),
            cuts in proptest::collection::vec(0usize..301, 0..6),
        ) {
            // Pieces of up to seventeen bytes walk across the first block
            // boundaries; arbitrary cuts take the rest.
            let chunked = || {
                let mut h = Sha256::new();
                let mut rest = data.as_slice();
                for cut in pieces.iter().chain(&cuts) {
                    let (head, tail) = rest.split_at((*cut).min(rest.len()));
                    h.update(head);
                    rest = tail;
                }
                h.update(rest);
                h.finalize()
            };
            let oracle = on_portable(|| sha256(&data));
            prop_assert_eq!(on_portable(chunked), oracle);
            prop_assert_eq!(chunked(), oracle);
            prop_assert_eq!(sha256(&data), oracle);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        on_each_backend(|| {
            for chunk in [1usize, 3, 7, 63, 64, 65, 100] {
                let mut h = Sha256::new();
                for c in data.chunks(chunk) {
                    h.update(c);
                }
                assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
            }
        });
    }

    #[test]
    fn short_writes_anywhere_around_a_block_boundary_match_oneshot() {
        // A write of 0..=17 bytes (every length the buffer copies in its own
        // way, and one past) starting at every offset from 38 to 72 covers
        // ending just short of, on, and past the 55/56-byte padding edge
        // and the 63/64-byte block edge.
        let data: Vec<u8> = (0..130u8).collect();
        on_each_backend(|| {
            for start in 38..=72 {
                for len in 0..=17 {
                    let mut h = Sha256::new();
                    h.update(&data[..start]);
                    h.update(&data[start..start + len]);
                    let stop_short = h.clone().finalize();
                    h.update(&data[start + len..]);
                    assert_eq!(h.finalize(), sha256(&data), "{len} bytes at {start}");
                    assert_eq!(stop_short, sha256(&data[..start + len]), "{len} at {start}");
                }
            }
        });
    }

    #[test]
    fn concat_matches_manual_concat() {
        let joined = [b"hello".as_slice(), b" ", b"world"].concat();
        assert_eq!(sha256_concat(&[b"hello", b" ", b"world"]), sha256(&joined));
    }

    #[test]
    fn digest_display_and_short() {
        let d = sha256(b"abc");
        assert_eq!(d.short(), "ba7816bf");
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").contains("ba7816bf"));
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let d = Digest([
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.prefix_u64(), 0x0102030405060708);
    }
}
