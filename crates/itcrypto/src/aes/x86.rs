//! Counter mode on the x86-64 AES instructions.
//!
//! `aesenc` is one full round (ShiftRows, SubBytes, MixColumns, AddRoundKey)
//! and takes a few cycles to answer but starts every cycle, so eight
//! counter blocks go through the rounds side by side, and whole batches of
//! 128 bytes take the keystream straight from registers. A short last
//! batch runs one, two, four or eight blocks, as many as it needs. Vectors
//! are built and read back through 64-bit integers (`_mm_set_epi64x` /
//! `_mm_cvtsi128_si64`), never through pointers, so everything in here is
//! safe code; the only obligation, that the CPU has the instructions, sits
//! with the one caller in [`super::Aes256::ctr_xor`].

use std::arch::x86_64::{
    __m128i, _mm_add_epi64, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64,
    _mm_set_epi64x, _mm_shuffle_epi8, _mm_unpackhi_epi64, _mm_xor_si128,
};
use std::sync::OnceLock;

use super::{BLOCK, ROUND_KEYS};

/// Counter blocks encrypted side by side.
const WIDTH: usize = 8;

/// Whether this CPU has every feature [`ctr_xor`] is compiled with.
/// Detected once.
pub(super) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
    })
}

/// Sixteen bytes as one vector, `bytes[0]` in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn load(bytes: &[u8; BLOCK]) -> __m128i {
    let v = u128::from_le_bytes(*bytes);
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// The inverse of [`load`].
#[inline]
#[target_feature(enable = "sse2")]
fn store(v: __m128i) -> [u8; BLOCK] {
    let low = _mm_cvtsi128_si64(v) as u64;
    let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
    (u128::from(high) << 64 | u128::from(low)).to_le_bytes()
}

/// Keystream blocks `counter..counter + WIDTH` (wrapping) of `nonce`, which
/// comes as the little-endian lane that holds its big-endian bytes. The
/// counter is kept as a native integer in the high lane, where `paddq`
/// steps it modulo 2⁶⁴ without touching the nonce, and `pshufb` turns that
/// lane big-endian for each block.
#[inline]
#[target_feature(enable = "aes,sse2,ssse3")]
fn keystream<const N: usize>(
    round_keys: &[[u8; BLOCK]; ROUND_KEYS],
    nonce: i64,
    counter: u64,
) -> [__m128i; N] {
    let [first, middle @ .., last] = round_keys;
    let mut blocks = [load(first); N];
    let mut lanes = _mm_set_epi64x(counter as i64, nonce);
    let one = _mm_set_epi64x(1, 0);
    let reverse_high = _mm_set_epi64x(0x0809_0a0b_0c0d_0e0f, 0x0706_0504_0302_0100);
    for block in &mut blocks {
        *block = _mm_xor_si128(*block, _mm_shuffle_epi8(lanes, reverse_high));
        lanes = _mm_add_epi64(lanes, one);
    }
    for key in middle {
        let key = load(key);
        for block in &mut blocks {
            *block = _mm_aesenc_si128(*block, key);
        }
    }
    let last = load(last);
    blocks.map(|block| _mm_aesenclast_si128(block, last))
}

/// `piece ^= keystream`, sixteen bytes at once.
#[inline]
#[target_feature(enable = "sse2")]
fn xor_block(piece: &mut [u8], keystream: __m128i) {
    let piece: &mut [u8; BLOCK] = piece.try_into().expect("a whole block");
    *piece = store(_mm_xor_si128(load(piece), keystream));
}

/// XORs the keystream of `nonce` from counter block `first_block` on over
/// `data`. Callable only where [`available`] holds.
#[target_feature(enable = "aes,sse2,ssse3")]
pub(super) fn ctr_xor(
    round_keys: &[[u8; BLOCK]; ROUND_KEYS],
    nonce: u64,
    first_block: u64,
    data: &mut [u8],
) {
    let nonce = nonce.swap_bytes() as i64;
    let mut counter = first_block;
    let mut batches = data.chunks_exact_mut(WIDTH * BLOCK);
    for batch in &mut batches {
        let blocks = keystream::<WIDTH>(round_keys, nonce, counter);
        for (piece, block) in batch.chunks_exact_mut(BLOCK).zip(blocks) {
            xor_block(piece, block);
        }
        counter = counter.wrapping_add(WIDTH as u64);
    }
    // A short last batch runs the blocks it needs side by side, rounded up
    // to a power of two: a lone block (a GCM tag's mask, the head of a
    // frame read for its dedup key) does not pay for eight.
    let rest = batches.into_remainder();
    match rest.len().div_ceil(BLOCK) {
        0 => {}
        1 => xor_rest::<1>(round_keys, nonce, counter, rest),
        2 => xor_rest::<2>(round_keys, nonce, counter, rest),
        3 | 4 => xor_rest::<4>(round_keys, nonce, counter, rest),
        _ => xor_rest::<WIDTH>(round_keys, nonce, counter, rest),
    }
}

/// XORs `N` keystream blocks from `counter` on over `rest`, which they
/// cover. Nothing is read or written past `rest`.
#[inline]
#[target_feature(enable = "aes,sse2,ssse3")]
fn xor_rest<const N: usize>(
    round_keys: &[[u8; BLOCK]; ROUND_KEYS],
    nonce: i64,
    counter: u64,
    rest: &mut [u8],
) {
    let blocks = keystream::<N>(round_keys, nonce, counter);
    let whole = rest.len() / BLOCK;
    let (pieces, tail) = rest.split_at_mut(whole * BLOCK);
    for (piece, block) in pieces.chunks_exact_mut(BLOCK).zip(blocks) {
        xor_block(piece, block);
    }
    if !tail.is_empty() {
        // The blocks cover `rest`, so block `whole` is one of them.
        for (byte, k) in tail.iter_mut().zip(store(blocks[whole])) {
            *byte ^= k;
        }
    }
}
