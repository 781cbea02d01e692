//! GHASH on the x86-64 carry-less multiply.
//!
//! A block lives in a vector as its big-endian integer, so the coefficient
//! of x⁰ is the top bit: the bits are reflected. The carry-less product of
//! two reflected 128-bit values is the reflected 255-bit product, so one
//! shift left by a bit and a reduction modulo the reflected polynomial give
//! the reflected result (Gueron and Kounavis, "Intel Carry-Less
//! Multiplication Instruction and its Usage for Computing the GCM Mode",
//! algorithm 5). Shift and reduction are linear, so up to eight products
//! `Xᵢ·Hʲ` are summed unreduced and reduced once. Vectors are built and read
//! back through 64-bit integers, never through pointers, so everything in
//! here is safe code; the only obligation, that the CPU has the
//! instructions, sits with the one caller in [`super::Ghash::digest`].

use std::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_or_si128, _mm_set_epi64x,
    _mm_setzero_si128, _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128,
    _mm_unpackhi_epi64, _mm_xor_si128,
};
use std::sync::OnceLock;

use super::{BLOCK, GROUP};

/// Whether this CPU has every feature [`digest`] is compiled with.
/// Detected once.
pub(super) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE
        .get_or_init(|| is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse2"))
}

#[inline]
#[target_feature(enable = "sse2")]
fn load(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[inline]
#[target_feature(enable = "sse2")]
fn store(v: __m128i) -> u128 {
    let low = _mm_cvtsi128_si64(v) as u64;
    let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
    u128::from(high) << 64 | u128::from(low)
}

/// The 256-bit carry-less product `a·b` as (low, high) halves.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let low = _mm_clmulepi64_si128(a, b, 0x00);
    let high = _mm_clmulepi64_si128(a, b, 0x11);
    let middle = _mm_xor_si128(
        _mm_clmulepi64_si128(a, b, 0x10),
        _mm_clmulepi64_si128(a, b, 0x01),
    );
    (
        _mm_xor_si128(low, _mm_slli_si128(middle, 8)),
        _mm_xor_si128(high, _mm_srli_si128(middle, 8)),
    )
}

/// The reflected field element a reflected 255-bit product `(low, high)`
/// stands for: shifted left a bit, then reduced modulo
/// x¹²⁸ + x⁷ + x² + x + 1.
#[inline]
#[target_feature(enable = "sse2")]
fn reduce(low: __m128i, high: __m128i) -> __m128i {
    // Shift the 256 bits left by one, 32-bit lane by lane, carrying each
    // lane's top bit into the next lane up.
    let carry_low = _mm_srli_epi32(low, 31);
    let carry_high = _mm_srli_epi32(high, 31);
    let across = _mm_srli_si128(carry_low, 12);
    let low = _mm_or_si128(_mm_slli_epi32(low, 1), _mm_slli_si128(carry_low, 4));
    let high = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32(high, 1), _mm_slli_si128(carry_high, 4)),
        across,
    );
    // Reduce: in this bit order the low half holds the coefficients of
    // x¹²⁸ to x²⁵⁵, and x¹²⁸ = x⁷ + x² + x + 1. The left shifts by 31, 30
    // and 25 are the part of that product that lands back in the low half
    // (phase one); the right shifts by 1, 2 and 7 fold the rest into the
    // high half (phase two).
    let folded = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32(low, 31), _mm_slli_epi32(low, 30)),
        _mm_slli_epi32(low, 25),
    );
    let spill = _mm_srli_si128(folded, 4);
    let low = _mm_xor_si128(low, _mm_slli_si128(folded, 12));
    let terms = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32(low, 1), _mm_srli_epi32(low, 2)),
        _mm_xor_si128(_mm_srli_epi32(low, 7), spill),
    );
    _mm_xor_si128(high, _mm_xor_si128(low, terms))
}

/// GHASH of `ciphertext` under the key whose powers are `powers`
/// (`powers[i]` = H^(i + 1)), as a big-endian integer. Callable only where
/// [`available`] holds.
#[target_feature(enable = "pclmulqdq,sse2")]
pub(super) fn digest(powers: &[u128; GROUP], ciphertext: &[u8]) -> u128 {
    let powers = powers.map(|p| load(p));
    let (whole, tail) = ciphertext.as_chunks::<BLOCK>();
    let (groups, rest) = whole.as_chunks::<GROUP>();
    let mut y = _mm_setzero_si128();
    for group in groups {
        y = absorb(&powers, y, &group.map(u128::from_be_bytes));
    }
    // What is left, at most nine blocks: the whole blocks short of a
    // group, the padded tail, the length block.
    let mut last = [0u128; GROUP + 1];
    let mut filled = 0;
    for block in rest.iter().map(|block| u128::from_be_bytes(*block)) {
        last[filled] = block;
        filled += 1;
    }
    if !tail.is_empty() {
        last[filled] = super::padded(tail);
        filled += 1;
    }
    last[filled] = super::length_block(ciphertext);
    filled += 1;
    for group in last[..filled].chunks(GROUP) {
        y = absorb(&powers, y, group);
    }
    store(y)
}

/// `Y` after absorbing `group` (one to [`GROUP`] blocks):
/// `(Y ⊕ X₁)·Hᵏ ⊕ X₂·Hᵏ⁻¹ ⊕ … ⊕ Xₖ·H`, reduced once.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn absorb(powers: &[__m128i; GROUP], y: __m128i, group: &[u128]) -> __m128i {
    let k = group.len();
    let (mut low, mut high) = clmul(_mm_xor_si128(load(group[0]), y), powers[k - 1]);
    for j in 1..k {
        let (l, h) = clmul(load(group[j]), powers[k - 1 - j]);
        low = _mm_xor_si128(low, l);
        high = _mm_xor_si128(high, h);
    }
    reduce(low, high)
}
