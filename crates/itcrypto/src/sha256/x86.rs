//! The compression function on the x86-64 SHA extensions.
//!
//! `sha256rnds2` performs two rounds on the state split as `ABEF`/`CDGH`,
//! `sha256msg1`/`sha256msg2` extend the message schedule four words at a
//! time. Vectors are built and read back with `_mm_set_epi32` /
//! `_mm_extract_epi32`, never through pointers, so everything in here is
//! safe code; the only obligation, that the CPU has the instructions, sits
//! with the one caller in [`super::compress`].

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};
use std::sync::OnceLock;

use super::K;

/// Whether this CPU has every feature [`compress`] is compiled with.
/// Detected once.
pub(super) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    })
}

/// Four words as one vector, `w[0]` in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn lanes(w: [u32; 4]) -> __m128i {
    _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
}

/// Folds one block into `state`. Callable only where [`available`] holds.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let [a, b, c, d, e, f, g, h] = *state;
    let (abef, cdgh) = (lanes([f, e, b, a]), lanes([h, g, d, c]));
    let (mut state0, mut state1) = (abef, cdgh);

    // The rolling schedule: m0..m3 hold the current sixteen words, four
    // each.
    let word = |i: usize| u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    let load = |j: usize| {
        lanes([
            word(4 * j),
            word(4 * j + 1),
            word(4 * j + 2),
            word(4 * j + 3),
        ])
    };
    let (mut m0, mut m1, mut m2, mut m3) = (load(0), load(1), load(2), load(3));

    // Rounds 4g..4g+4, consuming `$cur`. While later groups still need
    // them, the next four schedule words are finished in `$next` (msg2,
    // from the word carried over from `$prev`) and the four after those
    // started in `$begun` (msg1). Written out sixteen times so that the
    // schedule stays in registers.
    macro_rules! rounds4 {
        ($g:expr, $cur:ident $(, finish $next:ident from $prev:ident)? $(, start $begun:ident)?) => {
            let msg = _mm_add_epi32(
                $cur,
                lanes([K[4 * $g], K[4 * $g + 1], K[4 * $g + 2], K[4 * $g + 3]]),
            );
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32::<0x0E>(msg));
            $(
                let carried = _mm_alignr_epi8::<4>($cur, $prev);
                $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, carried), $cur);
            )?
            $( $begun = _mm_sha256msg1_epu32($begun, $cur); )?
        };
    }
    rounds4!(0, m0);
    rounds4!(1, m1, start m0);
    rounds4!(2, m2, start m1);
    rounds4!(3, m3, finish m0 from m2, start m2);
    rounds4!(4, m0, finish m1 from m3, start m3);
    rounds4!(5, m1, finish m2 from m0, start m0);
    rounds4!(6, m2, finish m3 from m1, start m1);
    rounds4!(7, m3, finish m0 from m2, start m2);
    rounds4!(8, m0, finish m1 from m3, start m3);
    rounds4!(9, m1, finish m2 from m0, start m0);
    rounds4!(10, m2, finish m3 from m1, start m1);
    rounds4!(11, m3, finish m0 from m2, start m2);
    rounds4!(12, m0, finish m1 from m3, start m3);
    rounds4!(13, m1, finish m2 from m0);
    rounds4!(14, m2, finish m3 from m1);
    rounds4!(15, m3);

    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
    *state = [
        _mm_extract_epi32::<3>(state0) as u32,
        _mm_extract_epi32::<2>(state0) as u32,
        _mm_extract_epi32::<3>(state1) as u32,
        _mm_extract_epi32::<2>(state1) as u32,
        _mm_extract_epi32::<1>(state0) as u32,
        _mm_extract_epi32::<0>(state0) as u32,
        _mm_extract_epi32::<1>(state1) as u32,
        _mm_extract_epi32::<0>(state1) as u32,
    ];
}
