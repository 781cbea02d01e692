//! The hash of the workspace's lookup tables keyed by integers: each word
//! of a key folded in by a rotate and a multiplication. A fixed function
//! of the key, never a randomly seeded one, so a table is the same from
//! run to run (`ci/check.sh` holds every table under `crates/` to a named
//! hasher).
//! The tables hashed with it are probed by key and never walked, so their
//! layout cannot reach an output.
//!
//! # Examples
//!
//! ```
//! use std::collections::HashSet;
//! use simnet::hash::MixState;
//!
//! let mut seen: HashSet<(u32, u64), MixState> = HashSet::default();
//! assert!(seen.insert((3, 7)));
//! assert!(!seen.insert((3, 7)));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Folds each word of a key in by a rotate and a multiplication.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits, the product keeps
        // its best ones high.
        self.0 ^ (self.0 >> 32)
    }
}

/// What a `HashMap` or `HashSet` names as its hasher to hash with
/// [`MixHasher`].
pub type MixState = BuildHasherDefault<MixHasher>;
