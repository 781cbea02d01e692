//! Cryptographic substrate for the Spire reproduction.
//!
//! The original Spire deployment used OpenSSL (RSA signatures, SHA digests,
//! and AES encryption on Spines links). This crate provides from-scratch
//! implementations with the same *protocol roles*:
//!
//! * [`mod@sha256`] — a complete SHA-256 implementation used for all
//!   digests: one compression-function entry, a portable backend that is
//!   always built (and is the test oracle) and an x86-64 SHA-extensions
//!   backend selected at run time where the CPU has them.
//! * [`hmac`] — HMAC-SHA-256 for link authentication and key derivation.
//! * [`aes`] — AES-256 in counter mode, the link cipher: one `ctr_xor`
//!   entry, a portable table-based backend that is always built (and is
//!   the test oracle) and an x86-64 AES-NI backend selected at run time
//!   where the CPU has it.
//! * [`schnorr`] — transferable digital signatures (Schnorr over a ~62-bit
//!   safe-prime group). **Simulation-grade, not secure**: the group is small
//!   enough that discrete logs are practical for a real attacker. The
//!   algebra is real, so in-protocol behaviour (valid signatures verify,
//!   forgeries without the key are rejected) is faithful.
//! * [`merkle`] — Merkle trees for state-transfer digests and checkpoints.
//! * [`keys`] — key pairs, a PKI-style registry, and session keys.
//! * [`stream`] — the encrypt-then-MAC envelope for link encryption:
//!   [`aes`] keystream, [`hmac`] tag, separately derived keys.
//! * [`verify_cache`] — bounded memoization of signature-verification
//!   verdicts (digest-keyed, observationally invisible).
//!
//! # Examples
//!
//! ```
//! use itcrypto::keys::KeyPair;
//!
//! let mut kp = KeyPair::generate(42);
//! let sig = kp.sign(b"open breaker B57");
//! assert!(kp.public_key().verify(b"open breaker B57", &sig));
//! assert!(!kp.public_key().verify(b"open breaker B56", &sig));
//! ```

// Two `unsafe` blocks in the crate, each the call into a `#[target_feature]`
// backend after run-time detection: the SHA extensions in
// `sha256::compress`, the AES instructions in `aes::Aes256::ctr_xor`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod schnorr;
pub mod sha256;
pub mod stream;
pub mod verify_cache;

pub use hmac::hmac_sha256;
pub use keys::{KeyPair, KeyRegistry, PublicKey};
pub use merkle::MerkleTree;
pub use schnorr::Signature;
pub use sha256::{sha256, Digest};
pub use verify_cache::VerifyCache;
