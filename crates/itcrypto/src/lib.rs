//! Cryptographic substrate for the Spire reproduction.
//!
//! The original Spire deployment used OpenSSL (RSA signatures, SHA digests,
//! and symmetric encryption on Spines links). This crate provides
//! from-scratch implementations with the same *protocol roles*:
//!
//! * [`mod@sha256`] — a complete SHA-256 implementation used for all
//!   digests: one compression-function entry, a portable backend that is
//!   always built (and is the test oracle) and an x86-64 SHA-extensions
//!   backend selected at run time where the CPU has them.
//! * [`hmac`] — HMAC-SHA-256 for link authentication and key derivation;
//!   its keyed midstates also serve [`stream`] as a PRF.
//! * [`schnorr`] — transferable digital signatures (Schnorr over a ~62-bit
//!   safe-prime group). **Simulation-grade, not secure**: the group is small
//!   enough that discrete logs are practical for a real attacker. The
//!   algebra is real, so in-protocol behaviour (valid signatures verify,
//!   forgeries without the key are rejected) is faithful.
//! * [`merkle`] — Merkle trees for state-transfer digests and checkpoints.
//! * [`keys`] — key pairs, a PKI-style registry, and session keys.
//! * [`stream`] — a counter-mode stream cipher (one compression per 32-byte
//!   keystream block) and encrypt-then-MAC envelope for link encryption.
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

// One `unsafe` block in the crate: the call into the `#[target_feature]`
// SHA-extensions backend in `sha256::compress`, after run-time detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

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
