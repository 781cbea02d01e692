//! Key pairs and the PKI-style key registry distributed to all Spire
//! components at configuration time (the original system ships RSA public
//! keys to every replica, proxy, and daemon in its configuration).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schnorr::{self, FixedBase, Signature, Q};

/// A public verification key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub u64);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:x})", self.0)
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        schnorr::verify(self.0, msg, sig)
    }
}

/// A signing key pair.
///
/// # Examples
///
/// ```
/// use itcrypto::keys::KeyPair;
///
/// let mut kp = KeyPair::generate(1);
/// let sig = kp.sign(b"hello");
/// assert!(kp.public_key().verify(b"hello", &sig));
/// ```
#[derive(Clone)]
pub struct KeyPair {
    secret: u64,
    public: PublicKey,
    nonce_rng: StdRng,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "KeyPair(pk={:x})", self.public.0)
    }
}

impl KeyPair {
    /// Deterministically generates a key pair from a seed. Distinct seeds
    /// give distinct keys (with overwhelming probability in the group size).
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1);
        let secret = rng.gen_range(1..Q);
        let public = PublicKey(schnorr::g_pow(secret));
        KeyPair {
            secret,
            public,
            nonce_rng: StdRng::seed_from_u64(seed ^ 0xdead_beef),
        }
    }

    /// Returns the public half.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs a message. Uses an internal deterministic nonce RNG so repeated
    /// runs of a seeded simulation produce identical transcripts.
    pub fn sign(&mut self, msg: &[u8]) -> Signature {
        schnorr::sign(self.secret, self.public.0, msg, &mut self.nonce_rng)
    }
}

/// Identity of a principal in the key registry.
///
/// Spire's configuration assigns keys to replicas, Spines daemons, proxies,
/// and HMIs; we namespace them the same way.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Principal {
    /// A Prime/SCADA-master replica, by replica index.
    Replica(u32),
    /// A Spines overlay daemon, by daemon id.
    Daemon(u32),
    /// A PLC/RTU proxy, by proxy id.
    Proxy(u32),
    /// An HMI instance, by id.
    Hmi(u32),
    /// A client injecting updates (e.g. the breaker-cycle generator).
    Client(u32),
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Principal::Replica(i) => write!(f, "replica-{i}"),
            Principal::Daemon(i) => write!(f, "daemon-{i}"),
            Principal::Proxy(i) => write!(f, "proxy-{i}"),
            Principal::Hmi(i) => write!(f, "hmi-{i}"),
            Principal::Client(i) => write!(f, "client-{i}"),
        }
    }
}

/// A registered key and, once a signature has been checked against it,
/// the table of its powers ([`FixedBase`]).
#[derive(Clone, Debug)]
struct Registered {
    key: PublicKey,
    powers: OnceLock<Box<FixedBase>>,
}

/// The system-wide public-key registry, distributed out-of-band at
/// configuration time (as in the real deployment).
#[derive(Clone, Debug, Default)]
pub struct KeyRegistry {
    keys: BTreeMap<Principal, Registered>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a principal's public key, returning the previous key if one
    /// was present (useful when proactive recovery rotates keys).
    pub fn register(&mut self, who: Principal, key: PublicKey) -> Option<PublicKey> {
        let entry = Registered {
            key,
            powers: OnceLock::new(),
        };
        self.keys.insert(who, entry).map(|old| old.key)
    }

    /// Looks up a principal's key.
    pub fn lookup(&self, who: Principal) -> Option<PublicKey> {
        self.keys.get(&who).map(|entry| entry.key)
    }

    /// Verifies a signature attributed to `who`. Unknown principals fail.
    /// The verdict is [`PublicKey::verify`]'s; a registry checks the same
    /// few keys for a whole run, so it tabulates a key's powers the first
    /// time the key is used.
    pub fn verify(&self, who: Principal, msg: &[u8], sig: &Signature) -> bool {
        self.keys.get(&who).is_some_and(|entry| {
            entry
                .powers
                .get_or_init(|| Box::new(FixedBase::new(entry.key.0)))
                .verify(msg, sig)
        })
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over registered principals and keys.
    pub fn iter(&self) -> impl Iterator<Item = (&Principal, &PublicKey)> {
        self.keys.iter().map(|(who, entry)| (who, &entry.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = KeyPair::generate(1);
        let b = KeyPair::generate(2);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn same_seed_same_key() {
        assert_eq!(
            KeyPair::generate(99).public_key(),
            KeyPair::generate(99).public_key()
        );
    }

    #[test]
    fn registry_verify_known_and_unknown() {
        let mut kp = KeyPair::generate(5);
        let mut reg = KeyRegistry::new();
        reg.register(Principal::Replica(0), kp.public_key());
        let sig = kp.sign(b"msg");
        assert!(reg.verify(Principal::Replica(0), b"msg", &sig));
        assert!(!reg.verify(Principal::Replica(1), b"msg", &sig));
        assert!(!reg.verify(Principal::Replica(0), b"other", &sig));
    }

    #[test]
    fn registry_key_rotation_returns_old() {
        let kp1 = KeyPair::generate(1);
        let kp2 = KeyPair::generate(2);
        let mut reg = KeyRegistry::new();
        assert!(reg
            .register(Principal::Daemon(3), kp1.public_key())
            .is_none());
        let old = reg.register(Principal::Daemon(3), kp2.public_key());
        assert_eq!(old, Some(kp1.public_key()));
        assert_eq!(reg.lookup(Principal::Daemon(3)), Some(kp2.public_key()));
    }

    #[test]
    fn debug_never_reveals_secret() {
        let kp = KeyPair::generate(123);
        let dbg = format!("{kp:?}");
        assert!(dbg.contains("pk="));
        assert!(!dbg.contains(&format!("{}", kp.secret)));
    }

    #[test]
    fn principal_display() {
        assert_eq!(Principal::Replica(2).to_string(), "replica-2");
        assert_eq!(Principal::Hmi(0).to_string(), "hmi-0");
    }

    #[test]
    fn registry_len_and_iter() {
        let mut reg = KeyRegistry::new();
        assert!(reg.is_empty());
        for i in 0..4 {
            reg.register(
                Principal::Replica(i),
                KeyPair::generate(i as u64).public_key(),
            );
        }
        assert_eq!(reg.len(), 4);
        assert_eq!(reg.iter().count(), 4);
    }
}
