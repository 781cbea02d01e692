//! Schnorr signatures over a small safe-prime group.
//!
//! The group is the order-`q` subgroup of `Z_p^*` with
//! `p = 2q + 1 = 4611686018427394499` (62 bits) and generator `g = 4`.
//!
//! **This is simulation-grade cryptography.** A 62-bit discrete log is
//! entirely practical to compute; the point is not security against a real
//! adversary but faithful *in-protocol* behaviour: signatures are
//! transferable (any party can verify with the public key), unforgeable
//! without the secret key by the honest-but-scripted adversaries in this
//! repository, and deterministic given an RNG seed. The original Spire used
//! 2048-bit RSA via OpenSSL; swapping these primitives does not change any
//! protocol logic.

use std::fmt;

use rand::Rng;

use crate::sha256::sha256_concat;

/// Group modulus `p` (a safe prime, `p = 2q + 1`).
pub const P: u64 = 4_611_686_018_427_394_499;
/// Subgroup order `q` (prime).
pub const Q: u64 = 2_305_843_009_213_697_249;
/// Generator of the order-`q` subgroup.
pub const G: u64 = 4;

/// Multiplies modulo any `m` without overflow. The `u128` remainder is a
/// library call (`__umodti3`); the group arithmetic below uses Montgomery
/// reduction for its two fixed moduli instead, and this general form
/// stays for [`is_prime_u64`] and as the oracle the fast path is tested
/// against.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Computes `base^exp mod m` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Montgomery arithmetic modulo a fixed odd `n < 2^63`, with `R = 2^64`:
/// a product is reduced with two multiplications and a shift instead of a
/// 128-bit division. Results are canonical residues, so everything
/// computed through it is bit-identical to [`mul_mod`]/[`pow_mod`].
#[derive(Clone, Copy, Debug)]
struct Montgomery {
    n: u64,
    /// `-n^-1 mod R`.
    n_neg_inv: u64,
    /// `R^2 mod n`: multiplying by it moves a value into Montgomery form.
    r2: u64,
}

impl Montgomery {
    const fn new(n: u64) -> Self {
        assert!(n % 2 == 1 && n < 1 << 63);
        // Newton's iteration doubles the correct low bits of n^-1 mod 2^64
        // each step, starting from 3 (n * n = 1 mod 8).
        let mut inv = n;
        let mut i = 0;
        while i < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(inv)));
            i += 1;
        }
        let r = ((1u128 << 64) % n as u128) as u64;
        Montgomery {
            n,
            n_neg_inv: inv.wrapping_neg(),
            r2: ((r as u128 * r as u128) % n as u128) as u64,
        }
    }

    /// `t / R mod n`, for `t < n * R`: one Montgomery product. Usable in
    /// constants; everything at run time goes through [`Self::reduce`].
    const fn reduce_const(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.n_neg_inv);
        // t + m * n is divisible by R and below 2 * n * R < 2^128.
        let u = ((t + m as u128 * self.n as u128) >> 64) as u64;
        if u >= self.n {
            u - self.n
        } else {
            u
        }
    }

    /// [`Self::reduce_const`], counted under test.
    #[inline]
    fn reduce(&self, t: u128) -> u64 {
        #[cfg(test)]
        probe::count();
        self.reduce_const(t)
    }

    /// Montgomery form of any `a` (reducing it modulo `n` on the way).
    #[inline]
    fn enter(&self, a: u64) -> u64 {
        self.reduce(a as u128 * self.r2 as u128)
    }

    /// `a * b mod n` for a plain residue `a < n` and any `b`.
    #[inline]
    fn mul_mod(&self, a: u64, b: u64) -> u64 {
        self.reduce(self.reduce(a as u128 * b as u128) as u128 * self.r2 as u128)
    }

    /// `base^exp mod n` in Montgomery form, by square-and-multiply, for
    /// any `base`.
    fn pow_mont(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.enter(base);
        let mut acc = self.enter(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.reduce(acc as u128 * base as u128);
            }
            base = self.reduce(base as u128 * base as u128);
            exp >>= 1;
        }
        acc
    }

    /// `base^exp mod n`, for any `base`.
    #[cfg(test)]
    fn pow_mod(&self, base: u64, exp: u64) -> u64 {
        self.reduce(self.pow_mont(base, exp) as u128)
    }
}

const MOD_P: Montgomery = Montgomery::new(P);
const MOD_Q: Montgomery = Montgomery::new(Q);

/// Bits of the exponent one table row covers.
const WINDOW_BITS: u32 = 4;
/// Rows that cover a 64-bit exponent.
const WINDOWS: usize = (u64::BITS / WINDOW_BITS) as usize;

/// Every power of one base that a 64-bit exponent can select, four bits
/// at a time: `rows[w][d] = base^(d * 16^w) mod P` in Montgomery form. An
/// exponentiation is then the product of one entry per row: fifteen
/// Montgomery products and no squarings, against about ninety for
/// square-and-multiply. The result is the same canonical residue.
///
/// The generator's table is a constant; a public key's is
/// built on first use by [`crate::keys::KeyRegistry`], which verifies
/// against the same few keys for a whole run (2 KiB and 256 products a
/// key, the price of three ladders).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedBase {
    base: u64,
    rows: [[u64; 1 << WINDOW_BITS]; WINDOWS],
}

impl FixedBase {
    /// Tabulates the powers of `base` modulo [`P`].
    pub const fn new(base: u64) -> Self {
        let m = MOD_P;
        let one = m.reduce_const(m.r2 as u128);
        let mut rows = [[one; 1 << WINDOW_BITS]; WINDOWS];
        // `step` is base^(16^w): the row's unit, and sixteen of them the
        // next row's.
        let mut step = m.reduce_const(base as u128 * m.r2 as u128);
        let mut w = 0;
        while w < WINDOWS {
            let mut d = 1;
            while d < 1 << WINDOW_BITS {
                rows[w][d] = m.reduce_const(rows[w][d - 1] as u128 * step as u128);
                d += 1;
            }
            step = m.reduce_const(rows[w][(1 << WINDOW_BITS) - 1] as u128 * step as u128);
            w += 1;
        }
        FixedBase { base, rows }
    }

    /// `base^exp mod P` in Montgomery form: one product per row after the
    /// first, whatever the exponent.
    #[inline]
    fn pow_mont(&self, exp: u64) -> u64 {
        let digit =
            |w: usize| (exp >> (w as u32 * WINDOW_BITS)) as usize & ((1 << WINDOW_BITS) - 1);
        let mut acc = self.rows[0][digit(0)];
        for w in 1..WINDOWS {
            acc = MOD_P.reduce(acc as u128 * self.rows[w][digit(w)] as u128);
        }
        acc
    }

    /// `base^exp mod P`.
    pub fn pow(&self, exp: u64) -> u64 {
        MOD_P.reduce(self.pow_mont(exp) as u128)
    }

    /// Verifies a signature against the public key this table was built
    /// for: [`verify`], with the key's power read from the table.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_with(self.base, |exp| self.pow_mont(exp), msg, sig)
    }
}

static G_POWERS: FixedBase = FixedBase::new(G);

/// `G^exp mod P`, the group exponentiation of the generator.
pub(crate) fn g_pow(exp: u64) -> u64 {
    G_POWERS.pow(exp)
}

/// Test-only count of Montgomery products, so that what a signature
/// costs is pinned as a number and not as a wall-clock figure.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        static PRODUCTS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count() {
        PRODUCTS.with(|c| c.set(c.get() + 1));
    }

    /// The number of Montgomery products `f` performs (on this thread).
    pub(crate) fn products(f: impl FnOnce()) -> u64 {
        let before = PRODUCTS.with(Cell::get);
        f();
        PRODUCTS.with(Cell::get) - before
    }
}

/// Deterministic Miller-Rabin primality test, exact for all `u64` using the
/// standard 12-witness set. Used by tests to validate the group parameters.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar `e = H(R || pk || m) mod q`.
    pub e: u64,
    /// Response scalar `s = k + e*x mod q`.
    pub s: u64,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(e={:x}, s={:x})", self.e, self.s)
    }
}

impl Signature {
    /// Serializes the signature to 16 bytes (big-endian `e || s`).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.e.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a signature from [`Signature::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        Signature {
            e: u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")),
            s: u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

fn challenge(r: u64, pk: u64, msg: &[u8]) -> u64 {
    let d = sha256_concat(&[&r.to_be_bytes(), &pk.to_be_bytes(), msg]);
    d.prefix_u64() % Q
}

/// Signs `msg` with secret scalar `x`, using nonce source `rng`.
pub fn sign<R: Rng>(x: u64, pk: u64, msg: &[u8], rng: &mut R) -> Signature {
    // k must be non-zero mod q.
    let k = rng.gen_range(1..Q);
    let r = g_pow(k);
    let e = challenge(r, pk, msg);
    // Both terms are below Q < 2^61: the sum needs one subtraction.
    let s = k + MOD_Q.mul_mod(e, x);
    Signature {
        e,
        s: if s >= Q { s - Q } else { s },
    }
}

/// Verifies a signature against public key `pk = g^x mod p`. A caller
/// that checks many signatures of one key keeps a [`FixedBase`] of it.
pub fn verify(pk: u64, msg: &[u8], sig: &Signature) -> bool {
    verify_with(pk, |exp| MOD_P.pow_mont(pk, exp), msg, sig)
}

/// [`verify`] given `pk_pow`, which raises `pk` to a power modulo `P` and
/// leaves it in Montgomery form.
fn verify_with(pk: u64, pk_pow: impl FnOnce(u64) -> u64, msg: &[u8], sig: &Signature) -> bool {
    if sig.e >= Q || sig.s >= Q {
        return false;
    }
    // R' = g^s * pk^{-e} = g^s * pk^{q-e}; the product of two Montgomery
    // forms is reduced twice to leave the form.
    let r = MOD_P.reduce(G_POWERS.pow_mont(sig.s) as u128 * pk_pow(Q - sig.e) as u128);
    challenge(MOD_P.reduce(r as u128), pk, msg) == sig.e
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_parameters_are_valid() {
        assert!(is_prime_u64(P));
        assert!(is_prime_u64(Q));
        assert_eq!(P, 2 * Q + 1);
        // g generates the order-q subgroup: g^q == 1 and g != 1.
        assert_eq!(pow_mod(G, Q, P), 1);
        assert_ne!(pow_mod(G, 2, P), 1);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = rng.gen_range(1..Q);
        let pk = pow_mod(G, x, P);
        for i in 0..50u32 {
            let msg = format!("update-{i}");
            let sig = sign(x, pk, msg.as_bytes(), &mut rng);
            assert!(verify(pk, msg.as_bytes(), &sig));
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = rng.gen_range(1..Q);
        let pk = pow_mod(G, x, P);
        let sig = sign(x, pk, b"open B57", &mut rng);
        assert!(!verify(pk, b"open B56", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let x1 = rng.gen_range(1..Q);
        let x2 = rng.gen_range(1..Q);
        let pk1 = pow_mod(G, x1, P);
        let pk2 = pow_mod(G, x2, P);
        let sig = sign(x1, pk1, b"m", &mut rng);
        assert!(!verify(pk2, b"m", &sig));
    }

    #[test]
    fn malformed_scalars_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = rng.gen_range(1..Q);
        let pk = pow_mod(G, x, P);
        let sig = sign(x, pk, b"m", &mut rng);
        assert!(!verify(pk, b"m", &Signature { e: Q, s: sig.s }));
        assert!(!verify(pk, b"m", &Signature { e: sig.e, s: Q }));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = rng.gen_range(1..Q);
        let pk = pow_mod(G, x, P);
        let sig = sign(x, pk, b"m", &mut rng);
        let bad = Signature {
            e: sig.e ^ 1,
            s: sig.s,
        };
        assert!(!verify(pk, b"m", &bad));
        let bad2 = Signature {
            e: sig.e,
            s: (sig.s + 1) % Q,
        };
        assert!(!verify(pk, b"m", &bad2));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut rng = StdRng::seed_from_u64(12);
        let x = rng.gen_range(1..Q);
        let pk = pow_mod(G, x, P);
        let sig = sign(x, pk, b"m", &mut rng);
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), sig);
    }

    proptest::proptest! {
        /// The Montgomery path is the same function as the `u128`
        /// remainder, for both group moduli (second operand and base
        /// unreduced, as `sign` and `verify` may pass them).
        #[test]
        fn montgomery_matches_naive(a in proptest::any::<u64>(), b in proptest::any::<u64>()) {
            for (fast, m) in [(MOD_P, P), (MOD_Q, Q)] {
                assert_eq!(fast.mul_mod(a % m, b), mul_mod(a % m, b, m));
                assert_eq!(fast.pow_mod(a, b), pow_mod(a, b, m));
            }
        }
    }

    #[test]
    fn montgomery_matches_naive_on_edge_values() {
        for (fast, m) in [(MOD_P, P), (MOD_Q, Q)] {
            let edges = [0, 1, 2, m - 2, m - 1];
            for a in edges {
                for b in edges.into_iter().chain([m, u64::MAX]) {
                    assert_eq!(fast.mul_mod(a, b), mul_mod(a, b, m), "{a} * {b} mod {m}");
                    assert_eq!(fast.pow_mod(b, a), pow_mod(b, a, m), "{b} ^ {a} mod {m}");
                }
            }
        }
    }

    /// Exponents that exercise every row of a [`FixedBase`]: none, one,
    /// the group order's neighbours, every bit, and each digit alone.
    fn table_exponents() -> Vec<u64> {
        let mut exps = vec![0, 1, 2, Q - 1, Q, Q + 1, P - 1, u64::MAX];
        for w in 0..WINDOWS as u32 {
            exps.extend([1, 9, 15].map(|d| d << (w * WINDOW_BITS)));
        }
        exps
    }

    #[test]
    fn fixed_base_matches_the_ladder_oracle() {
        let mut rng = StdRng::seed_from_u64(13);
        let bases = [0, 1, G, P - 1, P, u64::MAX, rng.gen_range(2..P)];
        for base in bases {
            let table = FixedBase::new(base);
            for exp in table_exponents() {
                assert_eq!(table.pow(exp), pow_mod(base, exp, P), "{base} ^ {exp}");
            }
        }
        for exp in table_exponents() {
            assert_eq!(g_pow(exp), pow_mod(G, exp, P), "g ^ {exp}");
        }
    }

    proptest::proptest! {
        #[test]
        fn fixed_base_matches_the_ladder_on_random_inputs(
            base in proptest::any::<u64>(),
            exp in proptest::any::<u64>(),
        ) {
            assert_eq!(FixedBase::new(base).pow(exp), pow_mod(base, exp, P));
            assert_eq!(g_pow(exp), pow_mod(G, exp, P));
        }

        /// The table and the ladder give one verdict, on honest and on
        /// altered signatures.
        #[test]
        fn tabulated_verdict_equals_the_ladder_verdict(
            seed in proptest::any::<u64>(),
            flip_e in 0u64..4,
            flip_s in 0u64..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = rng.gen_range(1..Q);
            let pk = g_pow(x);
            let table = FixedBase::new(pk);
            let sig = sign(x, pk, b"m", &mut rng);
            let sig = Signature { e: sig.e ^ (flip_e >> 1), s: sig.s ^ (flip_s >> 1) };
            assert_eq!(table.verify(b"m", &sig), verify(pk, b"m", &sig));
            assert_eq!(verify(pk, b"m", &sig), flip_e < 2 && flip_s < 2);
        }
    }

    /// Signatures as the parent of the fixed-base change produced them
    /// (key seed, message, the key's first two signatures): the tables
    /// change what a signature costs, not one bit of it.
    #[test]
    fn signatures_are_the_known_answers() {
        use crate::keys::KeyPair;
        type Answer = (u64, &'static [u8], u64, [[u8; 16]; 2]);
        let answers: [Answer; 3] = [
            (
                1,
                b"open breaker B57",
                0x3e16_df91_ae46_140b,
                [
                    [
                        13, 73, 254, 112, 3, 62, 78, 115, 13, 212, 157, 107, 188, 22, 143, 190,
                    ],
                    [
                        29, 188, 241, 191, 51, 93, 185, 185, 21, 194, 252, 104, 252, 183, 33, 247,
                    ],
                ],
            ),
            (
                0x5250,
                b"prime\0\0\0\0",
                0x360a_f6f8_87ea_c233,
                [
                    [
                        13, 19, 216, 181, 112, 196, 255, 57, 4, 39, 143, 173, 35, 199, 143, 58,
                    ],
                    [
                        13, 214, 81, 249, 148, 218, 27, 233, 10, 224, 52, 214, 37, 204, 209, 187,
                    ],
                ],
            ),
            (
                0x434C,
                b"",
                0x324a_4de5_1ad4_f73b,
                [
                    [
                        30, 39, 117, 171, 129, 22, 82, 37, 5, 31, 138, 224, 13, 102, 198, 159,
                    ],
                    [
                        15, 169, 162, 149, 151, 202, 138, 254, 30, 193, 11, 111, 7, 164, 113, 127,
                    ],
                ],
            ),
        ];
        for (seed, msg, pk, sigs) in answers {
            let mut kp = KeyPair::generate(seed);
            assert_eq!(kp.public_key().0, pk, "key of seed {seed:#x}");
            for expected in sigs {
                let sig = kp.sign(msg);
                assert_eq!(sig.to_bytes(), expected, "seed {seed:#x}");
                assert!(verify(pk, msg, &sig));
                assert!(FixedBase::new(pk).verify(msg, &sig));
            }
        }
    }

    /// What a signature costs in Montgomery products, exactly: a change
    /// that brings a ladder back fails here, not in a wall-clock figure.
    #[test]
    fn sign_and_verify_cost_a_fixed_number_of_products() {
        let mut rng = StdRng::seed_from_u64(14);
        let x = rng.gen_range(1..Q);
        let pk = g_pow(x);
        let table = FixedBase::new(pk);
        for msg in [&b""[..], b"m", &[7; 300]] {
            let mut sig = None;
            // Fifteen for g^k, one to leave the form, two for e * x.
            assert_eq!(
                probe::products(|| sig = Some(sign(x, pk, msg, &mut rng))),
                18
            );
            let sig = sig.expect("signed");
            // Fifteen for each power, two for their product.
            assert_eq!(probe::products(|| assert!(table.verify(msg, &sig))), 32);
            // Without the key's table its power is a ladder: a squaring
            // per bit of q - e and a product per set bit, after two to
            // enter the form.
            let exp = Q - sig.e;
            let ladder = 2 + (u64::BITS - exp.leading_zeros()) + exp.count_ones();
            assert_eq!(
                probe::products(|| assert!(verify(pk, msg, &sig))),
                15 + ladder as u64 + 2
            );
        }
    }

    #[test]
    fn pow_mod_edge_cases() {
        assert_eq!(pow_mod(0, 0, 5), 1); // 0^0 == 1 by convention here
        assert_eq!(pow_mod(2, 0, 5), 1);
        assert_eq!(pow_mod(2, 10, 1024 + 1), 1024);
        assert_eq!(pow_mod(7, 1, 5), 2);
    }

    #[test]
    fn miller_rabin_known_values() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(3));
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(0));
        assert!(is_prime_u64(104_729)); // 10000th prime
        assert!(!is_prime_u64(104_730));
        // Carmichael number 561 = 3*11*17 must be rejected.
        assert!(!is_prime_u64(561));
    }
}
