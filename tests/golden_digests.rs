//! Golden-digest pin: every experiment's observable behavior at
//! [`GOLDEN_SEED`], folded into one digest per experiment (journal
//! digests + simulator event counts + rendered result tables — see
//! `bench::registry::experiment_fingerprint`).
//!
//! These digests are the contract that performance work is
//! observationally invisible: serialize-once broadcast, verification
//! memoization, and any future hot-path change must leave every byte of
//! observable behavior — message bytes, event order, verdicts — exactly
//! as it was. Any drift fails here.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! cargo test --release --test golden_digests -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use bench::registry::{experiment_fingerprint, FINGERPRINTED, GOLDEN_SEED};

/// The pinned fingerprints at `GOLDEN_SEED`.
const GOLDEN: &[(&str, &str)] = &[
    (
        "e1",
        "8fa05857cd519de834ec54688c4e5a41a4d85ef510edbd2d4572f7ecc0c6c9fb",
    ),
    (
        "e2",
        "3baae5b52e6ee4a3974866943cb87f690797383403e952aa3263504082f84549",
    ),
    // e3 re-pinned for the catch-up retransmit backoff: the excursion's
    // recovery stage now re-requests state transfer on an exponential
    // backoff instead of a fixed cadence, which shifts its catch-up
    // timeline. Verified to be the only cause: with the backoff
    // neutralized the previous digest reproduces exactly.
    (
        "e3",
        "a37f64af394a4328f414fa5f42b2870309b66413a9cf7cedd0ea16b1d9e12fd5",
    ),
    // e4, e12, e16a and e16b re-pinned when a replica restored after
    // proactive recovery started keeping the deployment's timing
    // (`Deployment::set_timing`) instead of `Timing::default()`. Verified
    // to be the only cause: without that fix every pin reproduces.
    (
        "e4",
        "b0dd71379020b8e766e0cfb70072e83581a9c1ba45457c4b063e2e644ee0b217",
    ),
    (
        "e5",
        "8bcf2effa7a70d7f00e2b1359a193e6d6106ecadcc38481fbe8d92e5d6994ff2",
    ),
    // e6 re-pinned when `scada::historian` went: its two counts left the
    // printed result. The run and its journal digest are unchanged.
    (
        "e6",
        "84b61944f73efedf40435761a875b16923837ed214339652ce2138b8e9d82ae2",
    ),
    (
        "e7",
        "aeedfec5a99b583d5ca913b0fc2ff9c681088779dc7cb9ab4ac5a2138ec17df7",
    ),
    (
        "e7b",
        "ee471a4bacc790ec8622ef244914da8cf94a1cf677b3ebe18d5f202bb828cbf6",
    ),
    (
        "e8",
        "1aeff346864cbb39620d55194546ed671c2be32dd3f52c301996d86008fb74b3",
    ),
    (
        "e9",
        "fdec6f6dbb10540a68d9199cca95a773385bd0365ad24dec60ad6583a201dda3",
    ),
    (
        "e10",
        "7bdb380856e1e63d9521254e9822b89e15df2bdc4952d9bb1691db54c1b9db81",
    ),
    (
        "e11b",
        "ddf735f710a6484fcee7f9f74d5dc49b080c077eaa4cf83eea7f07bcc6ebfbf7",
    ),
    // e12, e13a, e13b, e13c, e16a and e16b re-pinned when the checker
    // began journaling `Event::Reconverged` for each replica that caught
    // up (2c3545cb → fac2fc4f, f0ee4fc3 → f6d9c47a, 10bc1ef2 → 13a13fb2,
    // 0954e010 → 97af12e6, 0a4e435f → 552c692e, 91593ae1 → b74afbfc).
    // Verified to be the only cause: with those records filtered out,
    // every journal hashes to its previous digest, and the result tables
    // are byte-identical.
    (
        "e12",
        "fac2fc4fc9e93229616ca047a82642770d19dc73533a907a2f8b9822a8a6a02a",
    ),
    // e13a, e13b and e13c re-pinned when the invariant checker started
    // reading fault state from the deployment at each sample (c25bbd19 →
    // f0ee4fc3, f4d4dcb8 → 10bc1ef2, ce51ee7f → 0954e010). The end-of-leg
    // `heal_all` lands between samples, so each heal's catch-up clock now
    // starts one 100 ms sample later; and a site heal that installed no
    // epoch (6@1, 2+2+1+1) no longer restarts the 1 s grace before
    // bounded-delay re-arms. Journals, survival modes and verdicts are
    // unchanged; only the reconvergence line and the bounded-delay check
    // count moved.
    (
        "e13a",
        "f6d9c47aab828ca61324e9d9f154ba41b684152a8ca42069ce6dadb8f81c971a",
    ),
    // e13b re-pinned (13a13fb2 → bdf330db) when the view-change vote
    // became one form whatever the ordering depth: the per-update leg now
    // votes with a `ViewChangeWindow` (16 bytes shorter than the retired
    // single-certificate vote when no certificate is in hand), and its six
    // view-2 installs journal 2 µs earlier. Verified to be the only cause: the parent with only the
    // three depth branches forced to the window form prints the same
    // fingerprint, its e13b journal differs from the parent's in those
    // six timestamps alone, and `spire-sim e13` prints byte-identical
    // text.
    (
        "e13b",
        "bdf330db5c5b5f3934c5cb98d54030121ea74e71afbbb28ec032f1fff79e28a3",
    ),
    (
        "e13c",
        "97af12e6e9fb24be18848e7054326d1fedd8bce1ae093fb6b18da1a92051bbda",
    ),
    (
        "e14",
        "854687cf7f70630338d64ef27ce5bcd241eaf54fd799d32bd7002c0ff82a2564",
    ),
    (
        "e16a",
        "552c692e5eee5a8245bcf54dea7f664d2c694a2276418a113ff59fd558975d34",
    ),
    (
        "e16b",
        "b74afbfc637488cfc41533349d01e5e449e0460df1dafd58545e87e26d17da0e",
    ),
];

fn pinned(id: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(g, _)| *g == id)
        .map(|(_, d)| *d)
        .expect("experiment is pinned")
}

fn check(id: &str) {
    let actual = experiment_fingerprint(id, GOLDEN_SEED);
    assert_eq!(
        actual,
        pinned(id),
        "{id} fingerprint drifted at seed {GOLDEN_SEED}: observable behavior changed \
         (if intentional, regenerate with `cargo test --release --test golden_digests \
         -- --ignored --nocapture`)"
    );
}

#[test]
fn golden_covers_every_fingerprinted_experiment() {
    let pinned: Vec<&str> = GOLDEN.iter().map(|(id, _)| *id).collect();
    assert_eq!(pinned, FINGERPRINTED);
}

#[test]
fn e1_digest_pinned() {
    check("e1");
}

#[test]
fn e2_digest_pinned() {
    check("e2");
}

#[test]
fn e3_digest_pinned() {
    check("e3");
}

#[test]
fn e4_digest_pinned() {
    check("e4");
}

#[test]
fn e5_digest_pinned() {
    check("e5");
}

#[test]
fn e6_digest_pinned() {
    check("e6");
}

#[test]
fn e7_digest_pinned() {
    check("e7");
}

#[test]
fn e7b_digest_pinned() {
    check("e7b");
}

#[test]
fn e8_digest_pinned() {
    check("e8");
}

#[test]
fn e9_digest_pinned() {
    check("e9");
}

#[test]
fn e10_digest_pinned() {
    check("e10");
}

#[test]
fn e11b_digest_pinned() {
    check("e11b");
}

/// The batched-E11 fingerprint is additionally pinned at a second seed:
/// batching touches the wire format and the ordering pipeline, so one
/// seed's stability is not enough evidence that the batch close / flush
/// timing is deterministic. Release-only — a second debug-build batched
/// ramp would blow the `cargo test -q` budget.
#[cfg(not(debug_assertions))]
#[test]
fn e11b_digest_pinned_at_second_seed() {
    assert_eq!(
        experiment_fingerprint("e11b", 1111),
        "b6809b988ed44f78793e272acaba82d3289c03a902c6180455e106dc8579f224",
        "e11b fingerprint drifted at seed 1111"
    );
}

#[test]
fn e12_digest_pinned() {
    check("e12");
}

#[test]
fn e13a_digest_pinned() {
    check("e13a");
}

#[test]
fn e13b_digest_pinned() {
    check("e13b");
}

#[test]
fn e13c_digest_pinned() {
    check("e13c");
}

#[test]
fn e14_digest_pinned() {
    check("e14");
}

/// The regional fingerprint is additionally pinned at a second seed: the
/// partitioned master, the coalesced substation reports, and the sparse
/// regional overlay all ride new code paths, so one seed's stability is
/// weak evidence that the sweep/report timing is deterministic.
/// Release-only — a second debug-build sweep would blow the
/// `cargo test -q` budget.
#[cfg(not(debug_assertions))]
#[test]
fn e14_digest_pinned_at_second_seed() {
    assert_eq!(
        experiment_fingerprint("e14", 1111),
        "55ebe7d91565f62a271f8da704fab80ed1d672db6b7f8c32ab274dfdb4fc391c",
        "e14 fingerprint drifted at seed 1111"
    );
}

#[test]
fn e16a_digest_pinned() {
    check("e16a");
}

#[test]
fn e16b_digest_pinned() {
    check("e16b");
}

/// The E16 campaigns are additionally pinned at a second seed: the
/// closed loop feeds detector scores back into node up/downs, so one
/// seed's stability is weak evidence that the controller's actuation
/// timeline is deterministic. Release-only — a second debug-build
/// campaign pair would blow the `cargo test -q` budget. Re-pinned with
/// the seed-42 pins for the journaled `Event::Reconverged` records.
#[cfg(not(debug_assertions))]
#[test]
fn e16_digests_pinned_at_second_seed() {
    assert_eq!(
        experiment_fingerprint("e16a", 1111),
        "83a57b711167710cf739bec67afa1c4d0213c99c246e9c0c8ebfd12e552582c4",
        "e16a fingerprint drifted at seed 1111"
    );
    assert_eq!(
        experiment_fingerprint("e16b", 1111),
        "44993309d1a62de27f51d01afd982a9fc72bc482b46906de5854df05663a4017",
        "e16b fingerprint drifted at seed 1111"
    );
}

/// The issue's acceptance bar: the e13 fingerprints must be stable
/// across two runs in the same process at the golden seed.
#[test]
fn e13_fingerprints_stable_across_two_runs() {
    for id in ["e13a", "e13b", "e13c"] {
        let first = experiment_fingerprint(id, GOLDEN_SEED);
        let second = experiment_fingerprint(id, GOLDEN_SEED);
        assert_eq!(
            first, second,
            "{id} fingerprint unstable at seed {GOLDEN_SEED}"
        );
    }
}

/// Prints the current fingerprint table for pasting into `GOLDEN`.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_current_fingerprints() {
    for id in FINGERPRINTED {
        println!("    (\n        \"{id}\",\n        \"{}\",\n    ),", {
            experiment_fingerprint(id, GOLDEN_SEED)
        });
    }
}
