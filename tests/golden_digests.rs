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
    // e2, e3, e7, e7b, e10, e13b, e13c, e14, e16a and e16b (and e14, e16a
    // and e16b at seed 1111) re-pinned when Spines links became
    // AES-256-GCM: the 16-byte tag makes every sealed frame 16 bytes
    // shorter than the 32-byte HMAC tag did, which moves serialization
    // times on the simulated links (a728ab2f → 0576bfd3, 19ce97bb →
    // c8dc2b93, acc1bce1 → 23e63880, 30fce788 → e6c47270, cee296f8 →
    // 974c1ca1, 8848f852 → a8ce3650, 91169e31 → 120c40e1, 90dc0616 →
    // 2f516843, 41e35d62 → 064cc645, 2df04d96 → e35b2b6f). Verified to be
    // the only cause: with the GCM tag carried in a 32-byte field every
    // old pin reproduces.
    // e2, e3, e4, e5, e6, e7, e7b, e10, e12, e13a, e13b, e13c, e14, e16a
    // and e16b (and e14, e16a and e16b at seed 1111) re-pinned when a
    // Spines relay next to a unicast's destination began handing it over,
    // and replicas began unicasting commands and display frames. Fewer
    // frames move every event count. Journals move in e3, e4, e5, e13b,
    // e14, e16a and e16b: fewer frames reach a firewall that journals each
    // drop, start-up display frames are emitted tens of µs apart from
    // before, and E16's MANA sees less overlay traffic. The printed results
    // move in e6 (event count), e7 (flood z-score) and e16a/b (anomaly
    // windows, mode transitions). Verified to be the only cause: with
    // per-direction link keys alone every old pin reproduces.
    (
        "e2",
        "0576bfd3fe344cf3ee7ec82b5fb34e791ccecd74c3779c274fc82e90b8ff0555",
    ),
    // e3 re-pinned for the catch-up retransmit backoff: the excursion's
    // recovery stage now re-requests state transfer on an exponential
    // backoff instead of a fixed cadence, which shifts its catch-up
    // timeline. Verified to be the only cause: with the backoff
    // neutralized the previous digest reproduces exactly.
    (
        "e3",
        "c8dc2b939231af449ed0d84f404304555c6646521ee7b7aa6ab7f4141763c885",
    ),
    // e4, e12, e13b, e13c, e16a and e16b (and e16a and e16b at seed 1111)
    // re-pinned when a catch-up offer became one `CatchupReply` carrying
    // the dedup table, installed only when f + 1 senders offer it byte for
    // byte (0f4bf72a → 9614d33b, 165c1022 → ce1b7bc2, a8ce3650 → 529191de,
    // 120c40e1 → 62f0f2c5, 064cc645 → b4d085a6, e35b2b6f → 23c66938; at
    // 1111 3c27ec5b → 96e77975, 1adde704 → f742dea1). Every reply's frame
    // now holds the table, the separate table message chaos runs sent is
    // gone, and an offer whose cover, resume sequence or view differs from
    // its peers' no longer joins their group. Printed results move only in
    // E4's `min executed` (1270 → 1269: every replica ends one update
    // lower, as proxy 0 sends 265 updates instead of 266).
    // e4, e12, e16a and e16b re-pinned when a replica restored after
    // proactive recovery started keeping the deployment's timing
    // (`Deployment::set_timing`) instead of `Timing::default()`. Verified
    // to be the only cause: without that fix every pin reproduces.
    (
        "e4",
        "9614d33b0af8c24e943a7b8501fc0bd840bda1e5e18e1f482e78f55b38b88a4a",
    ),
    (
        "e5",
        "c1e722c10a8058e0d25853be8c96fd738f71f6a1918a4b83ec946209650fc6c7",
    ),
    // e6 re-pinned when `scada::historian` went: its two counts left the
    // printed result. The run and its journal digest are unchanged.
    (
        "e6",
        "4b335c098834805771cdebdd7a478bc6db270322f04d152ea6492251143ff4dd",
    ),
    (
        "e7",
        "23e63880819901b6ed4be3a11efaeb4abb4de8254ef41fe94ae09477a8cff7b1",
    ),
    (
        "e7b",
        "e6c472704d864bfb7fd12b98e4b43836c227838ffca46366533fc44951843298",
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
        "974c1ca1f6b1b8b0f4eafca899fb4a7e231af15c2167bdaa7cebda3bda8ee9ba",
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
        "ce1b7bc2ff974a05e23afe2508be4c0799e2ffbca25e72f968e9080b333d105b",
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
        "d1c05127a33eed5d60c4e92e82e6f21dde911647eab8ccd79d0912790be18d01",
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
        "529191de610d0de17f73903daa8d5f27bb619547a3d057191ba93a8c0ae7abf4",
    ),
    (
        "e13c",
        "62f0f2c59121e3db65f7dec9a55146a4b34403f959b5f0ed8a85ba9b3a9157ab",
    ),
    (
        "e14",
        "2f5168438d62f38e19aac305c2fe54a303b0ed224f40fa7fff656a705d956a1c",
    ),
    (
        "e16a",
        "b4d085a692db05166fb4676e8bd3c245ac1a15caef29e0f731a31bbe0d371a1c",
    ),
    (
        "e16b",
        "23c66938f5b62b2180c4163662c85f121ab2ba86cd35e47bf6e2b216fa826f95",
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
        "05b70543e66f2212787b699e865854076c614c3321de379662a8afd74a4a19f2",
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
/// the seed-42 pins for the journaled `Event::Reconverged` records, and
/// again when a catch-up offer became one `CatchupReply` matched whole.
#[cfg(not(debug_assertions))]
#[test]
fn e16_digests_pinned_at_second_seed() {
    assert_eq!(
        experiment_fingerprint("e16a", 1111),
        "96e7797502f79fdc990f195637d9269a513f3d0c1d90cecbefe4e85a50090b38",
        "e16a fingerprint drifted at seed 1111"
    );
    assert_eq!(
        experiment_fingerprint("e16b", 1111),
        "f742dea191a7169318bbe6e084cf1ecd72c30b3568b29bbdb730e88d2c6bf6ca",
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
