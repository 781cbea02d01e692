#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Run from the repository root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
# Gate our own crates only; vendored/* are third-party code.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude bytes --exclude proptest --exclude rand

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> trace determinism"
cargo test -q --test observability e5_same_seed_yields_identical_span_trees_and_digest

echo "==> bench smoke (one E11 ramp step + golden digest pin)"
# A single-step saturation run proves the bench/e11 CLI path works end
# to end; the golden-digest tests prove hot-path optimizations remain
# observationally invisible (byte-identical journals and reports).
cargo run -q --release --bin spire-sim -- e11 --steps 1 >/dev/null
cargo test -q --release --test golden_digests
# The operation-count pins (Montgomery products per sign / verify, SHA-256
# compressions per Merkle root and MAC, compressions and AES blocks per hop),
# the far-future-counter allocation test and flood's exact-capacity
# plaintext, in the optimised build the benchmark measures.
cargo test -q --release -p prime -p itcrypto -p spines

echo "==> batched-E11 smoke (1 step with --batch/--pipeline + exact telescoping)"
# One batched ramp step through the CLI proves the Merkle-batched
# dissemination + pipelined sequencing path end to end, and its profiled
# attribution must still telescope exactly (batch_* stacks included).
batch_out=$(mktemp -d)
cargo run -q --release --bin spire-sim -- e11 --steps 1 --batch 16 --pipeline 4 \
    --prof "$batch_out/e11b.folded" > "$batch_out/e11b_prof.out"
test -s "$batch_out/e11b.folded"
grep -q "telescoping: exact" "$batch_out/e11b_prof.out"
rm -rf "$batch_out"

echo "==> batched ordering knee (>=5x move at equal pre-knee tail, <15% dissemination)"
cargo test -q --release --test batched_saturation

echo "==> profiler smoke (1-step E11 with --prof: folded stacks + exact telescoping)"
# The profiled run must write non-empty folded stacks and its per-step
# attribution table must telescope exactly — every simulated microsecond
# charged to exactly one phase.
prof_out=$(mktemp -d)
cargo run -q --release --bin spire-sim -- e11 --steps 1 --prof "$prof_out/e11.folded" \
    > "$prof_out/e11_prof.out"
test -s "$prof_out/e11.folded"
grep -q "telescoping: exact" "$prof_out/e11_prof.out"
rm -rf "$prof_out"

echo "==> chaos smoke (short E12 soak, digest-pinned, + negative controls)"
# One compressed day at seed 42 through the chaos CLI proves the E12
# path end to end; the chaos_engine suite re-checks the pinned soak,
# and proves deliberately over-budget plans DO trip the checker (the
# invariants are falsifiable, not vacuously green).
cargo run -q --release --bin spire-sim -- e12 --seed 42 --days 1 >/dev/null
cargo test -q --release --test chaos_engine

echo "==> site-failover smoke (E13, all three paper configs, digest-pinned)"
# The e13 CLI run proves the multi-site path end to end (6@1 loses
# liveness, 3+3 and 2+2+1+1 ride through); the site_failover suite
# re-checks the failover/negative-control contracts and the Prime
# liveness regressions E13 originally exposed.
cargo run -q --release --bin spire-sim -- e13 --seed 42 >/dev/null
cargo test -q --release --test site_failover

echo "==> intrusion-response smoke (E16 campaigns + feedback-beats-periodic contract)"
# One wave of both campaign shapes through the CLI proves the closed-loop
# path end to end; the response suite re-checks the periodic-vs-feedback
# contract at seeds {42, 1111} and the over-budget negative control.
cargo run -q --release --bin spire-sim -- e16 --seed 42 --days 1 >/dev/null
cargo test -q --release --test response

echo "==> regional scale-out smoke (1-substation E14 sweep point + soak suite)"
# A single tiny sweep point through the CLI proves the partitioned
# master + substation-aggregation path end to end; the regional suite
# re-checks the 10-substation chaos soak and (in release) the full
# 10 -> 1000 device sweep's aggregation/degradation acceptance bars.
cargo run -q --release --bin spire-sim -- e14 --substations 1 --devices-per 3 >/dev/null
cargo test -q --release --test regional

echo "==> two unsafe blocks in the workspace (itcrypto's calls into its SHA-extensions and AES-NI backends)"
# Both backends are written with safe intrinsics, so the call into each
# #[target_feature] function, after detection, is all there is; clippy and
# rustdoc above already passed under itcrypto's deny(unsafe_code) + one
# allow at each call.
test "$(grep -rl --include='*.rs' 'unsafe {' crates src tests examples | sort | tr '\n' ' ')" = \
    "crates/itcrypto/src/aes.rs crates/itcrypto/src/sha256.rs "
test "$(grep -c 'unsafe {' crates/itcrypto/src/sha256.rs)" -eq 1
test "$(grep -c 'unsafe {' crates/itcrypto/src/aes.rs)" -eq 1

echo "==> hash tables in crates/ hash by a fixed function (no RandomState: a run must repeat)"
# VerifyCache and the Spines daemon probe theirs by key and never walk them.
if grep -rn --include='*.rs' 'RandomState' crates; then
    exit 1
fi

echo "==> a run happens on the thread that called it (no thread spawned under crates/)"
# crates/bench is exempt: the future `sweep` parallelises whole runs, one
# simulation per core, from the binary.
if grep -rnE --include='*.rs' 'thread::(spawn|scope|Builder)' crates --exclude-dir=bench; then
    exit 1
fi

echo "==> ci/profile.sh parses (the profiler itself is run by hand)"
bash -n ci/profile.sh
for tool in cc python3 addr2line; do
    command -v "$tool" >/dev/null || echo "    note: no $tool here, ci/profile.sh would skip"
done

echo "==> the benchmark's own gate (build, lints, unit tests, quick runs, manifest)"
bash benchmark/check.sh

echo "==> line-coverage gate (skips when cargo-llvm-cov is unavailable)"
ci/coverage.sh

echo "All checks passed."
