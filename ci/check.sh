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

echo "==> golden digest pin"
# The golden-digest tests prove hot-path optimizations remain
# observationally invisible (byte-identical journals and reports).
cargo test -q --release --test golden_digests
# The operation-count pins (Montgomery products per sign / verify, SHA-256
# compressions per Merkle root and MAC, compressions and AES blocks per hop),
# the far-future-counter allocation test and flood's exact-capacity
# plaintext, in the optimised build the benchmark measures.
cargo test -q --release -p prime -p itcrypto -p spines
# 100,000 updates through a six-replica cluster (~5 s): what a replica
# holds behind its stable checkpoints stays one window, however long it runs.
cargo test -q --release -p prime -- --ignored retention

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

echo "==> CLI smoke (every experiment through spire-sim, one compressed day; the five --json files parse)"
# `all` drives each row of bench::registry::EXPERIMENTS through the one
# parse -> look up -> run -> print path (~20 s in release).
sim() { cargo run -q --release --bin spire-sim -- "$@" >/dev/null; }
sim all --days 1
json_out=$(mktemp -d)
sim e11 --steps 1 --json "$json_out/e11.json"
sim e12 --days 1 --json "$json_out/e12.json"
sim e13 --json "$json_out/e13.json"
sim e14 --substations 1 --devices-per 3 --json "$json_out/e14.json"
sim e16 --days 1 --json "$json_out/e16.json"
if command -v python3 >/dev/null; then
    for f in "$json_out"/e1{1,2,3,4,6}.json; do python3 -m json.tool "$f" >/dev/null; done
else
    echo "    note: no python3 here, the --json files are written but not parsed"
fi
rm -rf "$json_out"

echo "==> release suites: chaos engine, site failover, intrusion response, regional scale-out"
# Each re-checks its subsystem's contracts, and proves deliberately
# over-budget plans DO trip the checker (the invariants are falsifiable,
# not vacuously green); regional runs the full 10 -> 1000 device sweep.
cargo test -q --release --test chaos_engine
cargo test -q --release --test site_failover
cargo test -q --release --test response
cargo test -q --release --test regional

echo "==> an experiment is written once (no id in the binary, one chaos rig, one flip probe)"
test "$(grep -cE '"(figures|e[0-9]+b?)"' src/bin/spire-sim.rs)" -eq 0
test "$(grep -rn 'transfer_dedup = true' crates/bench tests | wc -l)" -eq 1
test "$(grep -rl '7_919' crates tests | sort | tr '\n' ' ')" = \
    "crates/bench/src/plant_experiments.rs crates/spire/src/latency.rs "

echo "==> the edge is written once (one overlay port, one Modbus master, node ids from the simulator)"
# Datagrams, Modbus frames, sequence floors and hop spans are built in
# spire::edge only; no host derives its own span label or flushes its own sends.
test "$(grep -rlE 'Packet::udp\(|TcpFrame|set_seq_base|trace_hop' crates/spire/src)" = \
    "crates/spire/src/edge.rs"
if grep -rnE 'trace_node|fn flush_sends' crates/spire/src; then
    exit 1
fi

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
