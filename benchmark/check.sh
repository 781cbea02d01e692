#!/usr/bin/env bash
# The benchmark's own gate: build, unit tests, lints, a quick run of all
# four workloads untraced and traced, and the manifest check. Seconds, not
# minutes; ready for ci/check.sh to call. Start it from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
manifest=benchmark/Cargo.toml

echo "==> build; BENCHMARK.json names exactly what the binary prints"
bash benchmark/run.sh manifest BENCHMARK.json

echo "==> cargo fmt --check, cargo clippy -D warnings"
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings

echo "==> unit tests"
cargo test --release --offline --quiet --manifest-path "$manifest"

echo "==> quick run, all four workloads, untraced"
bash benchmark/run.sh all --quick --out benchmark/out/quick.json

echo "==> quick run, all four workloads, traced"
bash benchmark/run.sh all --quick --trace 1 --out benchmark/out/quick-layers.json
for w in plant_deploy ordering_ramp regional_grid chaos_soak; do
    test -s "benchmark/out/trace.$w.json"
done

echo "==> compare refuses quick results"
if bash benchmark/run.sh compare benchmark/out/quick.json benchmark/out/quick.json 2>/dev/null; then
    echo "compare accepted a quick result set" >&2
    exit 1
fi
echo "benchmark/check.sh: all green"
