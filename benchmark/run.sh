#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload plant_deploy --seed 42 --seconds 15 --trace 0
#   bash benchmark/run.sh all --out benchmark/out/a.json
#   bash benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
#
# Start it from the repository root. The build goes to $CARGO_TARGET_DIR,
# or to the root workspace's target/ when that is not set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Cargo reads profiles from the workspace root only, and this package is a
# workspace of its own; a benchmark built with other settings than the
# product's (thin LTO and one codegen unit are worth 16 % on E4) measures
# a different program. Refuse to run unless the two stanzas agree.
stanza() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 }
         on && NF && $0 !~ /^[[:space:]]*#/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
if [ ! -f "$root/Cargo.toml" ]; then
    echo "benchmark/run.sh: no Cargo.toml beside benchmark/: the product's source is missing" >&2
    exit 2
fi
if [ "$(stanza "$root/Cargo.toml")" != "$(stanza "$here/Cargo.toml")" ] ||
    [ -z "$(stanza "$here/Cargo.toml")" ]; then
    echo "benchmark/run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# What only a shell knows, for the machine descriptor of every result.
SPIRE_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
SPIRE_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export SPIRE_BENCH_RUSTC SPIRE_BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/spire-benchmark" "$@"
