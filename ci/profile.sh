#!/usr/bin/env bash
# Where the host time of one benchmark workload goes: a sampling profile of
# the whole spire-benchmark process, as self / inclusive / callers-of tables.
#
#   ci/profile.sh <workload> [--seed N] [--top N] [--callers REGEX]...
#
# Builds the benchmark as benchmark/run.sh does, plus frame pointers and line
# tables, into target/profile (so the measured binaries are left alone), runs
# one untraced run of the workload under ci/prof/sampler.c (SIGPROF, 250 Hz,
# preloaded) and symbolises the stacks with ci/prof/report.py. Manual: a
# profile is for reading, ci/check.sh only checks that this file parses.
# Touches nothing under benchmark/; the samples stay in target/profile.
#
# Prime's hashing on ordering_ramp: the batch root, the verdict cache's keys
# (ARU rows only), the signature check and the SHA-256 compression under
# them all, in one command:
#
#   ci/profile.sh ordering_ramp --callers 'PoBatch::root|root_of' \
#       --callers 'VerifyCache::key' --callers 'FixedBase::verify' \
#       --callers 'sha256::x86::compress'
#
# The overlay hop on a full-stack workload, cipher, MAC and the two daemon
# functions that spend them (ISSUE 22):
#
#   ci/profile.sh regional_grid --callers 'itcrypto::aes' \
#       --callers 'HmacKey::mac_concat' --callers 'SpinesDaemon::(flood|open_frame)'
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in cc python3 addr2line; do
    if ! command -v "$tool" >/dev/null; then
        echo "ci/profile.sh: skipped, no $tool on this machine" >&2
        exit 0
    fi
done
if [ $# -lt 1 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
workload=$1
shift
seed=42
report=()
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=$2 ;;
    --top | --callers) report+=("$1" "$2") ;;
    *) echo "ci/profile.sh: unknown option $1" >&2 && exit 2 ;;
    esac
    shift 2
done

out=$PWD/target/profile
mkdir -p "$out"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR=$out cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cc -O2 -shared -fPIC -o "$out/sampler.so" ci/prof/sampler.c -ldl

samples=$out/$workload.$seed.samples
rm -f "$samples"
PROF_OUT=$samples LD_PRELOAD=$out/sampler.so "$out/release/spire-benchmark" \
    --workload "$workload" --seed "$seed" --seconds 12 --trace 0 \
    --record "$out/$workload.$seed.run.json" | tail -n 1
python3 ci/prof/report.py "$out/release/spire-benchmark" "$samples" "${report[@]}"
