# Sourced by ci/profile.sh and ci/heap.sh: one untraced run of a benchmark
# workload with a shim from ci/prof/ preloaded, then the shim's record read
# by a report script.
#
#   prof_run SHIM REPORT SECONDS WORKLOAD [--seed N] [report options]...
#
# Builds the benchmark as benchmark/run.sh does, plus frame pointers and line
# tables, into target/profile (so the measured binaries are left alone),
# compiles ci/prof/SHIM.c, runs the workload for SECONDS with the shim
# writing to $PROF_OUT = target/profile/WORKLOAD.SEED.SHIM, and runs
# ci/prof/REPORT BINARY RECORD [report options]. Skips, exit 0, without cc,
# python3 or addr2line. Touches nothing under benchmark/.
prof_run() {
    local shim=$1 report=ci/prof/$2 seconds=$3 me=ci/${0##*/}
    shift 3
    for tool in cc python3 addr2line; do
        if ! command -v "$tool" >/dev/null; then
            echo "$me: skipped, no $tool on this machine" >&2
            exit 0
        fi
    done
    if [ $# -lt 1 ]; then
        sed -n '2,5p' "$0" >&2
        exit 2
    fi
    local workload=$1 seed=42 options=() usage
    shift
    usage=$(python3 "$report" --help)
    while [ $# -gt 0 ]; do
        case $1 in
        --seed) seed=$2 ;;
        *)
            if [[ $usage != *"[$1 "* ]]; then
                echo "$me: unknown option $1" >&2
                exit 2
            fi
            options+=("$1" "$2")
            ;;
        esac
        shift 2
    done

    local out=$PWD/target/profile
    mkdir -p "$out"
    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
        CARGO_TARGET_DIR=$out cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$out/$shim.so" "ci/prof/$shim.c" -ldl

    local record=$out/$workload.$seed.$shim
    rm -f "$record"
    PROF_OUT=$record LD_PRELOAD=$out/$shim.so "$out/release/spire-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --record "$record.run.json" | tail -n 1
    python3 "$report" "$out/release/spire-benchmark" "$record" "${options[@]}"
}
