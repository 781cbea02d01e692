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
test "$(grep -rn --include='*.rs' 'fn chaos_rig\b' crates src tests | wc -l)" -eq 1
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

echo "==> one event queue and one agreement check"
# simnet::queue is the only heap under crates/ (Prime's Cluster runs on it);
# prime::invariants is the only agreement record.
if grep -rl --include='*.rs' 'BinaryHeap' crates | grep -vx 'crates/simnet/src/queue.rs'; then
    exit 1
fi
if grep -rn --include='*.rs' 'agreement_seen' crates src tests; then
    exit 1
fi

echo "==> one view-change vote, one catch-up reply"
# Prime's view change carries a window of prepared certificates whatever
# the ordering depth (`Config::pipeline` only sizes the window), and a
# snapshot travels whole in its `CatchupReply`: no single-certificate vote,
# no chunked transfer, no branch on the depth. The reply carries the dedup
# table too, and f+1 offers must match it whole: no companion table
# message, no per-sender pairing map, no table digest beside the offer's.
if grep -rnE --include='*.rs' \
    'PrimeMsg::ViewChange \{|CatchupChunk|transfer_chunk|prepared_cert\b|pipeline > 1|CatchupDedup|catchup_dedup|dedup_digest' \
    crates src tests; then
    exit 1
fi
# `Config::transfer_dedup` is read by nothing; its only mention left is the
# field the benchmark adapter assigns (crates/prime/src/types.rs).
if grep -rn --include='*.rs' 'transfer_dedup' crates src tests | grep -v '^crates/prime/src/types.rs:'; then
    exit 1
fi

echo "==> one pre-ordering path"
# Every pre-order slot is disseminated in a Merkle batch (a batch of one
# at the default `Config::batch_max` of 1) and served on a fetch as a
# batch member: no per-update request or its reconciliation reply, no
# envelope store beside the batches, no branch on the batch size.
if grep -rnE --include='*.rs' \
    'PrimeMsg::PoRequest \{|PoData|po_envelopes|accept_po_request|on_po_data|batch_max (>|==) 0' \
    crates src tests; then
    exit 1
fi

echo "==> a unicast is handed to its destination; one key per link direction"
# Commands to a proxy and frames to an HMI are Spines unicasts, which a
# relay next to the destination hands straight over (spines::daemon::flood);
# no one-subscriber group floods them over every link. Each direction of a
# link is sealed under its own key: link_key(from, to) does not sort its ends.
if grep -rnwE --include='*.rs' 'proxy_group|hmi_group|GROUP_PROXY_BASE|GROUP_HMI_BASE' \
    crates src tests; then
    exit 1
fi
if grep -nF '(lo, hi)' crates/spines/src/config.rs; then
    exit 1
fi

echo "==> an overlay is its edge set (SpireConfig derives both; no WAN model or route selection beside it)"
# spire::config derives the internal and external edges in one place;
# spines::routing keeps only the disjoint-path count the tests hold every
# deployed overlay to.
if [ -e crates/spines/src/wan.rs ]; then
    echo "    crates/spines/src/wan.rs is back"
    exit 1
fi
if grep -rnwE --include='*.rs' \
    'WanTopology|WanSite|WanLink|select_routes|disjoint_routes|hop_counts|wan_topology' \
    crates src tests; then
    exit 1
fi

echo "==> the chaos checker reads fault state from the deployment (no notification methods)"
if grep -rnwE --include='*.rs' \
    'note_ground_truth|replica_down|replica_rejoined|byz_started|byz_healed|partition_started|partition_healed|membership_changed|membership_restored' \
    crates src tests; then
    exit 1
fi

echo "==> the journal is a chaos run's one record (no signal feed; response reads obs, not chaos)"
if grep -rnE --include='*.rs' 'SignalFeed|ChaosSignal|SignalKind|attach_signals|chaos::signal' \
    crates src tests; then
    exit 1
fi
if grep -nw 'chaos' crates/response/Cargo.toml; then
    exit 1
fi

echo "==> one hub per component (built on its deployment's hub, never moved onto one)"
# Every component that counts or journals takes its ObsHub in its
# constructor and keeps it: no attach step, no hub assigned to a field later.
if grep -rnE --include='*.rs' 'attach_obs|\.obs = ' crates src; then
    exit 1
fi

echo "==> one record per fact (no simulator string log, no twin stats fields, no unread counts, no histograms)"
# A fact is counted in the registry, journaled, or returned to the caller,
# once. The simulator keeps no string log, Prime signals nothing that only
# such a log read, and a Spines, HMI or Prime event bumps no struct field
# beside its registry counter. A count that no report reads is not kept at
# all: Prime counts only its signature refusals (prime.r{i}.bad_sigs), the
# response controller keeps no counters (its actuations are journaled), E16
# reads recoveries and throttles from the journal, and the PLC and its
# breakers, the commercial SCADA pair, the SCADA master and the attacker
# count nothing their state or outputs already show. (The proxies' ProxyStats and SubstationStats stay:
# the benchmark reads them as fields.)
if grep -rnE --include='*.rs' \
    'fn logs\(|Action::Log|ctx\.log\(|\b(ViewChanged|StateTransferRequested|CheckpointStable)\b|pub stats: DaemonStats|\bHmiStats\b' \
    crates src; then
    exit 1
fi
if grep -rn -A1 --include='*.rs' -E 'stats\.[a-z_]+ \+= ' crates/prime crates/spines crates/spire/src/hmi_host.rs |
    grep -E '\.inc\(\)'; then
    exit 1
fi
if grep -rnE --include='*.rs' '\bReplicaStats\b|\bResponseStats\b|self\.stats\.' \
    crates/prime/src crates/response/src; then
    exit 1
fi
if grep -nE '(recoveries|restores|throttles) \+= ' crates/bench/src/response_experiment.rs; then
    exit 1
fi
if grep -rnE --include='*.rs' \
    '\b(requests_served|invalid_frames|configs_adopted|commands_executed|failovers|spoofed_accepted|malformed_updates|arp_replies_sent|statuses_spoofed|commands_injected|mac_spoofs_sent|pongs_received)\b|\.operations \+= ' \
    crates/plc/src crates/scada/src crates/redteam/src; then
    exit 1
fi
# The registry holds counters only: a measurement (E5's reaction times)
# lives in the samples the run returns. A firewall drop is the engine's
# net.firewall_drops counter and its journaled PacketDrop, with no
# per-node copy; the simulator keeps no SimStats snapshot of its counters,
# and the HMI pane, the vote collector and the Modbus store count nothing
# that no report reads. An ARP rejection is the engine's net.arp_rejected
# counter and its journaled PacketDrop, with no per-interface copy, and
# E13's reaction median comes from spire::latency::summarize alone.
if grep -rnE --include='*.rs' \
    'pub mod hist\b|HistogramHandle|fn histogram\(|\bSimStats\b|fn firewall_drops\(|fn update_count|pub decisions|config_uploads' \
    crates src; then
    exit 1
fi
if grep -rnE --include='*.rs' 'rejected_updates|arp_rejections\(|median_reaction_us' crates src tests; then
    exit 1
fi

echo "==> one SCADA state layout (one tag-ordered map, one apply path)"
# The plant and regional masters hold the same state, a map from scenario
# tag to live state in tag order, and apply every update through one
# ScadaState::apply. The s{station}d{device} tag is read only by
# plc::topology::Scenario::station_of_tag, beside Scenario::tag, which
# writes it. The attacker keeps no interception count (a rewritten frame
# or the poisoned ARP entry shows it) and Prime's test cluster journals a
# lost message as a PacketDrop instead of counting it.
if grep -rnE --include='*.rs' \
    'Partitioning::(Flat|Sharded)|restore_with|apply_tracking_changes|fn merged|ScadaApp::regional' \
    crates/scada/src crates/spire/src; then
    exit 1
fi
if grep -rn --include='*.rs' 'parse_substation' crates; then
    exit 1
fi
if grep -rnwE --include='*.rs' 'intercepted' crates/redteam/src; then
    exit 1
fi
if grep -rn --include='*.rs' 'dropped_messages' crates/prime/src; then
    exit 1
fi

echo "==> one fault budget (Prime always runs under a Membership; the checker and the controller read it)"
# The static configuration is the full membership (prime::Membership::full):
# a replica always orders under one Membership, the chaos checker judges
# faults against the membership's own f, k and quorum, and the response
# controller is built on the deployment's prime::Config. No copy of the
# budget sits beside them.
if grep -rnE --include='*.rs' \
    'Option<Membership>|fn active_(leader_of|ordering_quorum|suspect_threshold|f)\b|is_active_member|ResponseConfig' \
    crates; then
    exit 1
fi
if grep -nE '\bquorum:' crates/chaos/src/invariants.rs; then
    exit 1
fi

echo "==> a capture exists only where something reads it (no add_tap without drain_tap)"
# A span-port tap keeps one record per frame entering its switch until it
# is drained. Outside simnet, a file that attaches one must also drain it.
for f in $(grep -rl --include='*.rs' 'add_tap(' crates | grep -v '^crates/simnet/src/'); do
    if ! grep -q 'drain_tap(' "$f"; then
        echo "    $f attaches a tap and never drains it"
        exit 1
    fi
done

echo "==> memory: spire-sim e4 --days 6 peaks within 10 % of --days 1, --days 24 at or below 40 MiB (~25 s)"
# Compressed days of the plant. What a run keeps is bounded by the
# configuration (Spines dedups with two windows per daemon, Prime remembers
# the last rows of each replica), so six days sit where one does; what grows
# with run length shows here long before a six-day uncompressed soak.
if command -v python3 >/dev/null; then
    cargo build -q --release --bin spire-sim
    python3 - "${CARGO_TARGET_DIR:-target}/release/spire-sim" <<'PY'
import os, subprocess, sys
def peak(days):
    run = subprocess.Popen([sys.argv[1], "e4", "--days", str(days)], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(run.pid, 0)
    if status != 0:
        sys.exit(f"    e4 --days {days} failed")
    return usage.ru_maxrss / 1024
one, six, many = peak(1), peak(6), peak(24)
print(f"    e4 --days 1 / 6 / 24: peak RSS {one:.1f} / {six:.1f} / {many:.1f} MiB"
      f" (bounds: 6 days <= {1.1 * one:.1f}, 24 days <= 40)")
sys.exit(0 if six <= 1.1 * one and many <= 40 else 1)
PY
else
    echo "    note: no python3 here, the e4 memory gates are skipped"
fi

echo "==> three unsafe blocks in the workspace (itcrypto's calls into its SHA-extensions, AES-NI and PCLMULQDQ backends)"
# All three backends are written with safe intrinsics, so the call into
# each #[target_feature] function, after detection, is all there is; clippy
# and rustdoc above already passed under itcrypto's deny(unsafe_code) + one
# allow at each call.
test "$(grep -rl --include='*.rs' 'unsafe {' crates src tests examples | sort | tr '\n' ' ')" = \
    "crates/itcrypto/src/aes.rs crates/itcrypto/src/ghash.rs crates/itcrypto/src/sha256.rs "
test "$(grep -c 'unsafe {' crates/itcrypto/src/sha256.rs)" -eq 1
test "$(grep -c 'unsafe {' crates/itcrypto/src/aes.rs)" -eq 1
test "$(grep -c 'unsafe {' crates/itcrypto/src/ghash.rs)" -eq 1

echo "==> the link tag is GCM (no HMAC in the Spines link envelope)"
# Every overlay hop is sealed with AES-256-GCM: GHASH authenticates, and no
# SHA-256 runs per frame. HMAC stays for key derivation only.
if grep -nwE 'HmacKey|mac_concat|verify_tag' crates/itcrypto/src/stream.rs; then
    exit 1
fi

echo "==> hash tables in crates/ hash by a fixed function (no RandomState: a run must repeat)"
# VerifyCache, Prime's VerifiedUpdates and verdicts, and the Spines daemon
# probe theirs by key and never walk them. A table type names its hasher, as a
# BuildHasherDefault<..> or a ..State alias; one that names none, or is built
# by `new` / `with_capacity` (which exist for RandomState only), hashes
# differently from run to run.
if grep -rn --include='*.rs' 'RandomState' crates; then
    exit 1
fi
if grep -rnE --include='*.rs' 'Hash(Map|Set)<' crates | grep -vE 'BuildHasherDefault<|[A-Za-z]State>'; then
    exit 1
fi
if grep -rnE --include='*.rs' 'Hash(Map|Set)::(new|with_capacity)\(' crates; then
    exit 1
fi

echo "==> Prime hashes what it authenticates once (recognised by its bytes, per replica for the cost model and once per thread for the host; no key hashes the message)"
# A replica recognises client updates and ARU rows it verified by
# comparison (types::VerifiedUpdates, VerifiedRows): its `verifications`,
# what obs::prof charges, count only the rest. Every check a replica
# runs, envelopes and batch roots included, goes through prime::verdicts,
# the thread's table keyed by the 16 signature bytes and hit on `==`. No
# cached verification that hashes the message is left under crates/,
# Prime names no VerifyCache, and nothing under crates/prime/src/replica/
# verifies around the table.
if grep -rnw --include='*.rs' -e 'verify_root_cached' -e 'RootFold' crates src tests; then
    exit 1
fi
if grep -rn --include='*.rs' 'fn verify_cached' crates; then
    exit 1
fi
if grep -rnw 'VerifyCache' crates/prime; then
    exit 1
fi
if grep -rnE --include='*.rs' -e '\.verify\(&?(self\.)?registry' -e 'verify_root\(' \
    -e 'registry\.verify\(' crates/prime/src/replica; then
    exit 1
fi

echo "==> every Prime signature is vouched (the signer stores its verdict in the thread's table)"
# Envelope::sign, PoBatch::sign, AruRow::sign and SignedUpdate::sign store
# what they sign in prime::verdicts under the signing key, so no host on
# the thread verifies it again. A replica signs only through them (no key
# signs bytes under crates/prime/src/replica/), and the harness's and the
# edge's clients build no SignedUpdate by hand outside their tests (each
# file cut at its first #[cfg(test)]).
if grep -rnE --include='*.rs' -e 'key\.sign\(' -e 'keys\[[^]]*\]\.sign\(' -e '\.sign\(&' \
    crates/prime/src/replica; then
    exit 1
fi
for f in crates/prime/src/harness.rs $(find crates/spire/src -name '*.rs' | sort); do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f" |
        grep -E '\bSignedUpdate \{' | grep -vE '(->|impl|for) SignedUpdate \{'; then
        exit 1
    fi
done

echo "==> a run happens on the thread that called it (no thread spawned under crates/)"
# crates/bench is exempt: the future `sweep` parallelises whole runs, one
# simulation per core, from the binary.
if grep -rnE --include='*.rs' 'thread::(spawn|scope|Builder)' crates --exclude-dir=bench; then
    exit 1
fi

echo "==> ci/profile.sh and ci/heap.sh parse (the profilers themselves are run by hand)"
bash -n ci/profile.sh
bash -n ci/heap.sh
bash -n ci/prof/run.sh
for tool in cc python3 addr2line; do
    command -v "$tool" >/dev/null || echo "    note: no $tool here, ci/profile.sh and ci/heap.sh would skip"
done

echo "==> the benchmark's own gate (build, lints, unit tests, quick runs, manifest)"
bash benchmark/check.sh

echo "==> line-coverage gate (skips when cargo-llvm-cov is unavailable)"
ci/coverage.sh

echo "All checks passed."
