#!/usr/bin/env bash
# Where the memory of one benchmark workload goes: the live heap at its peak,
# by the function that owns each allocation.
#
#   ci/heap.sh <workload> [--seed N] [--top N]
#
# The memory twin of ci/profile.sh: one untraced 20 s run of the workload
# with ci/prof/heap.c preloaded into the same frame-pointer build (every
# allocation charged to its stack, the per-stack live bytes copied at each
# new peak; the steps are ci/prof/run.sh's), and the stacks live at the peak
# grouped by ci/prof/heap.py by their first frame outside
# alloc/core/std/hashbrown. The shim's 16-byte block headers and its tables
# raise the process's RSS; the table reports bytes the program asked for.
# Manual: ci/check.sh only checks that this file parses. Touches nothing
# under benchmark/; the record stays in target/profile.
#
#   ci/heap.sh plant_deploy --seed 42 --top 12
set -euo pipefail
cd "$(dirname "$0")/.."

source ci/prof/run.sh
prof_run heap heap.py 20 "$@"
