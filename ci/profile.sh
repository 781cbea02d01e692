#!/usr/bin/env bash
# Where the host time of one benchmark workload goes: a sampling profile of
# the whole spire-benchmark process, as self / inclusive / callers-of tables.
#
#   ci/profile.sh <workload> [--seed N] [--top N] [--callers REGEX]...
#
# One untraced 12 s run of the workload under ci/prof/sampler.c (SIGPROF,
# 250 Hz, preloaded into the frame-pointer build in target/profile; the
# steps are ci/prof/run.sh's) and the stacks symbolised by ci/prof/report.py.
# Manual: a profile is for reading, ci/check.sh only checks that this file
# parses. Touches nothing under benchmark/; the samples stay in
# target/profile.
#
# Prime's hashing on ordering_ramp: the thread's verdict table, the batch
# root, the signature check and the SHA-256 compression under them all,
# in one command:
#
#   ci/profile.sh ordering_ramp --callers 'verdicts::(check|vouch)' \
#       --callers 'PoBatch::root|root_of' \
#       --callers 'FixedBase::verify' --callers 'sha256::x86::compress'
#
# The overlay hop on a full-stack workload, cipher, tag and the two daemon
# functions that spend them (ISSUE 22):
#
#   ci/profile.sh regional_grid --callers 'itcrypto::aes' \
#       --callers 'itcrypto::ghash' --callers 'SpinesDaemon::(flood|open_frame)'
set -euo pipefail
cd "$(dirname "$0")/.."

source ci/prof/run.sh
prof_run sampler report.py 12 "$@"
