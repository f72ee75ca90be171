#!/usr/bin/env bash
# Full pre-merge gate: the tier-1 build + test sweep, then the sanitizer
# legs (ThreadSanitizer for the shared-state suites, AddressSanitizer with
# leak detection, UndefinedBehaviorSanitizer for the same set). This is the
# one script a contributor runs before pushing; CI runs exactly the same
# thing.
#
# Usage: ci/check.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"

echo "== tier-1: build + ctest =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== bench smoke: planning latency (inference sessions) =="
# Tiny scale: asserts internally that session-on/off estimates and results
# are byte-identical and that the session actually served probes.
(cd "${BUILD_DIR}/bench" && BYTECARD_SCALE=0.02 ./bench_planning_latency)

echo "== bench smoke: concurrent serving (scheduler) =="
# Tiny scale, 1/8 streams: asserts internally that concurrently scheduled
# queries return serial-identical groups and that 1 -> 8 streams more than
# doubles aggregate QPS in the latency-bound regime.
(cd "${BUILD_DIR}/bench" && ./bench_concurrent_serving --smoke)

echo "== bench smoke: operator kernels (specialization) =="
# Asserts internally that each specialized kernel's output is identical to
# its generic baseline (hash aggregate, hash join, a row-at-a-time Matches
# loop) and that the best guarded kernel clears 2x at dop 1.
(cd "${BUILD_DIR}/bench" && ./bench_operator_kernels --smoke)

echo "== bench smoke: encoded-storage scale step (zone maps) =="
# Asserts internally that every dop x SIP config returns the same groups,
# that every COUNT(*) probe equals its exact count, and that selective
# clustered scans prune blocks; writes BENCH_fig6_scale.json (smoke scales).
(cd "${BUILD_DIR}/bench" && ./bench_fig6_scale --smoke)

echo "== bench smoke: continuous ingest (incremental maintenance) =="
# Asserts internally that incremental maintenance stays within 2x of
# full-retrain accuracy at lower maintenance cost, and that the drift
# demote -> retrain -> re-promote loop recovers; writes
# BENCH_continuous_ingest.json (smoke scale).
(cd "${BUILD_DIR}/bench" && ./bench_continuous_ingest --smoke)

echo "== bench smoke: adaptive routing (mined dispatch) =="
# Asserts internally that every template the miner promoted keeps its mined
# median q-error on the replay leg, that at least one workload family wins
# aggregate planning latency, and that routed estimates actually flowed;
# writes BENCH_adaptive_routing.json (smoke scale).
(cd "${BUILD_DIR}/bench" && ./bench_adaptive_routing --smoke)

echo "== perfbench smoke: stats-adhoc runner =="
# Builds the repository benchmark's runner from this checkout and runs one
# short stats-adhoc window; fails unless every query answered correctly.
# A src/ interface change that breaks the runner fails here.
(cd "${REPO_ROOT}" &&
  python3 perfbench/run.py --workload stats-adhoc --seed 1 --seconds 1 \
    --trace 0 | tail -n 1 |
  python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
print("perfbench smoke:", {k: r[k] for k in ("correct", "attempted", "failed")})
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)')

echo "== sanitizer: thread =="
"${REPO_ROOT}/ci/sanitize.sh" thread

echo "== sanitizer: address =="
"${REPO_ROOT}/ci/sanitize.sh" address

echo "== sanitizer: undefined =="
"${REPO_ROOT}/ci/sanitize.sh" undefined

echo "check: OK"
