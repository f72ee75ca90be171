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

echo "== bench smoke: query latency + thread sweep (read-ahead scans) =="
# Small scale whose scans still span several blocks: asserts internally that
# dop 1/2/4/8 return identical groups and identical blocks_read under the
# 200 us block-latency model, that late projection changes neither groups,
# blocks_read nor estimator traffic, and that specialization changes neither
# groups nor blocks_read; writes BENCH_fig5_threads.json and
# BENCH_fig5_projection.json (smoke scale).
(cd "${BUILD_DIR}/bench" && BYTECARD_SCALE=0.03 ./bench_fig5_query_latency)

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

echo "== accuracy gate: q-error cells (Tables 1 and 2, Figure 7) =="
# Default scale and seed: q-errors repeat exactly for a seed, so every cell
# must stay within 1% of the committed BENCH_accuracy.json. A cell more than
# 1% better fails too: the committed file is then stale and would let a
# later change give the gain back unnoticed. On every workload ByteCard's
# COUNT and RBX's NDV P99 must beat the traditional methods' (Table 1 ->
# Table 2); that ordering holds at this configuration, not at every scale.
(cd "${BUILD_DIR}/bench" &&
  env -u BYTECARD_SCALE -u BYTECARD_SEED ./bench_accuracy > /dev/null)
python3 - "${REPO_ROOT}/BENCH_accuracy.json" \
  "${BUILD_DIR}/bench/BENCH_accuracy.json" <<'EOF'
import json, sys
committed, run = (json.load(open(path)) for path in sys.argv[1:3])

def counts(result):
    return {(result["scale"], result["seed"], w["name"], key): w[key]
            for w in result["workloads"]
            for key in ("count_queries", "ndv_probes")}

def cells(result):
    return {(w["name"], target, method, quantile): value
            for w in result["workloads"] for target in ("count", "ndv")
            for method, quantiles in w[target].items()
            for quantile, value in quantiles.items()}

errors = []
if counts(run) != counts(committed):
    errors.append(f"scale, seed, workloads or counts differ: "
                  f"{counts(run)} != committed {counts(committed)}")
want, got = cells(committed), cells(run)
if want.keys() != got.keys():
    errors.append(f"cells {sorted(got)} != committed {sorted(want)}")
for cell in sorted(want.keys() & got.keys()):
    name = " ".join(cell)
    if got[cell] > want[cell] * 1.01:
        errors.append(f"{name} {got[cell]:.6g} is >1% worse than committed "
                      f"{want[cell]:.6g}")
    elif got[cell] < want[cell] * 0.99:
        errors.append(f"{name} {got[cell]:.6g} is >1% better than committed "
                      f"{want[cell]:.6g}: regenerate BENCH_accuracy.json "
                      "in the same change")
for w in run["workloads"]:
    for target, learned, traditional in (("count", "bytecard", "sketch"),
                                         ("ndv", "rbx", "hll")):
        ours = w[target][learned]["p99"]
        theirs = w[target][traditional]["p99"]
        if not ours < theirs:
            errors.append(f"{w['name']} {target} P99: {learned} {ours:.6g} "
                          f"does not beat {traditional} {theirs:.6g}")
for error in errors:
    print("accuracy gate:", error)
print("accuracy gate:", "FAILED" if errors else "OK", f"({len(want)} cells)")
sys.exit(1 if errors else 0)
EOF

echo "== perfbench smoke: stats-adhoc and aeolus-live runners =="
# Builds the repository benchmark's runner from this checkout and runs one
# short window of each workload; fails unless every query answered
# correctly. A src/ interface change that breaks the runner fails here.
# aeolus-live is the one workload where an ingest batch lands between a
# query's plan and its execution: its replica check fails a run that
# answers from a scan opened before the batch.
for workload in stats-adhoc aeolus-live; do
  (cd "${REPO_ROOT}" &&
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1 |
    python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
print("perfbench smoke:", sys.argv[1],
      {k: r[k] for k in ("correct", "attempted", "failed")})
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "${workload}")
done

echo "== sanitizer: thread =="
"${REPO_ROOT}/ci/sanitize.sh" thread

echo "== sanitizer: address =="
"${REPO_ROOT}/ci/sanitize.sh" address

echo "== sanitizer: undefined =="
"${REPO_ROOT}/ci/sanitize.sh" undefined

echo "check: OK"
