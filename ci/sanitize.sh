#!/usr/bin/env bash
# Sanitizer gate: builds the tree under ThreadSanitizer (or the sanitizer
# named in $1: thread|address|undefined) and runs the suites that exercise
# shared state — the concurrency tests (snapshot publish vs. estimation
# races), the robustness tests (loader/deserializer abuse), the
# parallel-execution tests (thread pool, morsel-parallel
# scans/joins/aggregation), the runtime-feedback tests (query threads racing
# cache invalidation and drift aggregation), the incremental-maintenance
# tests (ingest batches racing query streams and snapshot publishes), the
# model-lifecycle tests (bootstrap, loader/validator admission, monitor
# probes, and the demotion publish path), and the reader tests (the
# read-ahead pipeline and its per-slot selection state, at dop 1 and 4).
#
# Usage: ci/sanitize.sh [thread|address|undefined] [build-dir]
# BYTECARD_THREADS overrides the worker-pool sizing (default 4 here, so the
# parallel tests genuinely interleave even on small CI machines).
set -euo pipefail

SANITIZER="${1:-thread}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${2:-${REPO_ROOT}/build-${SANITIZER}san}"

case "${SANITIZER}" in
  thread|address|undefined) ;;
  *)
    echo "usage: $0 [thread|address|undefined] [build-dir]" >&2
    exit 2
    ;;
esac

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBYTECARD_SANITIZE="${SANITIZER}"
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target concurrency_test robustness_test feedback_test \
           thread_pool_test minihouse_parallel_test minihouse_operator_test \
           cardest_request_test inference_session_test scheduler_test \
           minihouse_specialize_test minihouse_encoding_test \
           incremental_test cardest_ndv_test routing_test \
           bytecard_facade_test bytecard_lifecycle_test bytecard_services_test \
           minihouse_reader_test

# halt_on_error makes a race fail the ctest run instead of just logging;
# tsan.supp documents the known libstdc++ instrumentation gaps we ignore.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=${REPO_ROOT}/ci/tsan.supp"
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
export BYTECARD_THREADS="${BYTECARD_THREADS:-4}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
  -R "ConcurrencyTest|RobustnessTest|ThreadPoolTest|ParallelMorselsTest|ParallelScanTest|ParallelJoinTest|ParallelAggregateTest|ParallelExecutorTest|ParallelOptimizerTest|OperatorDagTest|FeedbackFingerprintTest|FeedbackLogTest|FeedbackCacheTest|DriftDetectorTest|FeedbackCaptureTest|FeedbackConcurrencyTest|FeedbackByteCardTest|RequestFingerprintTest|InferenceSessionTest|SessionConcurrencyTest|SchedulerTest|SchedulerConcurrencyTest|ColumnDomainTest|DenseKeyIndexTest|AggSizingTest|PredicateKernelTest|DenseAggTest|ArrayJoinTest|SpecializationIdentityTest|MisSpecializationTest|EncodedBlockTest|EncodingPropertyTest|ZoneMapTest|DecodeCacheTest|DictionarySealTest|DomainFromZoneMapTest|EncodedScanTest|IngestDeltaTest|BnDeltaTest|FjDeltaTest|IncrementalMaintainerTest|IncrementalConcurrencyTest|HllSketchTest|RoutingClassTest|RoutingTableTest|RoutingIdentityTest|RouteMinerTest|RoutingConcurrencyTest|SchedulerSqlTest|ByteCardFacadeTest|ByteCardBootstrapTest|LifecycleTest|ModelForgeTest|ModelLoaderTest|ModelMonitorTest|ModelPreprocessorTest|ModelValidatorTest|ReaderTest"

echo "sanitize(${SANITIZER}): OK"
