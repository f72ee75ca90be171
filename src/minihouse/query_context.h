#ifndef BYTECARD_MINIHOUSE_QUERY_CONTEXT_H_
#define BYTECARD_MINIHOUSE_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "common/thread_pool.h"
#include "minihouse/io_stats.h"
#include "minihouse/optimizer.h"

namespace bytecard::minihouse {

// Everything the benches observe about one query execution. Owned by the
// query's QueryContext — never shared between queries — and filled by the
// executor's deterministic post-execution merge over the operator tree, so
// concurrent queries cannot race on any counter here.
struct ExecStats {
  IoStats io;
  int64_t agg_resize_count = 0;
  int64_t agg_final_capacity = 0;
  int64_t intermediate_rows = 0;  // summed join-output sizes
  // Rows materialized by probe-side scans (what SIP prunes).
  int64_t probe_rows_materialized = 0;
  // Late-projection accounting. intermediate_values sums, over join steps,
  // rows x width of what actually flows downstream (after any ProjectOp);
  // peak_intermediate_values is the largest single step. columns_pruned
  // counts slots dropped by ProjectOps across the query.
  int64_t intermediate_values = 0;
  int64_t peak_intermediate_values = 0;
  int64_t columns_pruned = 0;
  // Parallel execution: max dop any operator ran at (1 = fully serial) and
  // total morsels/partitions executed through the thread pool.
  int threads_used = 1;
  int64_t parallel_tasks = 0;
  // Partial groups folded during parallel aggregation merges (0 when the
  // aggregation ran serially).
  int64_t agg_merge_groups = 0;
  double exec_ms = 0.0;           // execution only
  double plan_ms = 0.0;           // planning_nanos in milliseconds
  // Scheduler accounting (0/false for queries run outside the scheduler):
  // time between Submit and the start of execution, and the admission
  // decision the estimator's intermediate-cardinality prediction drove.
  double queue_ms = 0.0;
  bool heavy_lane = false;
  // Estimation-path accounting (copied from the plan's EstimationStats).
  int64_t estimator_calls = 0;
  int64_t memo_hits = 0;
  int64_t fallback_estimates = 0;
  int64_t feedback_hits = 0;      // estimates served from the feedback cache
  // Per-query inference-session probes answered from the session memo (BN
  // probes / FactorJoin bucket vectors reused across join-order subsets).
  int64_t probe_cache_hits = 0;
  int64_t planning_nanos = 0;     // wall time inside Optimizer::Plan, ns
  uint64_t snapshot_version = 0;  // model snapshot the plan was built on
  // Adaptive routing (all zero without a live mined routing table): distinct
  // route classes planning touched, estimates answered by a routed family,
  // and routed estimates that degraded to the general path.
  int64_t route_classes = 0;
  int64_t routed_estimates = 0;
  int64_t route_fallbacks = 0;
  // Runtime-feedback capture for this query (0/1.0 when feedback is off):
  // estimate-vs-actual observations emitted and the worst per-operator
  // q-error among them.
  int64_t feedback_records = 0;
  double max_op_qerror = 1.0;
  // Kernel specialization (DESIGN.md §11). specialized_ops counts operators
  // the compiler gave a specialized kernel (whether or not it later
  // degraded); despecialized_morsels counts runtime-guard firings — morsels
  // (aggregation partitions, join builds) that fell back to the generic
  // path mid-execution. The per-kind counters break specialized_ops down.
  int64_t specialized_ops = 0;
  int64_t despecialized_morsels = 0;
  int64_t dense_agg_ops = 0;
  int64_t array_join_ops = 0;
  // Encoded storage (DESIGN.md §12; pruned blocks, encoded reads and
  // decode-cache traffic are in `io`). bytes_resident: max over scans of
  // stored table bytes + decode-cache residency — the footprint the scale
  // bench bounds.
  int64_t bytes_resident = 0;
};

// The per-query bundle the whole execution stack is parameterized by: the
// query's estimation scope (pinned model snapshot + InferenceSession), its
// scheduling lane, its morsel budget, and its private ExecStats. One context
// serves exactly one query, on or rooted at one thread; nothing in it is
// shared, which is what lets N queries run concurrently with no ambient
// state (the no-ambient-state rule, DESIGN.md §10).
//
// Lifetime: construct (pinning a snapshot if an estimator is given) →
// optionally SetAdmission from the scheduler's classification → plan →
// compile → execute → read stats. The context must outlive execution; the
// snapshot pin is released when the context dies.
class QueryContext {
 public:
  // A context with no estimation scope: plain execution of a pre-built plan
  // (tests, ground-truth computation). Fast lane, unbudgeted.
  QueryContext() = default;

  // A context for one query served by `estimator`: pins a model snapshot and
  // opens an inference session for the query's lifetime (see
  // EstimationContext).
  explicit QueryContext(CardinalityEstimator* estimator)
      : estimation_(std::make_unique<EstimationContext>(estimator)) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // Null when constructed without an estimator.
  EstimationContext* estimation() const { return estimation_.get(); }

  // Applies the scheduler's admission decision: the lane every task this
  // query spawns runs on, and how many concurrent pool helpers its operators
  // may hold (kUnlimited = pre-scheduler behaviour). Call before execution.
  void SetAdmission(common::TaskLane lane, int morsel_tokens) {
    policy_.lane = lane;
    budget_.Reset(morsel_tokens);
    stats_.heavy_lane = lane == common::TaskLane::kHeavy;
  }

  // The scheduling policy operators pass to every ParallelMorsels fan-out.
  const common::MorselPolicy& morsel_policy() const { return policy_; }

  common::TaskLane lane() const { return policy_.lane; }

  // This query's private stats; merged deterministically by the executor
  // after the operator tree finishes.
  ExecStats* mutable_stats() { return &stats_; }
  const ExecStats& stats() const { return stats_; }

 private:
  std::unique_ptr<EstimationContext> estimation_;
  common::MorselBudget budget_;           // defaults to kUnlimited
  common::MorselPolicy policy_{common::TaskLane::kFast, &budget_};
  ExecStats stats_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_QUERY_CONTEXT_H_
