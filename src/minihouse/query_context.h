#ifndef BYTECARD_MINIHOUSE_QUERY_CONTEXT_H_
#define BYTECARD_MINIHOUSE_QUERY_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "minihouse/io_stats.h"
#include "minihouse/optimizer.h"

namespace bytecard::minihouse {

// What a query's operators count while they run. Each operator fills its
// own counters (OperatorStats) where it computes them; the executor sums them
// over the finished tree with +=, which adds every field but the two
// high-water marks.
struct OperatorCounters {
  IoStats io;  // scans: block reads, pruning, decode-cache traffic
  // Parallel execution: the widest dop an operator ran at (1 = serial; a
  // max) and the morsels/partitions executed through the thread pool.
  int threads_used = 1;
  int64_t parallel_tasks = 0;
  // Kernel specialization (DESIGN.md §11). specialized_ops counts operators
  // the compiler gave a specialized kernel, whether or not it later degraded
  // (dense_agg_ops + array_join_ops); despecialized_morsels counts runtime-
  // guard firings — aggregation partitions and join builds that fell back to
  // the generic path mid-execution.
  int64_t specialized_ops = 0;
  int64_t dense_agg_ops = 0;
  int64_t array_join_ops = 0;
  int64_t despecialized_morsels = 0;
  // Joins: output rows, and probe-side rows the scans materialized (what SIP
  // prunes).
  int64_t intermediate_rows = 0;
  int64_t probe_rows_materialized = 0;
  // Late projection. The operator that ends a join step (the join, or the
  // ProjectOp above it) reports rows x width of what the step ships
  // downstream: summed as intermediate_values, the largest step as
  // peak_intermediate_values (a max). columns_pruned counts slots ProjectOps
  // dropped.
  int64_t intermediate_values = 0;
  int64_t peak_intermediate_values = 0;
  int64_t columns_pruned = 0;
  int64_t agg_resize_count = 0;  // aggregation hash-table growths

  OperatorCounters& operator+=(const OperatorCounters& other) {
    io += other.io;
    threads_used = std::max(threads_used, other.threads_used);
    parallel_tasks += other.parallel_tasks;
    specialized_ops += other.specialized_ops;
    dense_agg_ops += other.dense_agg_ops;
    array_join_ops += other.array_join_ops;
    despecialized_morsels += other.despecialized_morsels;
    intermediate_rows += other.intermediate_rows;
    probe_rows_materialized += other.probe_rows_materialized;
    intermediate_values += other.intermediate_values;
    peak_intermediate_values =
        std::max(peak_intermediate_values, other.peak_intermediate_values);
    columns_pruned += other.columns_pruned;
    agg_resize_count += other.agg_resize_count;
    return *this;
  }
};

// Everything the benches observe about one query execution: the plan's
// estimation counters, its operators' summed counters, and what only the
// query as a whole has. Owned by the query's QueryContext — never shared
// between queries — and filled by the executor after the operator tree
// finishes, so concurrent queries cannot race on any counter here.
struct ExecStats : EstimationStats, OperatorCounters {
  double exec_ms = 0.0;  // execution only
  double plan_ms = 0.0;  // planning_nanos in milliseconds
  // Scheduler accounting (0/false for queries run outside the scheduler):
  // time between Submit and the start of execution, and the admission
  // decision the estimator's intermediate-cardinality prediction drove.
  double queue_ms = 0.0;
  bool heavy_lane = false;
  // Runtime-feedback capture for this query (0/1.0 when feedback is off):
  // estimate-vs-actual observations emitted and the worst per-operator
  // q-error among them.
  int64_t feedback_records = 0;
  double max_op_qerror = 1.0;
};

// A scan opened while planning (Optimizer::Plan, DESIGN.md §12): its
// read-ahead pipeline, the IoStats opening charged, and what its ScanOp must
// still match at execution to take it over (ScanOp::Open).
struct OpenedScan {
  const BoundTableRef* ref = nullptr;  // the query table it was opened for
  int64_t table_rows = 0;              // the table's row count at opening
  ExecFeatures features;               // the switches it reads with
  IoStats io;                          // reads issued and blocks pruned
  std::unique_ptr<ScanPipeline> pipeline;
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
//
// Planning through the context also opens the scans whose plan needs no
// estimate, so their first reads are in flight while the estimators run,
// and keeps them here until ExecuteQuery takes them all, under its read
// latch; each ScanOp drains the one opened for it if it still matches, and
// the rest are dropped with their reads uncounted. A second Plan drops the
// first plan's scans, as does the context's death. The planned query must
// stay alive and unchanged from Plan to ExecuteQuery.
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

  // This query's private stats; filled by the executor after the operator
  // tree finishes.
  ExecStats* mutable_stats() { return &stats_; }
  const ExecStats& stats() const { return stats_; }

  // The scans opened while planning (see the class comment). Set replaces,
  // and so drops, those already held; Take leaves none.
  void SetOpenedScans(std::vector<OpenedScan> scans) {
    opened_scans_ = std::move(scans);
  }
  std::vector<OpenedScan> TakeOpenedScans() {
    return std::exchange(opened_scans_, {});
  }

 private:
  std::unique_ptr<EstimationContext> estimation_;
  common::MorselBudget budget_;           // defaults to kUnlimited
  common::MorselPolicy policy_{common::TaskLane::kFast, &budget_};
  ExecStats stats_;
  std::vector<OpenedScan> opened_scans_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_QUERY_CONTEXT_H_
