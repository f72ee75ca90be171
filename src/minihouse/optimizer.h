#ifndef BYTECARD_MINIHOUSE_OPTIMIZER_H_
#define BYTECARD_MINIHOUSE_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cardest/request.h"
#include "minihouse/feedback.h"
#include "minihouse/query.h"
#include "minihouse/reader.h"
#include "minihouse/relation.h"

namespace bytecard::minihouse {

class QueryContext;  // query_context.h (which includes this header)

// Adaptive-routing accounting a pinned estimator view exposes (all zero for
// estimators without a routing layer, or while no routing table is live).
struct RoutingStats {
  int64_t route_classes = 0;     // distinct route classes with a mined route
  int64_t routed_estimates = 0;  // estimates answered by a routed family
  int64_t route_fallbacks = 0;   // routed family inapplicable -> general path
};

// The estimator interface the optimizer is parameterized by. Implemented by
// the traditional sketch-based estimator, the sample-based estimator, and the
// ByteCard facade — the three systems Figure 5/6/7 compare. Estimation cost
// is intentionally paid inside optimizer calls so that estimation overhead
// (the sample-based method's weakness at low latency quantiles) shows up in
// end-to-end latency.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  virtual std::string Name() const = 0;

  // The canonical entry point: answers any estimation-request shape (see
  // cardest/request.h) — this is the one code path every estimator serves,
  // and the only one EstimationContext calls. The default implementation
  // adapts onto the typed virtuals below (disjunctions by
  // inclusion-exclusion over EstimateSelectivity; column NDV neutrally at 1),
  // so sketches, samples, and test stubs participate unchanged. Estimators
  // with a native canonical path (the ByteCard facade and its pinned
  // snapshot view) override this instead. `session` is the caller's per-query
  // probe memo; null is always valid and never changes the estimate.
  virtual double Estimate(const cardest::CardEstRequest& request,
                          cardest::InferenceSession* session);

  // --- Typed convenience entry points ---------------------------------------
  // Thin shapes over Estimate for callers that know their question statically.

  // Fraction of `table`'s rows satisfying the conjunction, in [0, 1].
  virtual double EstimateSelectivity(const Table& table,
                                     const Conjunction& filters) = 0;

  // Estimated COUNT(*) of the join of `table_subset` (indices into
  // query.tables) under their filters and the query's join edges.
  virtual double EstimateJoinCardinality(
      const BoundQuery& query, const std::vector<int>& table_subset) = 0;

  // Estimated number of distinct group keys the query's GROUP BY produces.
  virtual double EstimateGroupNdv(const BoundQuery& query) = 0;

  // --- Model-snapshot hooks --------------------------------------------------
  // Pins an immutable model snapshot and returns a per-query view over it:
  // every estimate through the view is answered by the same model versions,
  // even if the estimator's models are republished concurrently. The default
  // implementation returns a non-owning alias of `this` — correct for
  // estimators whose state never changes while queries run (sketches,
  // samples, test stubs). The returned view is used by at most one thread.
  virtual std::shared_ptr<CardinalityEstimator> PinSnapshot();

  // Version of the model snapshot estimates come from; 0 when the estimator
  // has no versioned models. On a pinned view this is constant.
  virtual uint64_t SnapshotVersion() const { return 0; }

  // Estimates answered by a traditional fallback path (unhealthy learned
  // model) since this instance was created. Meaningful on pinned views,
  // which live for exactly one query.
  virtual int64_t FallbackEstimates() const { return 0; }

  // Adaptive-routing counters since this instance was created (see
  // RoutingStats). Meaningful on pinned views; the default (no routing
  // layer) reports zeros.
  virtual RoutingStats routing_stats() const { return {}; }

  // Runtime-feedback surface, if this estimator maintains one (the ByteCard
  // facade's feedback manager). Non-null makes the optimizer consult the
  // feedback cache before paying for model inference, and makes the executor
  // report estimate-vs-actual observations after each query. Must stay valid
  // through plan *and* execution of every query pinned on this view.
  virtual QueryFeedbackHook* feedback_hook() const { return nullptr; }
};

// Estimation-path accounting for one planned query, including the pinned
// view's routing counters (ExecStats inherits all of it).
struct EstimationStats : RoutingStats {
  int64_t estimator_calls = 0;    // estimates actually forwarded to the model
  int64_t memo_hits = 0;          // estimates answered from the per-query memo
  int64_t fallback_estimates = 0; // estimates answered by the traditional path
  int64_t feedback_hits = 0;      // estimates served from the feedback cache
  // Per-table probe work the InferenceSession saved inside the estimator
  // (BN selectivities / FactorJoin bucket vectors served from the session
  // memo instead of recomputed; 0 when the session is off).
  int64_t probe_cache_hits = 0;
  int64_t planning_nanos = 0;     // wall time inside Optimizer::Plan
  uint64_t snapshot_version = 0;  // model snapshot the whole plan was built on
};

// Per-query estimation scope: pins one model snapshot for the lifetime of a
// plan (a query never sees two model versions) and memoizes repeated
// selectivity / join-subset estimates across the optimizer's enumeration
// loops. Not thread-safe — one context per query, on the query's thread.
class EstimationContext {
 public:
  // `use_session` gates the per-query InferenceSession handed to every
  // estimator call: off recomputes every per-table probe (the identity
  // baseline the session bench compares against); estimates are byte-
  // identical either way.
  explicit EstimationContext(CardinalityEstimator* root,
                             bool use_session = true);

  EstimationContext(const EstimationContext&) = delete;
  EstimationContext& operator=(const EstimationContext&) = delete;

  // Memoized: keyed on the predicate *set* (order-insensitive), so the
  // column-order search's re-probes of an already-priced conjunction are
  // free.
  double Selectivity(const Table& table, const Conjunction& filters);

  // Memoized: keyed on the table *set* (order-insensitive) — join
  // cardinality does not depend on enumeration order.
  double JoinCardinality(const BoundQuery& query,
                         const std::vector<int>& table_subset);

  // Not memoized (asked once per plan).
  double GroupNdv(const BoundQuery& query);

  // The pinned per-query estimator view (for callers that need raw access).
  CardinalityEstimator* pinned() const { return pinned_.get(); }

  // The query's inference session (null when memoization is off).
  cardest::InferenceSession* session() {
    return use_session_ ? &session_ : nullptr;
  }

  // The pinned view's feedback surface (null when feedback is off).
  QueryFeedbackHook* feedback_hook() const { return hook_; }

  // Join-subset estimates priced so far, keyed by the canonical subplan
  // fingerprint — the same string the feedback cache and operator stamps
  // use, so the three layers can never disagree. The plan copies this so the
  // compiled DAG can stamp join operators even after the executor's
  // connectivity fixup reorders steps.
  const std::unordered_map<std::string, double>& join_memo() const {
    return join_memo_;
  }

  // Cross-query fingerprints whose estimate came from the feedback cache
  // (such observations must not feed drift detection — they would read as
  // perfect model accuracy).
  const std::unordered_set<std::string>& feedback_served() const {
    return feedback_served_;
  }

  // Counters so far, including the pinned view's fallback and routing
  // counts.
  EstimationStats stats() const;

 private:
  using Memo = std::unordered_map<std::string, double>;

  // The one lookup path behind Selectivity, JoinCardinality and GroupNdv:
  // the per-query `memo` (none when null), then the feedback cache (when a
  // hook is present and the request is `cacheable`), then the pinned
  // estimator. The request's fingerprint is rendered only when the memo or
  // the cache needs it. A cached actual answers a selectivity request as a
  // fraction of its table's rows.
  double Lookup(const cardest::CardEstRequest& request, Memo* memo,
                bool cacheable);

  std::shared_ptr<CardinalityEstimator> pinned_;
  QueryFeedbackHook* hook_ = nullptr;
  cardest::InferenceSession session_;
  bool use_session_ = true;
  Memo selectivity_memo_;
  Memo join_memo_;
  std::unordered_set<std::string> feedback_served_;
  int64_t estimator_calls_ = 0;
  int64_t memo_hits_ = 0;
  int64_t feedback_hits_ = 0;
};

struct TableScanPlan {
  ReaderKind reader = ReaderKind::kSingleStage;
  std::vector<int> filter_order;  // multi-stage column order
  double estimated_selectivity = 1.0;
  int dop = 1;                    // morsel drainers for this scan
};

struct PhysicalPlan {
  std::vector<TableScanPlan> scans;  // one per query table
  std::vector<int> join_order;       // left-deep order over table indices
  // join_dop[t]: probe dop for the join step whose right input is table t.
  // Indexed by table rather than step so the executor's connectivity fixup
  // of the join order cannot misalign it; the leftmost table's entry is
  // unused. Empty (or short) means serial.
  std::vector<int> join_dop;
  int agg_dop = 1;                   // aggregation partitions
  int64_t group_ndv_hint = 0;        // 0 = no hint (engine default sizing)
  ExecFeatures features;             // copied from OptimizerOptions
  EstimationStats estimation;        // estimation-path accounting
  // Runtime feedback (all unset/empty when the estimator has no hook):
  // the executor reports estimate-vs-actual observations here after running
  // the plan. Must outlive execution (guaranteed by the snapshot pin the
  // caller holds).
  QueryFeedbackHook* feedback = nullptr;
  // Join-subset estimates priced during planning, keyed by the canonical
  // subplan fingerprint (the same string operators are stamped with) —
  // lets the DAG compiler stamp join operators independent of step order.
  std::unordered_map<std::string, double> join_estimates;
  // Fingerprints whose estimate was served from the feedback cache.
  std::unordered_set<std::string> feedback_served;
};

// Scans whose estimated selectivity falls at or below this fraction read with
// the multi-stage reader (paper §5.1.2).
inline constexpr double kMultiStageSelectivityThreshold = 0.15;

struct OptimizerOptions {
  // Column-order enumeration early-stop (paper §5.1.1): once the chosen
  // prefix is at least this selective, later stages see so few rows that
  // further conjunction probing cannot pay off; remaining filters keep
  // their individual-selectivity order.
  double column_order_early_stop = 0.02;
  // Pre-size aggregation hash tables from estimated group NDV.
  bool use_ndv_hint = true;
  // Pick join order from estimated join cardinalities (greedy left-deep).
  bool optimize_join_order = true;
  // Execution switches every plan carries (see ExecFeatures).
  ExecFeatures features;
  // Degree-of-parallelism ceiling for scans, join probes, and aggregation.
  // <= 1 disables parallel execution (the default; benches and parallel
  // tests opt in). Dop is chosen per operator from the cardinalities already
  // estimated during planning, so tiny estimated inputs stay serial and the
  // choice costs zero extra estimator calls.
  int max_dop = 1;
  // Estimated input rows an operator must carry per drainer before the
  // optimizer grants it another: dop = work / min_dop_work_rows, clamped to
  // [1, max_dop].
  int64_t min_dop_work_rows = 2 * kBlockRows;
};

// --- Required-column analysis ----------------------------------------------
// The optimizer pass behind late projection: purely structural (zero
// estimator calls), shared with the operator-DAG compiler so the plan and
// the compiled tree always agree on column lifetimes.

// Columns of `table_idx` that must survive its scan: join keys, group keys,
// and aggregate inputs, in ascending schema order.
std::vector<int> RequiredScanColumns(const BoundQuery& query, int table_idx);

// For a left-deep join `order`, the identity set of columns still needed
// strictly *after* join step s (step s joins order[s], s in
// [1, order.size())): group keys, aggregate inputs, and the keys of join
// edges not yet fully consumed by the prefix order[0..s]. Entry s-1
// corresponds to step s. A column absent from its step's set has had its
// last consumer run and can be dropped by a ProjectOp.
std::vector<std::vector<ColumnId>> RequiredColumnsAfterJoin(
    const BoundQuery& query, const std::vector<int>& order);

// Cost-based planner: reader selection, multi-stage column ordering,
// join-order selection, and aggregation hash-table pre-sizing, all driven by
// the injected CardinalityEstimator.
class Optimizer {
 public:
  Optimizer() {}
  explicit Optimizer(OptimizerOptions options) : options_(options) {}

  // Pins a snapshot, plans against it, and releases the pin: one query, one
  // model version.
  PhysicalPlan Plan(const BoundQuery& query,
                    CardinalityEstimator* estimator) const;

  // Plans inside a caller-owned estimation scope (the caller controls the
  // snapshot pin's lifetime — e.g. to extend it over execution).
  PhysicalPlan Plan(const BoundQuery& query, EstimationContext* ctx) const;

  // Plans inside a query context's estimation scope (which must exist): the
  // per-query entry point the scheduler and executor use. The pin lives as
  // long as the context — through execution. Before its first estimate it
  // opens, into the context, the scan of every table whose reader and dop
  // need no estimate (a single-stage scan at dop 1), so their first reads
  // overlap planning; ExecuteQuery takes them over (DESIGN.md §12).
  PhysicalPlan Plan(const BoundQuery& query, QueryContext* ctx) const;

 private:
  // What a scan's plan knows before any estimate, from one pass over its
  // table's zone maps.
  struct ScanBounds {
    double selectivity = 1.0;   // the zone-map selectivity upper bound
    bool single_stage = false;  // the reader needs no estimate
  };
  ScanBounds BoundScan(const BoundTableRef& ref) const;
  TableScanPlan PlanScan(const BoundTableRef& ref, const ScanBounds& bounds,
                         EstimationContext* ctx) const;
  // Plans `query`; when `opened` is non-null, first opens into it the scans
  // whose plan needs no estimate.
  PhysicalPlan PlanQuery(const BoundQuery& query, EstimationContext* ctx,
                         QueryContext* opened) const;
  // Plans the join order; when `prefix_cards` is non-null, records the
  // estimated cardinality of each left-deep prefix as it is grown (entry i =
  // output of join step i+1). These are the cardinalities the greedy search
  // computes anyway — recording them lets dop selection reuse them without
  // new estimator calls. May come out shorter than the number of steps on
  // fallback paths (join ordering disabled, disconnected graph).
  std::vector<int> PlanJoinOrder(const BoundQuery& query,
                                 EstimationContext* ctx,
                                 std::vector<double>* prefix_cards) const;
  // Dop for an operator expected to touch `estimated_work_rows` input rows.
  int PickDop(double estimated_work_rows) const;

  OptimizerOptions options_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_OPTIMIZER_H_
