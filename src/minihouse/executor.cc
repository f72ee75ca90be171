#include "minihouse/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "minihouse/operators.h"

namespace bytecard::minihouse {

namespace {

// Folds one operator's observations into the query's ExecStats, then
// recurses. `parent` disambiguates what a join step actually ships
// downstream: when a ProjectOp sits directly above a join, the projected
// width — not the raw join width — is what the rest of the pipeline carries.
void MergeOperatorStats(const PhysicalOperator* op,
                        const PhysicalOperator* parent, ExecStats* stats) {
  const OperatorStats& s = op->stats();
  stats->threads_used = std::max(stats->threads_used, s.dop_used);
  stats->parallel_tasks += s.parallel_tasks;
  if (s.specialized) ++stats->specialized_ops;
  stats->despecialized_morsels += s.despecialized_morsels;

  switch (op->kind()) {
    case OpKind::kScan:
      stats->io += s.io;
      stats->bytes_resident = std::max(stats->bytes_resident,
                                       s.bytes_resident);
      break;
    case OpKind::kHashJoin: {
      if (s.specialized) ++stats->array_join_ops;
      stats->intermediate_rows += s.rows_out;
      stats->probe_rows_materialized += s.probe_rows;
      const int64_t shipped =
          (parent != nullptr && parent->kind() == OpKind::kProject)
              ? parent->stats().values_out
              : s.values_out;
      stats->intermediate_values += shipped;
      stats->peak_intermediate_values =
          std::max(stats->peak_intermediate_values, shipped);
      break;
    }
    case OpKind::kProject:
      stats->columns_pruned += s.columns_pruned;
      break;
    case OpKind::kAggregate:
      if (s.specialized) ++stats->dense_agg_ops;
      stats->agg_resize_count = s.agg_resize_count;
      stats->agg_final_capacity = s.agg_final_capacity;
      stats->agg_merge_groups = s.agg_merge_groups;
      break;
  }

  for (size_t i = 0; i < op->num_children(); ++i) {
    MergeOperatorStats(op->child(i), op, stats);
  }
}

// Collects one OperatorFeedback per stamped operator. SIP-pruned scans are
// excluded: the Bloom filter drops filter-passing rows before
// materialization, so their rows_out is not the filter's true cardinality
// (join outputs remain exact under SIP and always qualify).
void CollectFeedback(const PhysicalOperator* op, const PhysicalPlan& plan,
                     QueryFeedback* fb) {
  const FeedbackStamp& stamp = op->feedback_stamp();
  if (stamp.stamped &&
      !(op->kind() == OpKind::kScan && op->stats().sip_filtered)) {
    OperatorFeedback obs;
    obs.kind = stamp.kind;
    obs.fingerprint = stamp.fingerprint;
    obs.tables = stamp.tables;
    obs.estimated = stamp.estimated;
    obs.actual = static_cast<double>(op->stats().rows_out);
    obs.qerror = FeedbackQError(obs.estimated, obs.actual);
    obs.served_from_cache = plan.feedback_served.count(stamp.fingerprint) > 0;
    obs.route_class = stamp.route_class;
    obs.replay = stamp.replay;
    // A guard firing on a specialized kernel travels with the observation so
    // the hook can veto the specialization for this fingerprint next time.
    obs.mis_specialized = op->stats().despecialized_morsels > 0;
    fb->ops.push_back(std::move(obs));
  }
  for (size_t i = 0; i < op->num_children(); ++i) {
    CollectFeedback(op->child(i), plan, fb);
  }
}

}  // namespace

Result<ExecResult> ExecuteQuery(const BoundQuery& query,
                                const PhysicalPlan& plan, QueryContext* ctx) {
  BC_CHECK(ctx != nullptr);
  Stopwatch timer;
  // Hold every referenced table's read latch for the whole compile+execute
  // window: a concurrent ingest batch (append + re-seal under the exclusive
  // latch) waits rather than swapping blocks under a running scan.
  TableReadGuard table_guard(query);
  BC_ASSIGN_OR_RETURN(CompiledDag dag, CompileOperatorDag(query, plan, ctx));
  // One read wait per query rather than one per scan: every scan that can
  // issues its first reads now, in the order the tree will drain them, so
  // their latency overlaps the joins and scans that run first.
  for (ScanOp* scan : dag.scans) scan->Open();
  BC_ASSIGN_OR_RETURN(Relation groups, dag.root->Execute());
  (void)groups;  // the relational view; benches consume the AggregateResult

  // Merge the per-operator observations into the context's private stats.
  // Each operator's OperatorStats was written only by this query's operator
  // tree, and this walk runs after the tree finished, on one thread — the
  // merge is deterministic and race-free by construction.
  ExecResult result;
  result.agg = dag.root->TakeResult();
  ExecStats* stats = ctx->mutable_stats();
  MergeOperatorStats(dag.root.get(), nullptr, stats);
  stats->exec_ms = timer.ElapsedMillis();
  stats->plan_ms = static_cast<double>(plan.estimation.planning_nanos) / 1e6;
  stats->estimator_calls = plan.estimation.estimator_calls;
  stats->memo_hits = plan.estimation.memo_hits;
  stats->fallback_estimates = plan.estimation.fallback_estimates;
  stats->feedback_hits = plan.estimation.feedback_hits;
  stats->probe_cache_hits = plan.estimation.probe_cache_hits;
  stats->planning_nanos = plan.estimation.planning_nanos;
  stats->snapshot_version = plan.estimation.snapshot_version;
  stats->route_classes = plan.estimation.route_classes;
  stats->routed_estimates = plan.estimation.routed_estimates;
  stats->route_fallbacks = plan.estimation.route_fallbacks;

  // Close the loop: report every stamped operator's estimate-vs-actual back
  // to the estimator framework.
  if (plan.feedback != nullptr) {
    QueryFeedback fb;
    fb.snapshot_version = plan.estimation.snapshot_version;
    CollectFeedback(dag.root.get(), plan, &fb);
    stats->feedback_records = static_cast<int64_t>(fb.ops.size());
    for (const OperatorFeedback& obs : fb.ops) {
      stats->max_op_qerror = std::max(stats->max_op_qerror, obs.qerror);
    }
    if (!fb.ops.empty()) plan.feedback->RecordQueryFeedback(std::move(fb));
  }
  result.stats = *stats;
  return result;
}

Result<ExecResult> ExecuteQuery(const BoundQuery& query,
                                const PhysicalPlan& plan) {
  QueryContext ctx;
  return ExecuteQuery(query, plan, &ctx);
}

Result<ExecResult> PlanAndExecute(const BoundQuery& query,
                                  const Optimizer& optimizer,
                                  QueryContext* ctx) {
  // One estimation scope for the whole query: the snapshot pinned at plan
  // time stays pinned until execution finishes, so late estimator reads
  // (none today, but e.g. adaptive re-planning later) stay consistent.
  BC_CHECK(ctx != nullptr && ctx->estimation() != nullptr);
  // Plan under its own read-latch window (zone maps and row counts feed the
  // estimates); ExecuteQuery re-acquires for execution. The two windows are
  // deliberately not merged: shared_mutex is not recursive, and a writer
  // queued between nested lock_shared calls would deadlock.
  const PhysicalPlan plan = [&] {
    TableReadGuard table_guard(query);
    return optimizer.Plan(query, ctx);
  }();
  return ExecuteQuery(query, plan, ctx);
}

Result<ExecResult> PlanAndExecute(const BoundQuery& query,
                                  const Optimizer& optimizer,
                                  CardinalityEstimator* estimator) {
  QueryContext ctx(estimator);
  return PlanAndExecute(query, optimizer, &ctx);
}

}  // namespace bytecard::minihouse
