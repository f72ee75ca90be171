#include "minihouse/executor.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "minihouse/operators.h"

namespace bytecard::minihouse {

namespace {

// Calls `fn` on every operator of the tree rooted at `op`, parents first.
template <typename Fn>
void ForEachOperator(const PhysicalOperator& op, const Fn& fn) {
  fn(op);
  for (size_t i = 0; i < op.num_children(); ++i) {
    ForEachOperator(*op.child(i), fn);
  }
}

// Completes `op`'s feedback stamp with what execution observed and appends
// it to `fb`. SIP-pruned scans are excluded: the Bloom filter drops
// filter-passing rows before materialization, so their rows_out is not the
// filter's true cardinality (join outputs remain exact under SIP and always
// qualify).
void CollectFeedback(const PhysicalOperator& op, const PhysicalPlan& plan,
                     QueryFeedback* fb) {
  const OperatorStats& s = op.stats();
  if (!op.feedback_stamp() || s.sip_filtered) return;
  OperatorFeedback obs = *op.feedback_stamp();
  obs.actual = static_cast<double>(s.rows_out);
  obs.qerror = FeedbackQError(obs.estimated, obs.actual);
  obs.served_from_cache = plan.feedback_served.count(obs.fingerprint) > 0;
  // A guard firing on a specialized kernel travels with the observation so
  // the hook can veto the specialization for this fingerprint next time.
  obs.mis_specialized = s.despecialized_morsels > 0;
  fb->ops.push_back(std::move(obs));
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
  // The scans opened while planning leave the context here, under the latch:
  // each scan takes over its own if it still matches, and the rest are
  // dropped, unread, when this returns.
  std::vector<OpenedScan> planned = ctx->TakeOpenedScans();
  BC_ASSIGN_OR_RETURN(CompiledDag dag, CompileOperatorDag(query, plan, ctx));
  // One read wait per query rather than one per scan: every scan that can,
  // and was not opened while planning, issues its first reads now, in the
  // order the tree will drain them, so their latency overlaps the joins and
  // scans that run first.
  for (ScanOp* scan : dag.scans) scan->Open(&planned);
  BC_ASSIGN_OR_RETURN(Relation groups, dag.root->Execute());
  (void)groups;  // the relational view; benches consume the AggregateResult

  // Sum the operators' counters into the context's private stats. Each
  // operator's OperatorStats was written only by this query's operator tree,
  // and this walk runs after the tree finished, on one thread — the sum is
  // deterministic and race-free by construction.
  ExecResult result;
  result.agg = dag.root->TakeResult();
  ExecStats* stats = ctx->mutable_stats();
  stats->exec_ms = timer.ElapsedMillis();
  static_cast<EstimationStats&>(*stats) = plan.estimation;
  stats->plan_ms = static_cast<double>(plan.estimation.planning_nanos) / 1e6;
  // Close the loop: report every stamped operator's estimate-vs-actual back
  // to the estimator framework.
  QueryFeedback fb;
  fb.snapshot_version = plan.estimation.snapshot_version;
  ForEachOperator(*dag.root, [&](const PhysicalOperator& op) {
    *stats += op.stats();
    if (plan.feedback != nullptr) CollectFeedback(op, plan, &fb);
  });
  stats->feedback_records = static_cast<int64_t>(fb.ops.size());
  for (const OperatorFeedback& obs : fb.ops) {
    stats->max_op_qerror = std::max(stats->max_op_qerror, obs.qerror);
  }
  if (!fb.ops.empty()) plan.feedback->RecordQueryFeedback(std::move(fb));
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
