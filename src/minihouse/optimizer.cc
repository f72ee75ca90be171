#include "minihouse/optimizer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "minihouse/query_context.h"

namespace bytecard::minihouse {

// Every memo in this file keys on CardEstRequest::Fingerprint — the one
// canonical subplan identity (cardest/request.h), shared with the feedback
// cache and the operator stamps.

std::vector<int> RequiredScanColumns(const BoundQuery& query, int table_idx) {
  std::set<int> needed;
  for (const JoinEdge& e : query.joins) {
    if (e.left_table == table_idx) needed.insert(e.left_column);
    if (e.right_table == table_idx) needed.insert(e.right_column);
  }
  for (const GroupKeyRef& g : query.group_by) {
    if (g.table == table_idx) needed.insert(g.column);
  }
  for (const AggSpecRef& a : query.aggs) {
    if (a.table == table_idx && a.column >= 0) needed.insert(a.column);
  }
  return {needed.begin(), needed.end()};
}

std::vector<std::vector<ColumnId>> RequiredColumnsAfterJoin(
    const BoundQuery& query, const std::vector<int>& order) {
  // Position of each table in the join order; -1 = not joined (disconnected
  // fallback orders may omit tables — their edges are then never consumed).
  std::vector<int> position(query.tables.size(), -1);
  for (size_t s = 0; s < order.size(); ++s) position[order[s]] = static_cast<int>(s);

  // An edge is consumed at the step that joins its later endpoint; its key
  // columns stop being needed once that step has run.
  auto edge_consumed_at = [&](const JoinEdge& e) {
    const int l = position[e.left_table];
    const int r = position[e.right_table];
    if (l < 0 || r < 0) return std::numeric_limits<int>::max();
    return std::max(l, r);
  };

  std::vector<std::vector<ColumnId>> keep;
  if (order.size() < 2) return keep;
  keep.resize(order.size() - 1);
  for (size_t s = 1; s < order.size(); ++s) {
    std::set<std::pair<int, int>> needed;
    for (const GroupKeyRef& g : query.group_by) needed.insert({g.table, g.column});
    for (const AggSpecRef& a : query.aggs) {
      if (a.column >= 0) needed.insert({a.table, a.column});
    }
    for (const JoinEdge& e : query.joins) {
      if (edge_consumed_at(e) <= static_cast<int>(s)) continue;
      needed.insert({e.left_table, e.left_column});
      needed.insert({e.right_table, e.right_column});
    }
    std::vector<ColumnId>& out = keep[s - 1];
    for (const auto& [t, c] : needed) {
      // Only columns already inside the joined prefix can be carried (the
      // rest arrive with future scans).
      if (position[t] >= 0 && position[t] <= static_cast<int>(s)) {
        out.push_back(ColumnId{t, c});
      }
    }
  }
  return keep;
}

std::shared_ptr<CardinalityEstimator> CardinalityEstimator::PinSnapshot() {
  // Non-owning alias: stateless estimators serve queries from `this`
  // directly, under the same lifetime contract as the raw-pointer API.
  return std::shared_ptr<CardinalityEstimator>(this,
                                               [](CardinalityEstimator*) {});
}

double CardinalityEstimator::Estimate(const cardest::CardEstRequest& request,
                                      cardest::InferenceSession* session) {
  using cardest::CardEstTarget;
  switch (request.target) {
    case CardEstTarget::kSelectivity:
      return EstimateSelectivity(*request.table, *request.filters);
    case CardEstTarget::kJoinCount: {
      std::vector<int> scratch;
      return EstimateJoinCardinality(
          *request.query, request.ResolveTables(session, &scratch));
    }
    case CardEstTarget::kGroupNdv:
      return EstimateGroupNdv(*request.query);
    case CardEstTarget::kColumnNdv:
      // The typed interface carries no NDV-under-filters question; a neutral
      // 1 keeps consumers (hash-table sizing) conservative.
      return 1.0;
    case CardEstTarget::kDisjunction:
      // Inclusion-exclusion over the typed selectivity entry point.
      return cardest::InclusionExclusionCount(
          *request.table, *request.disjuncts,
          [&](const Conjunction& merged) {
            return EstimateSelectivity(*request.table, merged);
          });
  }
  return 1.0;
}

EstimationContext::EstimationContext(CardinalityEstimator* root,
                                     bool use_session)
    : pinned_(root->PinSnapshot()),
      hook_(pinned_->feedback_hook()),
      use_session_(use_session) {}

double EstimationContext::Lookup(const cardest::CardEstRequest& request,
                                 Memo* memo, bool cacheable) {
  // One fingerprint serves as per-query memo key, feedback-cache key, and
  // (via the plan's join_estimates copy) the operator stamp.
  const bool consult_feedback = cacheable && hook_ != nullptr;
  std::string key;
  if (memo != nullptr || consult_feedback) {
    key = request.Fingerprint(session());
  }
  if (memo != nullptr) {
    auto it = memo->find(key);
    if (it != memo->end()) {
      ++memo_hits_;
      return it->second;
    }
  }
  double value = 0.0;
  if (consult_feedback && hook_->LookupActual(key, &value)) {
    ++feedback_hits_;
    if (request.target == cardest::CardEstTarget::kSelectivity) {
      const double rows = static_cast<double>(request.table->num_rows());
      value = rows > 0 ? std::clamp(value / rows, 0.0, 1.0) : 0.0;
    }
    feedback_served_.insert(key);
  } else {
    ++estimator_calls_;
    value = pinned_->Estimate(request, session());
  }
  if (memo != nullptr) memo->emplace(std::move(key), value);
  return value;
}

double EstimationContext::Selectivity(const Table& table,
                                      const Conjunction& filters) {
  return Lookup(cardest::CardEstRequest::Selectivity(table, filters),
                &selectivity_memo_, true);
}

double EstimationContext::JoinCardinality(
    const BoundQuery& query, const std::vector<int>& table_subset) {
  return Lookup(cardest::CardEstRequest::JoinCount(query, table_subset),
                &join_memo_, true);
}

double EstimationContext::GroupNdv(const BoundQuery& query) {
  // Asked once per plan, so not memoized; a query without GROUP BY has no
  // fingerprint worth rendering for the cache.
  return Lookup(cardest::CardEstRequest::GroupNdv(query), nullptr,
                !query.group_by.empty());
}

EstimationStats EstimationContext::stats() const {
  EstimationStats stats;
  static_cast<RoutingStats&>(stats) = pinned_->routing_stats();
  stats.estimator_calls = estimator_calls_;
  stats.memo_hits = memo_hits_;
  stats.fallback_estimates = pinned_->FallbackEstimates();
  stats.feedback_hits = feedback_hits_;
  stats.probe_cache_hits = session_.stats().probe_cache_hits;
  stats.snapshot_version = pinned_->SnapshotVersion();
  return stats;
}

// Zone-map tier (DESIGN.md §12): block min/max give a sound selectivity
// upper bound for free (no estimator call, one pass over block metadata).
// Clamping the estimate with it makes reader choice, dop, and admission
// pruning-aware even when the learned model overestimates — e.g. a range
// predicate on a clustered column that zone maps prove touches a few blocks.
//
// The same pass counts the blocks the scan reads. Short scans on
// latency-bound storage read in one stage: when every block the scan reads
// fits in one read-ahead round, nothing overlaps a multi-stage chain's
// stages, so it waits one full read latency per stage against the
// single-stage reader's one, and each block that survives costs it more
// reads, as it re-reads the filter columns. A scan without filters reads in
// one stage too.
Optimizer::ScanBounds Optimizer::BoundScan(const BoundTableRef& ref) const {
  ScanBounds bounds;
  if (ref.filters.empty()) {
    bounds.single_stage = true;
    return bounds;
  }
  int64_t blocks = 0;
  bounds.selectivity =
      ZoneMapSelectivityBound(*ref.table, ref.filters, &blocks);
  if (!options_.features.prune_blocks) blocks = ref.table->num_blocks();
  const StorageProfile* storage = ref.table->storage_profile();
  bounds.single_stage =
      storage != nullptr &&
      storage->block_latency_nanos.load(std::memory_order_relaxed) > 0 &&
      blocks <= kReadAheadBlocks;
  return bounds;
}

TableScanPlan Optimizer::PlanScan(const BoundTableRef& ref,
                                  const ScanBounds& bounds,
                                  EstimationContext* ctx) const {
  TableScanPlan plan;
  if (ref.filters.empty()) return plan;

  plan.estimated_selectivity = std::min(
      ctx->Selectivity(*ref.table, ref.filters), bounds.selectivity);
  if (bounds.single_stage) return plan;

  // Dynamic reader selection (paper §5.1.2): multi-stage pays off exactly
  // when filters eliminate most rows early; otherwise its extra passes lose.
  plan.reader =
      plan.estimated_selectivity <= kMultiStageSelectivityThreshold
          ? ReaderKind::kMultiStage
          : ReaderKind::kSingleStage;

  if (plan.reader == ReaderKind::kMultiStage && ref.filters.size() > 1) {
    // Column-order selection (paper §5.1.1): greedily extend the prefix with
    // the filter that minimizes the *conjunction* selectivity so far — this
    // is where cross-column correlation matters and where learned estimators
    // beat per-column independence. Enumeration early-stops once the prefix
    // is selective enough that later ordering no longer matters.
    const int n = static_cast<int>(ref.filters.size());
    std::vector<int> remaining(n);
    std::iota(remaining.begin(), remaining.end(), 0);
    Conjunction prefix;
    double prefix_selectivity = 1.0;
    bool early_stopped = false;

    while (!remaining.empty()) {
      if (!early_stopped &&
          prefix_selectivity <= options_.column_order_early_stop &&
          !prefix.empty()) {
        // Prefix already filters well; order the rest by individual
        // selectivity without further conjunction probes.
        early_stopped = true;
      }
      int best_pos = 0;
      double best_sel = std::numeric_limits<double>::infinity();
      for (int pos = 0; pos < static_cast<int>(remaining.size()); ++pos) {
        Conjunction candidate;
        if (early_stopped) {
          candidate = {ref.filters[remaining[pos]]};
        } else {
          candidate = prefix;
          candidate.push_back(ref.filters[remaining[pos]]);
        }
        const double sel = ctx->Selectivity(*ref.table, candidate);
        if (sel < best_sel) {
          best_sel = sel;
          best_pos = pos;
        }
      }
      const int chosen = remaining[best_pos];
      plan.filter_order.push_back(chosen);
      prefix.push_back(ref.filters[chosen]);
      if (!early_stopped) prefix_selectivity = best_sel;
      remaining.erase(remaining.begin() + best_pos);
    }
  }
  return plan;
}

std::vector<int> Optimizer::PlanJoinOrder(
    const BoundQuery& query, EstimationContext* ctx,
    std::vector<double>* prefix_cards) const {
  const int n = query.num_tables();
  std::vector<int> order;
  if (n <= 1) {
    if (n == 1) order.push_back(0);
    return order;
  }
  if (!options_.optimize_join_order || query.joins.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
  }

  auto connected = [&](const std::vector<bool>& in_set, int t) {
    for (const JoinEdge& e : query.joins) {
      if ((e.left_table == t && in_set[e.right_table]) ||
          (e.right_table == t && in_set[e.left_table])) {
        return true;
      }
    }
    return false;
  };

  // Seed: the joined pair with the smallest estimated cardinality. Multiple
  // edges between the same pair hit the context memo rather than the model.
  double best_card = std::numeric_limits<double>::infinity();
  int best_a = 0;
  int best_b = 1;
  for (const JoinEdge& e : query.joins) {
    const double card =
        ctx->JoinCardinality(query, {e.left_table, e.right_table});
    if (card < best_card) {
      best_card = card;
      best_a = e.left_table;
      best_b = e.right_table;
    }
  }
  order = {best_a, best_b};
  if (prefix_cards != nullptr) prefix_cards->push_back(best_card);
  std::vector<bool> in_set(n, false);
  in_set[best_a] = in_set[best_b] = true;

  // Greedy left-deep extension: add the connected table minimizing the
  // estimated cardinality of the grown subset.
  while (static_cast<int>(order.size()) < n) {
    int best_t = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int t = 0; t < n; ++t) {
      if (in_set[t] || !connected(in_set, t)) continue;
      std::vector<int> subset = order;
      subset.push_back(t);
      const double card = ctx->JoinCardinality(query, subset);
      if (card < best) {
        best = card;
        best_t = t;
      }
    }
    if (best_t < 0) {
      // Disconnected join graph: append remaining tables in index order
      // (a cross product; our workloads never produce one).
      for (int t = 0; t < n; ++t) {
        if (!in_set[t]) {
          order.push_back(t);
          in_set[t] = true;
        }
      }
      break;
    }
    order.push_back(best_t);
    in_set[best_t] = true;
    if (prefix_cards != nullptr) prefix_cards->push_back(best);
  }
  return order;
}

int Optimizer::PickDop(double estimated_work_rows) const {
  if (options_.max_dop <= 1) return 1;
  if (!(estimated_work_rows > 0)) return 1;
  const int64_t per_drainer = std::max<int64_t>(1, options_.min_dop_work_rows);
  const int64_t dop =
      static_cast<int64_t>(estimated_work_rows) / per_drainer;
  return static_cast<int>(std::clamp<int64_t>(dop, 1, options_.max_dop));
}

PhysicalPlan Optimizer::PlanQuery(const BoundQuery& query,
                                  EstimationContext* ctx,
                                  QueryContext* opened) const {
  Stopwatch timer;
  const int n = query.num_tables();
  std::vector<ScanBounds> bounds;
  bounds.reserve(n);
  for (const BoundTableRef& ref : query.tables) {
    bounds.push_back(BoundScan(ref));
  }
  if (opened != nullptr) {
    // Read while planning (DESIGN.md §12): a scan whose reader needs no
    // estimate, and whose dop is 1 whatever the estimate (its work, rows in
    // plus rows out, is at most twice its rows, and PickDop is monotone),
    // opens now, reading what its ScanOp will: the required columns, the
    // plan's switches, every block, and no SIP filter (a join arms that at
    // execution). Its first reads are then in flight while the estimators
    // run.
    std::vector<OpenedScan> scans;
    for (int t = 0; t < n; ++t) {
      const BoundTableRef& ref = query.tables[t];
      const int64_t rows = ref.table->num_rows();
      if (!bounds[t].single_stage ||
          PickDop(2.0 * static_cast<double>(rows)) != 1) {
        continue;
      }
      OpenedScan& scan = scans.emplace_back();
      scan.ref = &ref;
      scan.table_rows = rows;
      scan.features = options_.features;
      ScanOptions scan_options;
      scan_options.features = options_.features;
      scan.pipeline = std::make_unique<ScanPipeline>(
          *ref.table, ref.filters, RequiredScanColumns(query, t), scan_options,
          0, ref.table->num_blocks(), &scan.io);
    }
    opened->SetOpenedScans(std::move(scans));
  }

  PhysicalPlan plan;
  plan.scans.reserve(n);
  for (int t = 0; t < n; ++t) {
    plan.scans.push_back(PlanScan(query.tables[t], bounds[t], ctx));
  }
  std::vector<double> prefix_cards;
  plan.join_order = PlanJoinOrder(query, ctx, &prefix_cards);
  plan.features = options_.features;
  if (options_.use_ndv_hint && !query.group_by.empty()) {
    const double ndv = ctx->GroupNdv(query);
    plan.group_ndv_hint = std::max<int64_t>(0, static_cast<int64_t>(ndv));
  }

  // Estimate-driven dop selection. Every number used here was already priced
  // during planning (scan selectivities, join prefix cardinalities), so this
  // issues zero additional estimator or memo probes — estimation accounting
  // is byte-identical to a serial plan.
  plan.join_dop.assign(n, 1);
  if (options_.max_dop > 1 && n > 0) {
    auto scan_output_rows = [&](int t) {
      return static_cast<double>(query.tables[t].table->num_rows()) *
             plan.scans[t].estimated_selectivity;
    };
    for (int t = 0; t < n; ++t) {
      // A scan reads every block for filtering and materializes the
      // survivors: work ~ rows in + rows out.
      const double rows = static_cast<double>(query.tables[t].table->num_rows());
      plan.scans[t].dop = PickDop(rows + scan_output_rows(t));
    }
    double last_card = scan_output_rows(plan.join_order.empty()
                                            ? 0
                                            : plan.join_order[0]);
    for (size_t step = 1; step < plan.join_order.size(); ++step) {
      const int t = plan.join_order[step];
      // Probe work ~ probe-side input rows + estimated join output. When the
      // greedy search did not record this prefix (fallback join orders), the
      // probe input alone decides.
      const double probe_rows = scan_output_rows(t);
      double work = probe_rows;
      if (step - 1 < prefix_cards.size()) {
        work += prefix_cards[step - 1];
        last_card = prefix_cards[step - 1];
      } else {
        last_card = std::max(last_card, probe_rows);
      }
      plan.join_dop[t] = PickDop(work);
    }
    // Aggregation consumes the final joined relation.
    plan.agg_dop = PickDop(last_card);
  }
  plan.estimation = ctx->stats();
  plan.estimation.planning_nanos = timer.ElapsedNanos();
  // The join-subset estimates priced during planning travel on the plan
  // unconditionally: operator feedback stamping *and* the scheduler's
  // admission classification read them, and the latter must work with
  // feedback off.
  plan.join_estimates = ctx->join_memo();
  if (ctx->feedback_hook() != nullptr) {
    plan.feedback = ctx->feedback_hook();
    plan.feedback_served = ctx->feedback_served();
  }
  return plan;
}

PhysicalPlan Optimizer::Plan(const BoundQuery& query,
                             EstimationContext* ctx) const {
  return PlanQuery(query, ctx, nullptr);
}

PhysicalPlan Optimizer::Plan(const BoundQuery& query,
                             CardinalityEstimator* estimator) const {
  EstimationContext ctx(estimator);
  return PlanQuery(query, &ctx, nullptr);
}

PhysicalPlan Optimizer::Plan(const BoundQuery& query,
                             QueryContext* ctx) const {
  BC_CHECK(ctx != nullptr && ctx->estimation() != nullptr);
  return PlanQuery(query, ctx->estimation(), ctx);
}

}  // namespace bytecard::minihouse
