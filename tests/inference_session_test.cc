// Per-query inference sessions: memoizing per-table BN probes and FactorJoin
// bucket vectors across the join-order search must change *work*, never
// *answers*. Every plan field and every execution result must be
// byte-identical with the session on and off, at dop 1 and dop 4, while the
// session-on leg actually serves probes from its memo on multi-join queries.
// The concurrency test drives many threads through one shared model snapshot
// with per-thread sessions — the sharing contract the TSan leg checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "cardest/request.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "test_util.h"

namespace bytecard {
namespace {

using minihouse::BoundQuery;
using minihouse::BoundTableRef;
using minihouse::ColumnPredicate;
using minihouse::CompareOp;
using minihouse::EstimationContext;
using minihouse::ExecResult;
using minihouse::JoinEdge;
using minihouse::Optimizer;
using minihouse::OptimizerOptions;
using minihouse::PhysicalPlan;

class InferenceSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new testutil::TempDir("session");
    db_ = testutil::BuildToyDatabase(20000).release();

    ByteCard::Options options;
    options.rbx.population_sizes = {20000};
    options.rbx.sample_rates = {0.02, 0.05};
    options.rbx.replicas = 2;
    options.rbx.epochs = 30;
    auto bc = ByteCard::Bootstrap(
        *db_, {testutil::ToyJoinQuery(*db_)}, dir_->str(), options);
    BC_CHECK_OK(bc.status());
    bytecard_ = std::move(bc).value().release();
  }

  static void TearDownTestSuite() {
    delete bytecard_;
    delete db_;
    delete dir_;
  }

  static ColumnPredicate Pred(int column, CompareOp op, int64_t operand) {
    ColumnPredicate pred;
    pred.column = column;
    pred.op = op;
    pred.operand = operand;
    return pred;
  }

  // fact JOIN dim with filters on both sides, grouped by dim.category.
  static BoundQuery GroupedJoinQuery() {
    BoundQuery query = testutil::ToyJoinQuery(*db_);
    query.tables[0].filters = {Pred(1, CompareOp::kLt, 25)};
    query.tables[1].filters = {Pred(2, CompareOp::kEq, 1)};
    query.group_by = {{1, 1}};
    return query;
  }

  // fact JOIN dim JOIN fact (chain on dim.id): three tables make the
  // join-order search probe several subsets, re-deriving each table's BN
  // marginal — the repetition the session memoizes away.
  static BoundQuery ChainQuery() {
    const minihouse::Table* fact = db_->FindTable("fact").value();
    const minihouse::Table* dim = db_->FindTable("dim").value();
    BoundQuery query;
    BoundTableRef f0;
    f0.table = fact;
    f0.alias = "fact";
    f0.filters = {Pred(1, CompareOp::kLt, 25)};
    BoundTableRef d;
    d.table = dim;
    d.alias = "dim";
    d.filters = {Pred(1, CompareOp::kEq, 2)};
    BoundTableRef f2;
    f2.table = fact;
    f2.alias = "fact2";
    f2.filters = {Pred(2, CompareOp::kLe, 2)};
    query.tables = {f0, d, f2};
    query.joins = {JoinEdge{0, 0, 1, 0}, JoinEdge{1, 0, 2, 0}};
    query.aggs = {{minihouse::AggFunc::kCountStar, -1, -1}};
    return query;
  }

  // Plans `query` twice — session on and session off — and asserts every
  // estimate-derived plan field is byte-identical. Returns the two plans.
  static std::pair<PhysicalPlan, PhysicalPlan> PlanBothLegs(
      const BoundQuery& query, const Optimizer& optimizer) {
    EstimationContext on(bytecard_, /*use_session=*/true);
    EstimationContext off(bytecard_, /*use_session=*/false);
    PhysicalPlan plan_on = optimizer.Plan(query, &on);
    PhysicalPlan plan_off = optimizer.Plan(query, &off);

    EXPECT_EQ(plan_on.join_order, plan_off.join_order);
    EXPECT_EQ(plan_on.group_ndv_hint, plan_off.group_ndv_hint);
    EXPECT_EQ(plan_on.scans.size(), plan_off.scans.size());
    for (size_t s = 0;
         s < std::min(plan_on.scans.size(), plan_off.scans.size()); ++s) {
      EXPECT_EQ(plan_on.scans[s].estimated_selectivity,
                plan_off.scans[s].estimated_selectivity)
          << "scan " << s;
      EXPECT_EQ(plan_on.scans[s].reader, plan_off.scans[s].reader);
      EXPECT_EQ(plan_on.scans[s].filter_order, plan_off.scans[s].filter_order);
    }
    // Join-subset estimates: same canonical keys, bitwise-equal values.
    // (Compared on the contexts' memos — the plan only republishes them
    // when a feedback hook is installed.)
    EXPECT_EQ(on.join_memo(), off.join_memo());
    EXPECT_FALSE(on.join_memo().empty());

    // Same model work observed, minus the probes the session absorbed.
    EXPECT_EQ(plan_on.estimation.estimator_calls,
              plan_off.estimation.estimator_calls);
    EXPECT_EQ(plan_on.estimation.memo_hits, plan_off.estimation.memo_hits);
    EXPECT_EQ(plan_on.estimation.fallback_estimates,
              plan_off.estimation.fallback_estimates);
    EXPECT_EQ(plan_off.estimation.probe_cache_hits, 0);
    return {std::move(plan_on), std::move(plan_off)};
  }

  static testutil::TempDir* dir_;
  static minihouse::Database* db_;
  static ByteCard* bytecard_;
};

testutil::TempDir* InferenceSessionTest::dir_ = nullptr;
minihouse::Database* InferenceSessionTest::db_ = nullptr;
ByteCard* InferenceSessionTest::bytecard_ = nullptr;

// Canonical (sorted) group rows for result-identity comparisons.
std::vector<std::pair<std::vector<int64_t>, std::vector<double>>> SortedGroups(
    const minihouse::AggregateResult& agg) {
  std::vector<std::pair<std::vector<int64_t>, std::vector<double>>> rows;
  for (int64_t g = 0; g < agg.num_groups; ++g) {
    std::vector<int64_t> key;
    for (const auto& col : agg.group_keys) {
      key.push_back(col[static_cast<size_t>(g)]);
    }
    std::vector<double> vals;
    for (const auto& a : agg.agg_values) {
      vals.push_back(a[static_cast<size_t>(g)]);
    }
    rows.emplace_back(std::move(key), std::move(vals));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(InferenceSessionTest, EstimatesIdenticalWithSessionOnAndOff) {
  const BoundQuery grouped = GroupedJoinQuery();
  const BoundQuery chain = ChainQuery();
  const Optimizer optimizer;

  auto [grouped_on, grouped_off] = PlanBothLegs(grouped, optimizer);
  auto [chain_on, chain_off] = PlanBothLegs(chain, optimizer);

  // The chain query's join-order search revisits each table across candidate
  // subsets: the session must have absorbed repeated probes.
  EXPECT_GT(chain_on.estimation.probe_cache_hits, 0);

  // Execution under each plan produces identical results.
  auto run = [&](const BoundQuery& q, const PhysicalPlan& p) {
    auto result = minihouse::ExecuteQuery(q, p);
    BC_CHECK_OK(result.status());
    return std::move(result).value();
  };
  ExecResult grouped_res_on = run(grouped, grouped_on);
  ExecResult grouped_res_off = run(grouped, grouped_off);
  EXPECT_EQ(SortedGroups(grouped_res_on.agg), SortedGroups(grouped_res_off.agg));
  ExecResult chain_res_on = run(chain, chain_on);
  ExecResult chain_res_off = run(chain, chain_off);
  EXPECT_EQ(chain_res_on.ScalarCount(), chain_res_off.ScalarCount());
  EXPECT_GT(chain_res_on.ScalarCount(), 0);
  // Session accounting surfaces in ExecStats.
  EXPECT_EQ(chain_res_on.stats.probe_cache_hits,
            chain_on.estimation.probe_cache_hits);
  EXPECT_EQ(chain_res_off.stats.probe_cache_hits, 0);
}

TEST_F(InferenceSessionTest, EstimatesIdenticalAtDop4) {
  OptimizerOptions options;
  options.max_dop = 4;
  const Optimizer optimizer(options);
  const BoundQuery chain = ChainQuery();

  auto [plan_on, plan_off] = PlanBothLegs(chain, optimizer);
  EXPECT_GT(plan_on.estimation.probe_cache_hits, 0);
  EXPECT_EQ(plan_on.join_dop, plan_off.join_dop);
  EXPECT_EQ(plan_on.agg_dop, plan_off.agg_dop);

  auto on = minihouse::ExecuteQuery(chain, plan_on);
  auto off = minihouse::ExecuteQuery(chain, plan_off);
  BC_CHECK_OK(on.status());
  BC_CHECK_OK(off.status());
  EXPECT_EQ(on.value().ScalarCount(), off.value().ScalarCount());

  // Serial reference: parallel execution under either leg matches dop 1.
  auto [serial_on, serial_off] = PlanBothLegs(chain, Optimizer());
  auto serial = minihouse::ExecuteQuery(chain, serial_on);
  BC_CHECK_OK(serial.status());
  EXPECT_EQ(on.value().ScalarCount(), serial.value().ScalarCount());
  (void)serial_off;
}

TEST_F(InferenceSessionTest, DirectTargetsIdenticalWithAndWithoutSession) {
  // The targets the optimizer loop doesn't exercise — disjunction counts and
  // column NDV — through the canonical entry point, session on vs off vs the
  // typed convenience APIs. Everything must agree bitwise; the session only
  // absorbs the repeated selectivity probes inside inclusion-exclusion.
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const std::vector<minihouse::Conjunction> disjuncts = {
      {Pred(1, CompareOp::kLt, 10)},
      {Pred(2, CompareOp::kEq, 0), Pred(1, CompareOp::kGe, 5)}};
  const minihouse::Conjunction filters = {Pred(2, CompareOp::kLe, 2)};

  cardest::InferenceSession session;
  const auto dreq = cardest::CardEstRequest::Disjunction(fact, disjuncts);
  const double d_with = bytecard_->Estimate(dreq, &session);
  EXPECT_EQ(d_with, bytecard_->Estimate(dreq, nullptr));
  EXPECT_EQ(d_with, bytecard_->EstimateCountDisjunction(fact, disjuncts));
  // Re-asking through the same session serves the memo, answer unchanged.
  const int64_t hits_before = session.stats().probe_cache_hits;
  EXPECT_EQ(d_with, bytecard_->Estimate(dreq, &session));
  EXPECT_GT(session.stats().probe_cache_hits, hits_before);

  const auto nreq = cardest::CardEstRequest::ColumnNdv(fact, 1, filters);
  const double n_with = bytecard_->Estimate(nreq, &session);
  EXPECT_EQ(n_with, bytecard_->Estimate(nreq, nullptr));
  EXPECT_EQ(n_with, bytecard_->EstimateColumnNdv(fact, 1, filters));
}

TEST_F(InferenceSessionTest, PlanningStatsReachExecStats) {
  auto result =
      minihouse::PlanAndExecute(ChainQuery(), Optimizer(), bytecard_);
  BC_CHECK_OK(result.status());
  EXPECT_GT(result.value().stats.probe_cache_hits, 0);  // session default-on
  EXPECT_GT(result.value().stats.planning_nanos, 0);
  EXPECT_GT(result.value().stats.estimator_calls, 0);
}

TEST(SessionConcurrencyTest, ThreadsShareSnapshotWithPrivateSessions) {
  const testutil::TempDir tmp("session_concurrency");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(8000);

  ByteCard::Options options;
  options.rbx.population_sizes = {8000};
  options.rbx.sample_rates = {0.02, 0.05};
  options.rbx.replicas = 2;
  options.rbx.epochs = 20;
  auto bc = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                options);
  BC_CHECK_OK(bc.status());
  ByteCard* bytecard = bc.value().get();

  BoundQuery query = testutil::ToyJoinQuery(*db);
  query.tables[0].filters = {[] {
    ColumnPredicate pred;
    pred.column = 1;
    pred.op = CompareOp::kLt;
    pred.operand = 25;
    return pred;
  }()};

  // Many threads plan concurrently: all pin the same published snapshot,
  // each with its own per-query InferenceSession. Estimates must agree
  // bitwise across threads (the snapshot is immutable; sessions are private).
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 4;
  std::vector<std::unordered_map<std::string, double>> estimates(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const Optimizer optimizer;
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        EstimationContext ctx(bytecard);
        (void)optimizer.Plan(query, &ctx);
        if (iter == 0) {
          estimates[static_cast<size_t>(i)] = ctx.join_memo();
        } else {
          BC_CHECK(estimates[static_cast<size_t>(i)] == ctx.join_memo());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(estimates[0], estimates[static_cast<size_t>(i)]) << "thread "
                                                               << i;
  }
  EXPECT_FALSE(estimates[0].empty());
}

}  // namespace
}  // namespace bytecard
