// Optimizer decisions under a controllable fake estimator.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "minihouse/optimizer.h"
#include "minihouse/query_context.h"
#include "test_util.h"

namespace bytecard::minihouse {
namespace {

// Estimator with scripted answers; also records calls.
class FakeEstimator : public CardinalityEstimator {
 public:
  std::string Name() const override { return "fake"; }

  double EstimateSelectivity(const Table& table,
                             const Conjunction& filters) override {
    ++selectivity_calls;
    (void)table;
    // Product of per-predicate scripted selectivities; conjunction of the
    // correlated pair {0, 1} is scripted separately.
    if (filters.size() == 2 &&
        ((filters[0].column == 0 && filters[1].column == 1) ||
         (filters[0].column == 1 && filters[1].column == 0))) {
      return correlated_pair_selectivity;
    }
    double sel = 1.0;
    for (const ColumnPredicate& pred : filters) {
      auto it = column_selectivity.find(pred.column);
      sel *= it == column_selectivity.end() ? 1.0 : it->second;
    }
    return sel;
  }

  double EstimateJoinCardinality(const BoundQuery& query,
                                 const std::vector<int>& subset) override {
    ++join_calls;
    (void)query;
    double card = 1.0;
    for (int t : subset) card *= table_card.at(t);
    return card;
  }

  double EstimateGroupNdv(const BoundQuery& query) override {
    (void)query;
    return group_ndv;
  }

  std::map<int, double> column_selectivity;
  double correlated_pair_selectivity = 1.0;
  std::map<int, double> table_card;
  double group_ndv = 16.0;
  int selectivity_calls = 0;
  int join_calls = 0;
};

BoundTableRef MakeRef(const Table* table, int num_filters) {
  BoundTableRef ref;
  ref.table = table;
  ref.alias = table->name();
  for (int c = 0; c < num_filters; ++c) {
    ColumnPredicate pred;
    pred.column = c;
    pred.op = CompareOp::kGe;
    pred.operand = 0;
    ref.filters.push_back(pred);
  }
  return ref;
}

TEST(OptimizerTest, SelectiveFiltersPickMultiStage) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 1));

  FakeEstimator estimator;
  estimator.column_selectivity[0] = 0.01;
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_EQ(plan.scans[0].reader, ReaderKind::kMultiStage);
}

TEST(OptimizerTest, NonSelectiveFiltersPickSingleStage) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 1));

  FakeEstimator estimator;
  estimator.column_selectivity[0] = 0.9;
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_EQ(plan.scans[0].reader, ReaderKind::kSingleStage);
}

TEST(OptimizerTest, ThresholdBoundaryExactlyAtConfig) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 1));

  FakeEstimator estimator;
  estimator.column_selectivity[0] = 0.15;  // exactly the default threshold
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_EQ(plan.scans[0].reader, ReaderKind::kMultiStage);  // <= threshold
}

TEST(OptimizerTest, ColumnOrderExploitsCorrelation) {
  // The paper's §5.1.1 example: col0 and col1 are strongly correlated (their
  // conjunction is no more selective than col1 alone), col2 is independent.
  // Individually col1 looks best, but the correlation-aware order puts the
  // independent filter early once the pair's joint selectivity is known.
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 3));

  FakeEstimator estimator;
  estimator.column_selectivity[0] = 0.6;
  estimator.column_selectivity[1] = 0.02;  // best single filter
  estimator.column_selectivity[2] = 0.05;
  estimator.correlated_pair_selectivity = 0.02;  // 0&1 together: no gain

  OptimizerOptions options;
  options.column_order_early_stop = 1e-9;  // never early-stop
  Optimizer optimizer(options);
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  ASSERT_EQ(plan.scans[0].reader, ReaderKind::kMultiStage);
  ASSERT_EQ(plan.scans[0].filter_order.size(), 3u);
  // Greedy: first pick filter 1 (0.02). Then conjunction {1,0} stays at
  // 0.02 while {1,2} drops to 0.001 -> filter 2 must precede filter 0.
  EXPECT_EQ(plan.scans[0].filter_order[0], 1);
  EXPECT_EQ(plan.scans[0].filter_order[1], 2);
  EXPECT_EQ(plan.scans[0].filter_order[2], 0);
}

// With a block latency attached, a scan whose blocks all fit in one
// read-ahead round reads in one stage however selective its filters: a
// multi-stage chain would wait once per stage with nothing to overlap. The
// column order is then never enumerated, so the conjunction's selectivity is
// the only probe. A scan longer than one round keeps the paper's threshold.
TEST(OptimizerTest, ShortScansOnLatencyBoundStorageReadInOneStage) {
  auto db = testutil::BuildToyDatabase();  // fact: 2000 rows, one block
  db->SetStorageBlockLatencyNanos(200000);
  const Table* fact = db->FindTable("fact").value();
  ASSERT_EQ(fact->num_blocks(), 1);
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 3));

  FakeEstimator estimator;
  estimator.column_selectivity = {{0, 0.01}, {1, 0.02}, {2, 0.03}};
  const PhysicalPlan plan = Optimizer().Plan(query, &estimator);
  EXPECT_EQ(plan.scans[0].reader, ReaderKind::kSingleStage);
  EXPECT_TRUE(plan.scans[0].filter_order.empty());
  EXPECT_EQ(estimator.selectivity_calls, 1);
  EXPECT_EQ(plan.estimation.estimator_calls, 1);

  auto long_db =
      testutil::BuildToyDatabase(kBlockRows * (kReadAheadBlocks + 1));
  long_db->SetStorageBlockLatencyNanos(200000);
  BoundQuery long_query;
  long_query.tables.push_back(MakeRef(long_db->FindTable("fact").value(), 3));
  FakeEstimator long_estimator;
  long_estimator.column_selectivity = estimator.column_selectivity;
  const PhysicalPlan long_plan = Optimizer().Plan(long_query, &long_estimator);
  EXPECT_EQ(long_plan.scans[0].reader, ReaderKind::kMultiStage);
  EXPECT_EQ(long_plan.scans[0].filter_order.size(), 3u);
  EXPECT_GT(long_estimator.selectivity_calls, 1);
}

// Planning through a QueryContext opens there the scans whose reader and
// dop need no estimate: without a block latency only the unfiltered one,
// with one the short filtered one too. Planning through the bare
// estimation scope opens nothing, planning again drops the first plan's
// scans, and a context dropped unexecuted takes its scans with it (ASan's
// leak check runs this suite).
TEST(OptimizerTest, PlanningThroughAQueryContextOpensScansThatNeedNoEstimate) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query;
  query.tables = {MakeRef(db->FindTable("fact").value(), 1),
                  MakeRef(db->FindTable("dim").value(), 0)};
  FakeEstimator estimator;
  const Optimizer optimizer;
  auto opened = [&](QueryContext* qctx) {
    std::vector<int> tables;
    for (const OpenedScan& scan : qctx->TakeOpenedScans()) {
      tables.push_back(static_cast<int>(scan.ref - query.tables.data()));
    }
    return tables;
  };

  QueryContext qctx(&estimator);
  optimizer.Plan(query, qctx.estimation());
  EXPECT_TRUE(opened(&qctx).empty());
  optimizer.Plan(query, &qctx);
  optimizer.Plan(query, &qctx);
  EXPECT_EQ(opened(&qctx), std::vector<int>{1});
  EXPECT_TRUE(opened(&qctx).empty());

  db->SetStorageBlockLatencyNanos(200000);
  {
    QueryContext unexecuted(&estimator);
    optimizer.Plan(query, &unexecuted);
  }
  optimizer.Plan(query, &qctx);
  EXPECT_EQ(opened(&qctx), (std::vector<int>{0, 1}));
}

TEST(OptimizerTest, EarlyStopLimitsEnumerationProbes) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 3));

  FakeEstimator expensive;
  expensive.column_selectivity = {{0, 0.01}, {1, 0.02}, {2, 0.03}};
  OptimizerOptions eager;
  eager.column_order_early_stop = 0.5;  // stop once prefix < 0.5
  Optimizer optimizer(eager);
  optimizer.Plan(query, &expensive);
  const int calls_with_early_stop = expensive.selectivity_calls;

  FakeEstimator exhaustive;
  exhaustive.column_selectivity = {{0, 0.01}, {1, 0.02}, {2, 0.03}};
  OptimizerOptions full;
  full.column_order_early_stop = 1e-12;
  Optimizer optimizer2(full);
  optimizer2.Plan(query, &exhaustive);
  EXPECT_LE(calls_with_early_stop, exhaustive.selectivity_calls);
}

TEST(OptimizerTest, JoinOrderStartsFromCheapestPair) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  const Table* dim = db->FindTable("dim").value();

  // Chain: t0 - t1 - t2 where (t1, t2) is the cheapest pair.
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 0));
  query.tables.push_back(MakeRef(dim, 0));
  query.tables.push_back(MakeRef(fact, 0));
  query.tables[2].alias = "fact2";
  query.joins = {{0, 0, 1, 0}, {1, 0, 2, 0}};

  FakeEstimator estimator;
  estimator.table_card = {{0, 1000.0}, {1, 10.0}, {2, 5.0}};
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  ASSERT_EQ(plan.join_order.size(), 3u);
  // Cheapest pair is (1, 2): 50 vs (0, 1): 10000.
  EXPECT_TRUE((plan.join_order[0] == 1 && plan.join_order[1] == 2) ||
              (plan.join_order[0] == 2 && plan.join_order[1] == 1));
  EXPECT_EQ(plan.join_order[2], 0);
}

TEST(OptimizerTest, NdvHintFromEstimator) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 0));
  query.group_by.push_back({0, 1});

  FakeEstimator estimator;
  estimator.table_card = {{0, 1000.0}};
  estimator.group_ndv = 42.0;
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_EQ(plan.group_ndv_hint, 42);
}

TEST(OptimizerTest, HintDisabledByOption) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 0));
  query.group_by.push_back({0, 1});

  FakeEstimator estimator;
  estimator.table_card = {{0, 1000.0}};
  OptimizerOptions options;
  options.use_ndv_hint = false;
  Optimizer optimizer(options);
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_EQ(plan.group_ndv_hint, 0);
}

TEST(OptimizerTest, MemoDedupsRepeatedSelectivityProbes) {
  // Column-order enumeration re-probes the same conjunctions many times.
  // With early-stop engaged from round 2 on, every later round re-asks the
  // single-filter selectivities already probed in round 1, and reader
  // selection already asked for the full conjunction. Pre-memo the planner
  // issued 1 (reader selection) + 4 + 3 + 2 + 1 (enumeration rounds) = 11
  // estimator probes for 4 filters; the memo collapses that to the 5 unique
  // questions.
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 4));

  FakeEstimator estimator;
  estimator.column_selectivity = {{0, 0.5}, {1, 0.5}, {2, 0.5}, {3, 0.5}};
  OptimizerOptions options;
  options.column_order_early_stop = 1.0;  // early-stop from round 2 onward
  Optimizer optimizer(options);
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);

  ASSERT_EQ(plan.scans[0].reader, ReaderKind::kMultiStage);
  EXPECT_EQ(estimator.selectivity_calls, 5);  // strictly fewer than seed's 11
  EXPECT_EQ(plan.estimation.estimator_calls, 5);
  EXPECT_EQ(plan.estimation.memo_hits, 6);
  // FakeEstimator is stateless: the default pin is a no-op alias at v0.
  EXPECT_EQ(plan.estimation.snapshot_version, 0u);
  EXPECT_EQ(plan.estimation.fallback_estimates, 0);
}

TEST(OptimizerTest, MemoDedupsJoinSubsetsOrderInsensitively) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  const Table* dim = db->FindTable("dim").value();

  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 0));
  query.tables.push_back(MakeRef(dim, 0));
  query.tables.push_back(MakeRef(fact, 0));
  query.tables[2].alias = "fact2";
  // Two edges between tables 0 and 1 — one written (0,1), one written
  // (1,0) — plus the chain edge to table 2. The pair cardinality is the
  // same question regardless of edge direction, so the seed pass asks the
  // model three times where the memo asks twice.
  query.joins = {{0, 0, 1, 0}, {1, 1, 0, 1}, {1, 0, 2, 0}};

  FakeEstimator estimator;
  estimator.table_card = {{0, 1000.0}, {1, 10.0}, {2, 5.0}};
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);

  // 2 unique pairs + 1 three-table extension probe.
  EXPECT_EQ(estimator.join_calls, 3);
  EXPECT_EQ(plan.estimation.memo_hits, 1);
  ASSERT_EQ(plan.join_order.size(), 3u);
  EXPECT_EQ(plan.join_order[2], 0);  // cheapest pair (1, 2) seeds the order
}

TEST(OptimizerTest, RecordsEstimationTime) {
  auto db = testutil::BuildToyDatabase();
  const Table* fact = db->FindTable("fact").value();
  BoundQuery query;
  query.tables.push_back(MakeRef(fact, 2));
  FakeEstimator estimator;
  estimator.column_selectivity = {{0, 0.1}, {1, 0.1}};
  Optimizer optimizer;
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_GE(plan.estimation.planning_nanos, 0);
}

}  // namespace
}  // namespace bytecard::minihouse
