// Parallel/serial equivalence: every operator must produce identical results
// (and scans identical IoStats) at any dop, and the optimizer must pick dop
// from estimates without extra estimator traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bloom.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "minihouse/reader.h"
#include "test_util.h"

namespace bytecard::minihouse {
namespace {

constexpr int64_t kFactRows = 30000;  // ~8 blocks at kBlockRows = 4096

ColumnPredicate Pred(int column, CompareOp op, int64_t operand) {
  ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  return pred;
}

// Runs the same scan at dop 1 and dop `dop` and requires bit-identical
// output and identical I/O accounting.
void ExpectScanEquivalent(const Table& table, const Conjunction& filters,
                          const std::vector<int>& out_cols, ScanOptions options,
                          int dop) {
  options.dop = 1;
  IoStats io_serial;
  const ScanResult serial = ScanTable(table, filters, out_cols, options,
                                      &io_serial);
  EXPECT_EQ(serial.dop_used, 1);
  EXPECT_EQ(serial.parallel_tasks, 0);

  options.dop = dop;
  IoStats io_parallel;
  const ScanResult parallel = ScanTable(table, filters, out_cols, options,
                                        &io_parallel);
  EXPECT_EQ(parallel.dop_used, dop);
  EXPECT_GT(parallel.parallel_tasks, 0);

  EXPECT_EQ(serial.row_ids, parallel.row_ids);
  ASSERT_EQ(serial.materialized.size(), parallel.materialized.size());
  for (size_t c = 0; c < serial.materialized.size(); ++c) {
    EXPECT_EQ(serial.materialized[c], parallel.materialized[c]) << "col " << c;
  }
  EXPECT_EQ(io_serial.blocks_read, io_parallel.blocks_read);
  EXPECT_EQ(io_serial.rows_scanned, io_parallel.rows_scanned);
}

TEST(ParallelScanTest, SingleStageMatchesSerial) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  const Table* fact = db->FindTable("fact").value();
  ScanOptions options;
  options.reader = ReaderKind::kSingleStage;
  ExpectScanEquivalent(*fact, {Pred(1, CompareOp::kGe, 25)}, {0, 2}, options,
                       4);
}

TEST(ParallelScanTest, MultiStageMatchesSerial) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  const Table* fact = db->FindTable("fact").value();
  ScanOptions options;
  options.reader = ReaderKind::kMultiStage;
  ExpectScanEquivalent(
      *fact, {Pred(2, CompareOp::kEq, 0), Pred(1, CompareOp::kLt, 5)}, {0},
      options, 4);
}

TEST(ParallelScanTest, MultiStageEmptyResultMatchesSerial) {
  // A predicate no row satisfies kills every block at stage one; the
  // materialization stage must not run, serially or in parallel.
  auto db = testutil::BuildToyDatabase(kFactRows);
  const Table* fact = db->FindTable("fact").value();
  ScanOptions options;
  options.reader = ReaderKind::kMultiStage;
  ExpectScanEquivalent(*fact, {Pred(1, CompareOp::kEq, 60)}, {0, 1}, options,
                       4);
}

TEST(ParallelScanTest, SipMatchesSerialOnBothReaders) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  const Table* fact = db->FindTable("fact").value();
  BloomFilter bloom(100);
  for (int64_t id = 0; id < 50; ++id) bloom.Add(id);
  for (ReaderKind reader : {ReaderKind::kSingleStage, ReaderKind::kMultiStage}) {
    ScanOptions options;
    options.reader = reader;
    options.sip.column = 0;  // fact.dim_id
    options.sip.bloom = &bloom;
    ExpectScanEquivalent(*fact, {Pred(1, CompareOp::kLt, 40)}, {0, 2}, options,
                         4);
  }
}

TEST(ParallelScanTest, DopBeyondBlockCountClampsAndStaysEquivalent) {
  auto db = testutil::BuildToyDatabase(5000);  // 2 blocks
  const Table* fact = db->FindTable("fact").value();
  ScanOptions options;
  options.dop = 64;
  IoStats io;
  const ScanResult r = ScanTable(*fact, {}, {1}, options, &io);
  EXPECT_EQ(r.dop_used, 2);  // clamped to the block count
  options.dop = 1;
  IoStats io1;
  const ScanResult r1 = ScanTable(*fact, {}, {1}, options, &io1);
  EXPECT_EQ(r.row_ids, r1.row_ids);
  EXPECT_EQ(r.materialized[0], r1.materialized[0]);
  EXPECT_EQ(io.blocks_read, io1.blocks_read);
}

// --- Join ------------------------------------------------------------------

Relation MakeRelation(std::vector<std::string> names,
                      std::vector<std::vector<int64_t>> cols) {
  Relation rel;
  rel.column_names = std::move(names);
  rel.columns = std::move(cols);
  return rel;
}

std::vector<std::vector<int64_t>> RelationRows(const Relation& rel) {
  std::vector<std::vector<int64_t>> rows(rel.num_rows());
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    for (const auto& col : rel.columns) rows[r].push_back(col[r]);
  }
  return rows;
}

TEST(ParallelJoinTest, FlatTableFindsAllDuplicateMatches) {
  // Duplicate keys on both sides; verified against a nested-loop oracle.
  const Relation left =
      MakeRelation({"l.k", "l.p"}, {{1, 2, 2, 3, 5, 2}, {10, 20, 21, 30, 50, 22}});
  const Relation right =
      MakeRelation({"r.k", "r.q"}, {{2, 2, 3, 4}, {200, 201, 300, 400}});

  auto joined = HashJoin(left, right, {0}, {0});
  ASSERT_TRUE(joined.ok());

  std::vector<std::vector<int64_t>> expected;
  for (int64_t lr = 0; lr < left.num_rows(); ++lr) {
    for (int64_t rr = 0; rr < right.num_rows(); ++rr) {
      if (left.columns[0][lr] == right.columns[0][rr]) {
        expected.push_back({left.columns[0][lr], left.columns[1][lr],
                            right.columns[0][rr], right.columns[1][rr]});
      }
    }
  }
  std::vector<std::vector<int64_t>> actual = RelationRows(joined.value());
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(ParallelJoinTest, ParallelProbeIdenticalToSerial) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  const Table* fact = db->FindTable("fact").value();
  const Table* dim = db->FindTable("dim").value();

  IoStats io;
  ScanOptions options;
  ScanResult fact_scan = ScanTable(*fact, {}, {0, 1}, options, &io);
  ScanResult dim_scan = ScanTable(*dim, {}, {0, 1}, options, &io);
  const Relation fact_rel = MakeRelation(
      {"fact.dim_id", "fact.value"}, std::move(fact_scan.materialized));
  const Relation dim_rel = MakeRelation({"dim.id", "dim.category"},
                                        std::move(dim_scan.materialized));

  JoinRunInfo serial_info;
  auto serial = HashJoin(fact_rel, dim_rel, {0}, {0}, 1, &serial_info);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial_info.dop_used, 1);
  EXPECT_EQ(serial_info.parallel_tasks, 0);

  for (int dop : {2, 4, 7}) {
    JoinRunInfo info;
    auto parallel = HashJoin(fact_rel, dim_rel, {0}, {0}, dop, &info);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(info.dop_used, dop);
    EXPECT_EQ(info.parallel_tasks, dop);
    EXPECT_EQ(parallel.value().column_names, serial.value().column_names);
    // Exact row order, not just set equality: partitions concatenate in
    // probe order and matches emit in ascending build-row order.
    EXPECT_EQ(parallel.value().columns, serial.value().columns) << dop;
  }
}

TEST(ParallelJoinTest, MultiKeyParallelProbeIdenticalToSerial) {
  const int64_t n = 20000;
  std::vector<int64_t> k1(n), k2(n), payload(n);
  for (int64_t i = 0; i < n; ++i) {
    k1[i] = i % 37;
    k2[i] = i % 11;
    payload[i] = i;
  }
  const Relation big = MakeRelation({"b.k1", "b.k2", "b.p"},
                                    {std::move(k1), std::move(k2),
                                     std::move(payload)});
  std::vector<int64_t> sk1, sk2;
  for (int64_t i = 0; i < 37; ++i) {
    sk1.push_back(i);
    sk2.push_back(i % 11);
  }
  const Relation small =
      MakeRelation({"s.k1", "s.k2"}, {std::move(sk1), std::move(sk2)});

  auto serial = HashJoin(big, small, {0, 1}, {0, 1}, 1);
  auto parallel = HashJoin(big, small, {0, 1}, {0, 1}, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_GT(serial.value().num_rows(), 0);
  EXPECT_EQ(parallel.value().columns, serial.value().columns);
}

// --- Aggregation -----------------------------------------------------------

// Wraps bare columns as a nameless Relation (aggregation input).
Relation AggInput(std::vector<std::vector<int64_t>> cols) {
  Relation rel;
  rel.columns = std::move(cols);
  return rel;
}

using GroupRow = std::pair<std::vector<int64_t>, std::vector<double>>;

std::vector<GroupRow> SortedGroups(const AggregateResult& agg) {
  std::vector<GroupRow> rows(agg.num_groups);
  for (int64_t g = 0; g < agg.num_groups; ++g) {
    for (const auto& key_col : agg.group_keys) rows[g].first.push_back(key_col[g]);
    for (const auto& val_col : agg.agg_values) rows[g].second.push_back(val_col[g]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ParallelAggregateTest, MultiKeyGroupByMatchesSerial) {
  const int64_t n = 50000;
  std::vector<std::vector<int64_t>> columns(3);
  for (int64_t i = 0; i < n; ++i) {
    columns[0].push_back(i % 23);        // key 1
    columns[1].push_back((i * 7) % 5);   // key 2
    columns[2].push_back(i % 101);       // measure
  }
  const std::vector<int> keys = {0, 1};
  const std::vector<AggRequest> aggs = {{AggFunc::kCountStar, -1},
                                        {AggFunc::kSum, 2},
                                        {AggFunc::kAvg, 2},
                                        {AggFunc::kCountDistinct, 2}};

  const AggregateResult serial = HashAggregate(AggInput(columns), keys, aggs, 0, 1);
  EXPECT_EQ(serial.dop_used, 1);
  EXPECT_EQ(serial.merge_groups, 0);

  for (int dop : {2, 4, 8}) {
    const AggregateResult parallel = HashAggregate(AggInput(columns), keys, aggs, 0, dop);
    EXPECT_EQ(parallel.dop_used, dop);
    EXPECT_EQ(parallel.num_groups, serial.num_groups);
    // Every partition saw every group here, so the merge folds dop * groups
    // partials.
    EXPECT_EQ(parallel.merge_groups, dop * serial.num_groups);
    // All accumulators are integer-valued (counts, integer sums), so the
    // parallel merge is exact, not approximately equal.
    EXPECT_EQ(SortedGroups(parallel), SortedGroups(serial)) << "dop " << dop;
  }
}

TEST(ParallelAggregateTest, NdvHintPresizesEveryPartition) {
  const int64_t n = 40000;
  std::vector<std::vector<int64_t>> columns(1);
  for (int64_t i = 0; i < n; ++i) columns[0].push_back(i % 1000);
  const std::vector<AggRequest> aggs = {{AggFunc::kCountStar, -1}};
  // With an accurate hint, neither the partials nor the merge table resize.
  const AggregateResult hinted = HashAggregate(AggInput(columns), {0}, aggs, 1000, 4);
  EXPECT_EQ(hinted.num_groups, 1000);
  EXPECT_EQ(hinted.resize_count, 0);
  // Without it, default-sized tables must grow in every partition.
  const AggregateResult unhinted = HashAggregate(AggInput(columns), {0}, aggs, 0, 4);
  EXPECT_EQ(unhinted.num_groups, 1000);
  EXPECT_GT(unhinted.resize_count, 0);
}

// --- End-to-end executor ---------------------------------------------------

PhysicalPlan ToyPlan(bool sip) {
  PhysicalPlan plan;
  plan.scans.resize(2);
  plan.join_order = {1, 0};  // dim first so SIP can prune the fact scan
  plan.join_dop.assign(2, 1);
  plan.features.sip = sip;
  return plan;
}

void ExpectExecEquivalent(const BoundQuery& query, bool sip) {
  PhysicalPlan serial_plan = ToyPlan(sip);
  auto serial = ExecuteQuery(query, serial_plan);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().stats.threads_used, 1);
  EXPECT_EQ(serial.value().stats.parallel_tasks, 0);

  PhysicalPlan parallel_plan = ToyPlan(sip);
  parallel_plan.scans[0].dop = 4;  // fact scan
  parallel_plan.join_dop[0] = 4;   // fact as probe side
  parallel_plan.agg_dop = 4;
  auto parallel = ExecuteQuery(query, parallel_plan);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel.value().stats.threads_used, 4);
  EXPECT_GT(parallel.value().stats.parallel_tasks, 0);

  EXPECT_EQ(SortedGroups(parallel.value().agg),
            SortedGroups(serial.value().agg));
  EXPECT_EQ(parallel.value().stats.io.blocks_read,
            serial.value().stats.io.blocks_read);
  EXPECT_EQ(parallel.value().stats.io.rows_scanned,
            serial.value().stats.io.rows_scanned);
  EXPECT_EQ(parallel.value().stats.intermediate_rows,
            serial.value().stats.intermediate_rows);
}

TEST(ParallelExecutorTest, JoinAggIdenticalAcrossDopsSipOff) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  BoundQuery query = testutil::ToyJoinQuery(*db);
  query.tables[0].filters = {Pred(1, CompareOp::kGe, 10)};
  query.group_by = {{0, 2}, {1, 1}};  // fact.bucket, dim.category
  query.aggs = {{AggFunc::kCountStar, -1, -1}, {AggFunc::kSum, 0, 1}};
  ExpectExecEquivalent(query, /*sip=*/false);
}

TEST(ParallelExecutorTest, JoinAggIdenticalAcrossDopsSipOn) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  BoundQuery query = testutil::ToyJoinQuery(*db);
  // Restrict dim so its Bloom filter actually prunes fact rows.
  query.tables[1].filters = {Pred(0, CompareOp::kLt, 30)};
  query.group_by = {{0, 2}, {1, 1}};
  query.aggs = {{AggFunc::kCountStar, -1, -1}, {AggFunc::kSum, 0, 1}};
  ExpectExecEquivalent(query, /*sip=*/true);
}

// --- Optimizer dop selection -----------------------------------------------

class StubEstimator : public CardinalityEstimator {
 public:
  std::string Name() const override { return "stub"; }
  double EstimateSelectivity(const Table&, const Conjunction&) override {
    ++selectivity_calls;
    return 0.5;
  }
  double EstimateJoinCardinality(const BoundQuery&,
                                 const std::vector<int>&) override {
    ++join_calls;
    return 15000.0;
  }
  double EstimateGroupNdv(const BoundQuery&) override { return 64.0; }

  int selectivity_calls = 0;
  int join_calls = 0;
};

BoundQuery StubJoinQuery(const Database& db) {
  BoundQuery query = testutil::ToyJoinQuery(db);
  // dim.id = fact.dim_id with dim on the left: the planned order starts at
  // dim, putting the big fact table on the probe side of the join step.
  query.joins = {{1, 0, 0, 0}};
  query.tables[0].filters = {Pred(1, CompareOp::kGe, 0)};
  return query;
}

TEST(ParallelOptimizerTest, SerialByDefaultAndTinyInputsStaySerial) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  const BoundQuery query = StubJoinQuery(*db);

  StubEstimator estimator;
  Optimizer optimizer;  // max_dop defaults to 1
  const PhysicalPlan plan = optimizer.Plan(query, &estimator);
  EXPECT_EQ(plan.scans[0].dop, 1);
  EXPECT_EQ(plan.scans[1].dop, 1);
  EXPECT_EQ(plan.agg_dop, 1);
  for (int d : plan.join_dop) EXPECT_EQ(d, 1);

  // Parallelism on: the 30k-row fact scan fans out, the 100-row dim scan
  // does not — dop follows the *estimated* work.
  StubEstimator estimator2;
  OptimizerOptions options;
  options.max_dop = 8;
  const PhysicalPlan par = Optimizer(options).Plan(query, &estimator2);
  // fact: 30000 * (1 + 0.5) / 8192 -> 5 drainers.
  EXPECT_EQ(par.scans[0].dop, 5);
  EXPECT_EQ(par.scans[1].dop, 1);
  // probe work: 15000 estimated probe rows + 15000 estimated output.
  ASSERT_EQ(par.join_dop.size(), 2u);
  EXPECT_EQ(par.join_dop[0], 3);
  // agg input 15000 < 2 morsels' worth of work -> serial.
  EXPECT_EQ(par.agg_dop, 1);
}

TEST(ParallelOptimizerTest, MaxDopCapsEveryOperator) {
  auto db = testutil::BuildToyDatabase(10 * kFactRows);
  const BoundQuery query = StubJoinQuery(*db);
  StubEstimator estimator;
  OptimizerOptions options;
  options.max_dop = 2;
  const PhysicalPlan plan = Optimizer(options).Plan(query, &estimator);
  EXPECT_EQ(plan.scans[0].dop, 2);
  for (int d : plan.join_dop) EXPECT_LE(d, 2);
  EXPECT_LE(plan.agg_dop, 2);
}

TEST(ParallelOptimizerTest, DopSelectionAddsNoEstimatorTraffic) {
  auto db = testutil::BuildToyDatabase(kFactRows);
  const BoundQuery query = StubJoinQuery(*db);

  StubEstimator serial_est;
  Optimizer serial_opt;
  const PhysicalPlan serial = serial_opt.Plan(query, &serial_est);

  StubEstimator parallel_est;
  OptimizerOptions options;
  options.max_dop = 8;
  const PhysicalPlan parallel = Optimizer(options).Plan(query, &parallel_est);

  // Dop selection reuses cardinalities the planner already priced: the
  // model sees exactly the same traffic either way.
  EXPECT_EQ(parallel_est.selectivity_calls, serial_est.selectivity_calls);
  EXPECT_EQ(parallel_est.join_calls, serial_est.join_calls);
  EXPECT_EQ(parallel.estimation.estimator_calls,
            serial.estimation.estimator_calls);
  EXPECT_EQ(parallel.estimation.memo_hits, serial.estimation.memo_hits);
}

}  // namespace
}  // namespace bytecard::minihouse
