// Physical operator DAG: compiled tree shape, required-column analysis, and
// late-projection identity (results, I/O, and estimator traffic must be
// unchanged by pruning at every dop, with and without SIP).

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "minihouse/executor.h"
#include "minihouse/operators.h"
#include "test_util.h"

namespace bytecard::minihouse {
namespace {

// Three-table star: dim and item both join fact.
//   dim(id 0..99, category = id % 5, flag)
//   item(id 0..39, price_band = id % 4)
//   fact(dim_id, value = row % 50, bucket = value / 10)
std::unique_ptr<Database> BuildThreeTableDb(int64_t fact_rows = 4000) {
  auto db = testutil::BuildToyDatabase(fact_rows);
  TableSchema schema(
      {{"id", DataType::kInt64}, {"price_band", DataType::kInt64}});
  auto item = std::make_unique<Table>("item", schema);
  for (int64_t i = 0; i < 40; ++i) {
    item->mutable_column(0)->AppendInt(i);
    item->mutable_column(1)->AppendInt(i % 4);
  }
  BC_CHECK_OK(item->Seal());
  BC_CHECK_OK(db->AddTable(std::move(item)));
  return db;
}

// fact JOIN dim ON fact.dim_id = dim.id JOIN item ON fact.bucket = item.id,
// GROUP BY dim.category, SUM(fact.value). Tables: 0 = fact, 1 = dim,
// 2 = item. fact.bucket (0..4) always matches an item id, so the second join
// preserves cardinality.
BoundQuery ThreeTableQuery(const Database& db) {
  BoundQuery query;
  BoundTableRef fact;
  fact.table = db.FindTable("fact").value();
  fact.alias = "fact";
  BoundTableRef dim;
  dim.table = db.FindTable("dim").value();
  dim.alias = "dim";
  BoundTableRef item;
  item.table = db.FindTable("item").value();
  item.alias = "item";
  query.tables = {fact, dim, item};
  query.joins = {{0, 0, 1, 0},   // fact.dim_id = dim.id
                 {0, 2, 2, 0}};  // fact.bucket = item.id
  query.group_by = {{1, 1}};     // dim.category
  query.aggs = {{AggFunc::kSum, 0, 1}};  // SUM(fact.value)
  return query;
}

PhysicalPlan MakePlan(const BoundQuery& query, bool prune, bool sip, int dop) {
  PhysicalPlan plan;
  plan.scans.resize(query.tables.size());
  for (TableScanPlan& scan : plan.scans) scan.dop = dop;
  plan.join_dop.assign(query.tables.size(), dop);
  plan.agg_dop = dop;
  plan.features.prune_columns = prune;
  plan.features.sip = sip;
  return plan;
}

using GroupRow = std::pair<std::vector<int64_t>, std::vector<double>>;

// Group-key-sorted rows: parallel aggregation may emit groups in a different
// order, values are identical.
std::vector<GroupRow> SortedGroups(const AggregateResult& agg) {
  std::vector<GroupRow> rows(agg.num_groups);
  for (int64_t g = 0; g < agg.num_groups; ++g) {
    for (const auto& key_col : agg.group_keys) rows[g].first.push_back(key_col[g]);
    for (const auto& val_col : agg.agg_values) rows[g].second.push_back(val_col[g]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool Contains(const std::vector<ColumnId>& ids, ColumnId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// --- Required-column analysis ------------------------------------------------

TEST(RequiredColumnsTest, ScanColumnsCoverKeysGroupsAndAggs) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);
  // fact: both join keys + the SUM input; never the unused column.
  EXPECT_EQ(RequiredScanColumns(query, 0), (std::vector<int>{0, 1, 2}));
  // dim: join key + group key, not flag.
  EXPECT_EQ(RequiredScanColumns(query, 1), (std::vector<int>{0, 1}));
  // item: join key only.
  EXPECT_EQ(RequiredScanColumns(query, 2), (std::vector<int>{0}));
}

TEST(RequiredColumnsTest, JoinKeysDieAtTheirConsumingStep) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);
  const std::vector<std::vector<ColumnId>> keep =
      RequiredColumnsAfterJoin(query, {0, 1, 2});
  ASSERT_EQ(keep.size(), 2u);

  // After fact JOIN dim: the dim edge is consumed — its keys die; the item
  // edge is still pending — fact.bucket survives; group key and agg input
  // survive to the end.
  EXPECT_FALSE(Contains(keep[0], ColumnId{0, 0}));  // fact.dim_id
  EXPECT_FALSE(Contains(keep[0], ColumnId{1, 0}));  // dim.id
  EXPECT_TRUE(Contains(keep[0], ColumnId{0, 2}));   // fact.bucket
  EXPECT_TRUE(Contains(keep[0], ColumnId{0, 1}));   // fact.value
  EXPECT_TRUE(Contains(keep[0], ColumnId{1, 1}));   // dim.category

  // After the item join only the aggregation's inputs remain; item.id is
  // outside the set even though item just joined.
  EXPECT_FALSE(Contains(keep[1], ColumnId{0, 2}));
  EXPECT_FALSE(Contains(keep[1], ColumnId{2, 0}));
  EXPECT_TRUE(Contains(keep[1], ColumnId{0, 1}));
  EXPECT_TRUE(Contains(keep[1], ColumnId{1, 1}));
}

// --- Compiled tree shape -----------------------------------------------------

TEST(OperatorDagTest, CompilesProjectionsAtColumnDeathPoints) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);
  QueryContext qctx;
  Result<CompiledDag> dag =
      CompileOperatorDag(query, MakePlan(query, /*prune=*/true,
                                         /*sip=*/true, /*dop=*/1),
                         &qctx);
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();

  // Aggregate -> Project -> HashJoin -> {Project -> HashJoin -> {Scan, Scan},
  // Scan}: one projection after each join step.
  const PhysicalOperator* root = dag.value().root.get();
  ASSERT_EQ(root->kind(), OpKind::kAggregate);
  // Output identity of the root: the group key.
  ASSERT_EQ(root->output_columns().size(), 1u);
  EXPECT_EQ(root->output_columns()[0], (ColumnId{1, 1}));

  const PhysicalOperator* proj2 = root->child(0);
  ASSERT_EQ(proj2->kind(), OpKind::kProject);
  EXPECT_EQ(proj2->output_columns().size(), 2u);  // fact.value, dim.category

  const PhysicalOperator* join2 = proj2->child(0);
  ASSERT_EQ(join2->kind(), OpKind::kHashJoin);
  ASSERT_EQ(join2->num_children(), 2u);
  EXPECT_EQ(join2->child(1)->kind(), OpKind::kScan);

  const PhysicalOperator* proj1 = join2->child(0);
  ASSERT_EQ(proj1->kind(), OpKind::kProject);
  EXPECT_EQ(proj1->output_columns().size(), 3u);

  const PhysicalOperator* join1 = proj1->child(0);
  ASSERT_EQ(join1->kind(), OpKind::kHashJoin);
  EXPECT_EQ(join1->child(0)->kind(), OpKind::kScan);
  EXPECT_EQ(join1->child(1)->kind(), OpKind::kScan);
}

TEST(OperatorDagTest, NoProjectionsWhenPruningDisabled) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);
  QueryContext qctx;
  Result<CompiledDag> dag =
      CompileOperatorDag(query, MakePlan(query, /*prune=*/false,
                                         /*sip=*/true, /*dop=*/1),
                         &qctx);
  ASSERT_TRUE(dag.ok());
  const PhysicalOperator* op = dag.value().root.get();
  while (op != nullptr) {
    EXPECT_NE(op->kind(), OpKind::kProject);
    op = op->child(0);
  }
}

TEST(OperatorDagTest, RejectsDisconnectedJoinGraph) {
  auto db = BuildThreeTableDb();
  BoundQuery query = ThreeTableQuery(*db);
  query.joins.pop_back();  // item no longer reachable
  QueryContext qctx;
  Result<CompiledDag> dag =
      CompileOperatorDag(query, MakePlan(query, true, true, 1), &qctx);
  ASSERT_FALSE(dag.ok());
  EXPECT_EQ(dag.status().code(), StatusCode::kInvalidArgument);
}

// --- Identity under pruning --------------------------------------------------

TEST(OperatorDagTest, PruningPreservesResultsIoAndRowsAtEveryDop) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);

  // Serial unpruned execution is the reference for everything else.
  Result<ExecResult> reference =
      ExecuteQuery(query, MakePlan(query, false, false, 1));
  ASSERT_TRUE(reference.ok());
  const std::vector<GroupRow> expected = SortedGroups(reference.value().agg);

  for (bool sip : {false, true}) {
    for (int dop : {1, 2, 4, 8}) {
      Result<ExecResult> unpruned =
          ExecuteQuery(query, MakePlan(query, false, sip, dop));
      Result<ExecResult> pruned =
          ExecuteQuery(query, MakePlan(query, true, sip, dop));
      ASSERT_TRUE(unpruned.ok());
      ASSERT_TRUE(pruned.ok());
      const ExecStats& us = unpruned.value().stats;
      const ExecStats& ps = pruned.value().stats;

      EXPECT_EQ(SortedGroups(pruned.value().agg), expected)
          << "sip " << sip << " dop " << dop;
      EXPECT_EQ(SortedGroups(unpruned.value().agg), expected)
          << "sip " << sip << " dop " << dop;

      // Pruning happens strictly after scan I/O and never changes join
      // inputs' row counts.
      EXPECT_EQ(ps.io.blocks_read, us.io.blocks_read);
      EXPECT_EQ(ps.io.rows_scanned, us.io.rows_scanned);
      EXPECT_EQ(ps.intermediate_rows, us.intermediate_rows);
      EXPECT_EQ(ps.probe_rows_materialized, us.probe_rows_materialized);

      // What pruning does change: the width of what flows between operators.
      EXPECT_LT(ps.intermediate_values, us.intermediate_values);
      EXPECT_LE(ps.peak_intermediate_values, us.peak_intermediate_values);
      EXPECT_GT(ps.columns_pruned, 0);
      EXPECT_EQ(us.columns_pruned, 0);
    }
  }
}

TEST(OperatorDagTest, SipStillPrunesProbeRowsUnderProjection) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);
  // dim first: the 100-row build side is far below fact's rows, so the
  // fact-probe scan receives a Bloom filter. dim.id covers only 0..99 of
  // fact.dim_id's domain; every fact row matches, so SIP must not change the
  // result — only (potentially) probe-side materialization.
  PhysicalPlan sip_on = MakePlan(query, true, true, 4);
  sip_on.join_order = {1, 0, 2};
  PhysicalPlan sip_off = MakePlan(query, true, false, 4);
  sip_off.join_order = {1, 0, 2};

  Result<ExecResult> with = ExecuteQuery(query, sip_on);
  Result<ExecResult> without = ExecuteQuery(query, sip_off);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(SortedGroups(with.value().agg), SortedGroups(without.value().agg));
  EXPECT_LE(with.value().stats.probe_rows_materialized,
            without.value().stats.probe_rows_materialized);
}

// --- Zero-payload joins ------------------------------------------------------

// Regression for the executor's old "$rowid" hack: a COUNT(*) join query
// whose columns are all join keys projects down to a zero-column relation
// between the last join and the aggregation. The row count must ride on the
// Relation itself, not on a smuggled dummy column.
TEST(OperatorDagTest, CountStarJoinWithNoPayloadColumns) {
  auto db = testutil::BuildToyDatabase();
  const BoundQuery query = testutil::ToyJoinQuery(*db);  // COUNT(*) only
  const int64_t fact_rows = db->FindTable("fact").value()->num_rows();

  for (int dop : {1, 4}) {
    Result<ExecResult> pruned =
        ExecuteQuery(query, MakePlan(query, true, true, dop));
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    // Every fact row matches exactly one dim row.
    EXPECT_EQ(pruned.value().ScalarCount(), fact_rows);
    // Both join keys were dropped before aggregation.
    EXPECT_EQ(pruned.value().stats.columns_pruned, 2);

    Result<ExecResult> unpruned =
        ExecuteQuery(query, MakePlan(query, false, true, dop));
    ASSERT_TRUE(unpruned.ok());
    EXPECT_EQ(unpruned.value().ScalarCount(), fact_rows);
  }
}

// A single-table COUNT(*) scans zero payload columns end to end.
TEST(OperatorDagTest, CountStarSingleTableScansNoColumns) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query;
  BoundTableRef ref;
  ref.table = db->FindTable("fact").value();
  ref.alias = "fact";
  query.tables.push_back(ref);
  query.aggs.push_back({AggFunc::kCountStar, -1, -1});

  Result<ExecResult> result =
      ExecuteQuery(query, MakePlan(query, true, true, 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().ScalarCount(),
            db->FindTable("fact").value()->num_rows());
}

// --- Estimator traffic -------------------------------------------------------

class CountingEstimator : public CardinalityEstimator {
 public:
  std::string Name() const override { return "counting"; }
  double EstimateSelectivity(const Table&, const Conjunction&) override {
    ++calls;
    return 0.5;
  }
  double EstimateJoinCardinality(const BoundQuery&,
                                 const std::vector<int>& subset) override {
    ++calls;
    return 100.0 * static_cast<double>(subset.size());
  }
  double EstimateGroupNdv(const BoundQuery&) override {
    ++calls;
    return 5.0;
  }
  int64_t calls = 0;
};

// Required-column analysis is purely structural: enabling pruning costs zero
// extra estimator traffic at plan time and none at execution time.
TEST(OperatorDagTest, PruningCostsNoEstimatorCalls) {
  auto db = BuildThreeTableDb();
  const BoundQuery query = ThreeTableQuery(*db);

  OptimizerOptions with_prune;
  with_prune.features.prune_columns = true;
  OptimizerOptions without_prune;
  without_prune.features.prune_columns = false;

  CountingEstimator est1;
  const PhysicalPlan plan1 = Optimizer(with_prune).Plan(query, &est1);
  CountingEstimator est2;
  const PhysicalPlan plan2 = Optimizer(without_prune).Plan(query, &est2);
  EXPECT_EQ(est1.calls, est2.calls);
  EXPECT_EQ(plan1.estimation.estimator_calls, plan2.estimation.estimator_calls);

  // Execution makes no estimator calls at all.
  const int64_t before = est1.calls;
  Result<ExecResult> result = ExecuteQuery(query, plan1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(est1.calls, before);
}

}  // namespace
}  // namespace bytecard::minihouse
