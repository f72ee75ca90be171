// Physical operator DAG: compiled tree shape, required-column analysis, and
// late-projection identity (results, I/O, and estimator traffic must be
// unchanged by pruning at every dop, with and without SIP).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "minihouse/executor.h"
#include "minihouse/operators.h"
#include "test_util.h"

namespace bytecard::minihouse {
namespace {

using namespace std::chrono_literals;

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

// --- Opening scans early -----------------------------------------------------

// ExecuteQuery opens every serial scan before the tree runs, so the first
// reads of all three one-block scans are in flight together: the query waits
// about one read latency where scanning one table after another waits three.
TEST(OperatorDagTest, OpenedScansWaitOnceForAQuery) {
  auto db = BuildThreeTableDb();
  for (const char* name : {"fact", "dim", "item"}) {
    ASSERT_EQ(db->FindTable(name).value()->num_blocks(), 1) << name;
  }
  // One read latency L is the answer and two are a failure; the room between
  // them absorbs a sanitizer's fixed CPU cost.
  constexpr auto kLatency = 100ms;
  db->SetStorageBlockLatencyNanos(std::chrono::nanoseconds(kLatency).count());
  const BoundQuery query = ThreeTableQuery(*db);
  const Result<ExecResult> reference =
      ExecuteQuery(query, MakePlan(query, true, false, 1));
  ASSERT_TRUE(reference.ok());

  // SIP on: the dim and item probe scans may receive a Bloom filter, and
  // open early because they read in one stage.
  const auto start = std::chrono::steady_clock::now();
  const Result<ExecResult> result =
      ExecuteQuery(query, MakePlan(query, true, true, 1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedGroups(result.value().agg),
            SortedGroups(reference.value().agg));
  EXPECT_GE(elapsed, kLatency);
  EXPECT_LT(elapsed, 2 * kLatency);
}

// build(id 0..12287, tag = id % 10) and a five-block probe(pos = row,
// key = row * 7 % 24576, val = row % 13): half the probe keys find a build
// row, and pos is clustered, so a pos bound prunes whole blocks.
std::unique_ptr<Database> BuildProbeDb() {
  auto db = std::make_unique<Database>();
  auto build = std::make_unique<Table>(
      "build", TableSchema({{"id", DataType::kInt64},
                            {"tag", DataType::kInt64}}));
  for (int64_t i = 0; i < 3 * kBlockRows; ++i) {
    build->mutable_column(0)->AppendInt(i);
    build->mutable_column(1)->AppendInt(i % 10);
  }
  BC_CHECK_OK(build->Seal());
  BC_CHECK_OK(db->AddTable(std::move(build)));
  auto probe = std::make_unique<Table>(
      "probe", TableSchema({{"pos", DataType::kInt64},
                            {"key", DataType::kInt64},
                            {"val", DataType::kInt64}}));
  for (int64_t r = 0; r < 5 * kBlockRows; ++r) {
    probe->mutable_column(0)->AppendInt(r);
    probe->mutable_column(1)->AppendInt(r * 7 % (6 * kBlockRows));
    probe->mutable_column(2)->AppendInt(r % 13);
  }
  BC_CHECK_OK(probe->Seal());
  BC_CHECK_OK(db->AddTable(std::move(probe)));
  return db;
}

// build JOIN probe ON build.id = probe.key WHERE probe.pos < 12288 AND
// probe.val <= 9, GROUP BY build.tag, SUM(probe.val); `filter_build` adds
// build.tag = 0, which keeps 1229 of the 12288 build rows. Tables: 0 =
// build, 1 = probe.
BoundQuery ProbeQuery(const Database& db, bool filter_build) {
  BoundTableRef build;
  build.table = db.FindTable("build").value();
  build.alias = "build";
  if (filter_build) build.filters = {{1, "tag", CompareOp::kEq, 0, 0, {}}};
  BoundTableRef probe;
  probe.table = db.FindTable("probe").value();
  probe.alias = "probe";
  probe.filters = {{0, "pos", CompareOp::kLt, 3 * kBlockRows, 0, {}},
                   {2, "val", CompareOp::kLe, 9, 0, {}}};
  BoundQuery query;
  query.tables = {build, probe};
  query.joins = {{0, 0, 1, 1}};
  query.group_by = {{0, 1}};
  query.aggs = {{AggFunc::kSum, 1, 2}};
  return query;
}

void ExpectSameIo(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.blocks_pruned, b.blocks_pruned);
  EXPECT_EQ(a.encoded_blocks, b.encoded_blocks);
  EXPECT_EQ(a.decode_cache_hits, b.decode_cache_hits);
  EXPECT_EQ(a.decode_cache_evictions, b.decode_cache_evictions);
}

// An opened scan returns the rows and charges the IoStats a scan run
// through ScanTable when the tree reaches it does: both readers, SIP off,
// declined by the join's runtime size test (the whole build side) or armed
// (a filtered build side), zone-map pruning on and off. Under a SIP join a
// multi-stage probe is not opened (arming SIP on an opened multi-stage chain
// would fail its check); with SIP off it is, and the filtered build side
// opens with the plan's reader. Each run gets a fresh database, so both
// start from an empty decode cache.
TEST(OperatorDagTest, OpenedScansMatchScanTable) {
  const char* const kSipNames[] = {"off", "declined", "armed"};
  for (ReaderKind reader :
       {ReaderKind::kSingleStage, ReaderKind::kMultiStage}) {
    for (int sip : {0, 1, 2}) {
      for (bool prune : {false, true}) {
        SCOPED_TRACE(std::string(reader == ReaderKind::kSingleStage
                                     ? "single/sip "
                                     : "multi/sip ") +
                     kSipNames[sip] + (prune ? "/prune" : "/noprune"));
        const bool armed = sip == 2;
        struct Run {
          std::vector<GroupRow> groups;
          std::vector<OperatorStats> scans;
        };
        auto run = [&](bool open) {
          auto db = BuildProbeDb();
          const BoundQuery query = ProbeQuery(*db, armed);
          PhysicalPlan plan = MakePlan(query, true, sip > 0, 1);
          plan.join_order = {0, 1};
          for (TableScanPlan& scan : plan.scans) scan.reader = reader;
          plan.scans[1].filter_order = {1, 0};
          plan.features.prune_blocks = prune;
          QueryContext qctx;
          Result<CompiledDag> dag = CompileOperatorDag(query, plan, &qctx);
          BC_CHECK_OK(dag.status());
          if (open) {
            for (ScanOp* scan : dag.value().scans) scan->Open();
          }
          BC_CHECK_OK(dag.value().root->Execute().status());
          Run out;
          out.groups = SortedGroups(dag.value().root->TakeResult());
          for (ScanOp* scan : dag.value().scans) {
            out.scans.push_back(scan->stats());
          }
          return out;
        };
        const Run opened = run(true);
        const Run reference = run(false);
        EXPECT_EQ(opened.groups, reference.groups);
        EXPECT_FALSE(reference.groups.empty());
        ASSERT_EQ(opened.scans.size(), 2u);
        EXPECT_EQ(reference.scans[1].sip_filtered, armed);
        EXPECT_EQ(reference.scans[1].io.blocks_pruned > 0, prune);
        for (size_t i = 0; i < opened.scans.size(); ++i) {
          EXPECT_EQ(opened.scans[i].rows_out, reference.scans[i].rows_out);
          EXPECT_EQ(opened.scans[i].sip_filtered,
                    reference.scans[i].sip_filtered);
          ExpectSameIo(opened.scans[i].io, reference.scans[i].io);
        }
      }
    }
  }
}

// Opened serial scans wait beside a dop-2 scan whose morsels run on pool
// drainers: dim opens, fact's three blocks split across two drainers while
// item's opened reads are still pending, and the groups and block reads
// equal a serial run's.
TEST(OperatorDagTest, OpenedScansRunBesidePoolDrainers) {
  auto db = BuildThreeTableDb(3 * kBlockRows);
  db->SetStorageBlockLatencyNanos(std::chrono::nanoseconds(200us).count());
  const BoundQuery query = ThreeTableQuery(*db);
  PhysicalPlan serial = MakePlan(query, true, true, 1);
  serial.join_order = {1, 0, 2};
  PhysicalPlan mixed = serial;
  mixed.scans[0].dop = 2;  // fact
  const Result<ExecResult> expected = ExecuteQuery(query, serial);
  ASSERT_TRUE(expected.ok());
  for (int repeat = 0; repeat < 4; ++repeat) {
    const Result<ExecResult> result = ExecuteQuery(query, mixed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SortedGroups(result.value().agg),
              SortedGroups(expected.value().agg));
    EXPECT_EQ(result.value().stats.io.blocks_read,
              expected.value().stats.io.blocks_read);
    EXPECT_EQ(result.value().stats.threads_used, 2);
  }
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

// --- Reading while planning --------------------------------------------------

// A CountingEstimator whose every answer takes `nap`.
class SleepingEstimator : public CountingEstimator {
 public:
  explicit SleepingEstimator(std::chrono::nanoseconds nap) : nap_(nap) {}
  double EstimateSelectivity(const Table& table,
                             const Conjunction& filters) override {
    std::this_thread::sleep_for(nap_);
    return CountingEstimator::EstimateSelectivity(table, filters);
  }
  double EstimateJoinCardinality(const BoundQuery& query,
                                 const std::vector<int>& subset) override {
    std::this_thread::sleep_for(nap_);
    return CountingEstimator::EstimateJoinCardinality(query, subset);
  }
  double EstimateGroupNdv(const BoundQuery& query) override {
    std::this_thread::sleep_for(nap_);
    return CountingEstimator::EstimateGroupNdv(query);
  }

 private:
  std::chrono::nanoseconds nap_;
};

// SELECT SUM(dim.id) FROM dim WHERE dim.category <= 2: one filtered
// one-block table, and a plan that asks one estimate.
BoundQuery FilteredDimQuery(const Database& db) {
  BoundTableRef dim;
  dim.table = db.FindTable("dim").value();
  dim.alias = "dim";
  dim.filters = {{1, "category", CompareOp::kLe, 2, 0, {}}};
  BoundQuery query;
  query.tables = {dim};
  query.aggs = {{AggFunc::kSum, 0, 0}};
  return query;
}

// A short filtered scan's reader and dop need no estimate, so planning
// through a QueryContext opens it before its estimate: the read and the
// estimate wait together, and plan plus execute take about one latency L
// where opening at execution takes two.
TEST(OperatorDagTest, ScansOpenedWhilePlanningOverlapEstimation) {
  auto db = BuildThreeTableDb();
  constexpr auto kLatency = 100ms;
  db->SetStorageBlockLatencyNanos(std::chrono::nanoseconds(kLatency).count());
  const BoundQuery query = FilteredDimQuery(*db);
  ASSERT_EQ(query.tables[0].table->num_blocks(), 1);
  const Result<ExecResult> reference =
      ExecuteQuery(query, MakePlan(query, true, true, 1));
  ASSERT_TRUE(reference.ok());

  SleepingEstimator estimator(kLatency);
  const auto start = std::chrono::steady_clock::now();
  QueryContext qctx(&estimator);
  const PhysicalPlan plan = Optimizer().Plan(query, &qctx);
  const Result<ExecResult> result = ExecuteQuery(query, plan, &qctx);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(estimator.calls, 1);
  EXPECT_EQ(SortedGroups(result.value().agg),
            SortedGroups(reference.value().agg));
  EXPECT_GE(elapsed, kLatency);
  EXPECT_LT(elapsed, 2 * kLatency);
}

// The build side's blocks: enough that its rows past the first block are
// at least half of a probe of kReadAheadBlocks + 1 blocks, so that the
// join's runtime size test declines SIP against every probe, and few enough
// to open while planning at max_dop 1 (three at a depth of 3).
constexpr int64_t kPlanningBuildBlocks = kReadAheadBlocks / 2 + 2;

// build(id 0..kPlanningBuildBlocks * kBlockRows - 1, tag = id % 10) and a
// probe of `probe_blocks` blocks (key = row * 7 % twice the build's rows,
// val = row % 13): about half the probe keys find a build row, and build.id
// is clustered, so a bound on it prunes whole blocks.
std::unique_ptr<Database> BuildPlanningDb(int64_t probe_blocks) {
  auto db = std::make_unique<Database>();
  auto build = std::make_unique<Table>(
      "build", TableSchema({{"id", DataType::kInt64},
                            {"tag", DataType::kInt64}}));
  for (int64_t i = 0; i < kPlanningBuildBlocks * kBlockRows; ++i) {
    build->mutable_column(0)->AppendInt(i);
    build->mutable_column(1)->AppendInt(i % 10);
  }
  BC_CHECK_OK(build->Seal());
  BC_CHECK_OK(db->AddTable(std::move(build)));
  auto probe = std::make_unique<Table>(
      "probe", TableSchema({{"key", DataType::kInt64},
                            {"val", DataType::kInt64}}));
  for (int64_t r = 0; r < probe_blocks * kBlockRows; ++r) {
    probe->mutable_column(0)->AppendInt(
        r * 7 % (2 * kPlanningBuildBlocks * kBlockRows));
    probe->mutable_column(1)->AppendInt(r % 13);
  }
  BC_CHECK_OK(probe->Seal());
  BC_CHECK_OK(db->AddTable(std::move(probe)));
  db->SetStorageBlockLatencyNanos(std::chrono::nanoseconds(200us).count());
  return db;
}

// build JOIN probe ON build.id = probe.key WHERE build.id >= 4096 AND
// probe.val <= 9, GROUP BY build.tag, SUM(probe.val); `armed` adds
// build.id < 8192 AND build.tag = 0, which keeps a build side small enough
// for the join to arm SIP against any probe. Tables: 0 = build, 1 = probe.
BoundQuery PlanningQuery(const Database& db, bool armed) {
  BoundTableRef build;
  build.table = db.FindTable("build").value();
  build.alias = "build";
  build.filters = {{0, "id", CompareOp::kGe, kBlockRows, 0, {}}};
  if (armed) {
    build.filters.push_back({0, "id", CompareOp::kLt, 2 * kBlockRows, 0, {}});
    build.filters.push_back({1, "tag", CompareOp::kEq, 0, 0, {}});
  }
  BoundTableRef probe;
  probe.table = db.FindTable("probe").value();
  probe.alias = "probe";
  probe.filters = {{1, "val", CompareOp::kLe, 9, 0, {}}};
  BoundQuery query;
  query.tables = {build, probe};
  query.joins = {{0, 0, 1, 0}};
  query.group_by = {{0, 1}};
  query.aggs = {{AggFunc::kSum, 1, 1}};
  return query;
}

// A scan opened while planning returns the rows and charges the IoStats of
// the same plan's scan opened at execution: SIP off, declined (the join's
// runtime size test) or armed; zone-map pruning on and off; a probe of one,
// kReadAheadBlocks or kReadAheadBlocks + 1 blocks; max_dop 1 and 2. What
// opens is exactly what the rule allows: at max_dop 1 the build side of
// kPlanningBuildBlocks, pruned or not, and a probe of at most
// kReadAheadBlocks blocks (one more needs an estimate to pick a reader); at
// max_dop 2 only the one-block probe, as the others could run at dop 2.
// Each run gets a fresh database, so both start from an empty decode cache.
TEST(OperatorDagTest, ScansOpenedWhilePlanningMatchScansOpenedAtExecution) {
  const char* const kSipNames[] = {"off", "declined", "armed"};
  for (int64_t probe_blocks : {1, kReadAheadBlocks, kReadAheadBlocks + 1}) {
    for (int max_dop : {1, 2}) {
      for (int sip : {0, 1, 2}) {
        for (bool prune : {false, true}) {
          SCOPED_TRACE(std::to_string(probe_blocks) + " probe blocks/dop " +
                       std::to_string(max_dop) + "/sip " + kSipNames[sip] +
                       (prune ? "/prune" : "/noprune"));
          const bool armed = sip == 2;
          struct Run {
            std::vector<int> opened;  // tables opened while planning
            std::vector<GroupRow> groups;
            std::vector<OperatorStats> scans;
          };
          auto run = [&](bool take_over) {
            auto db = BuildPlanningDb(probe_blocks);
            const BoundQuery query = PlanningQuery(*db, armed);
            OptimizerOptions options;
            options.max_dop = max_dop;
            options.features.sip = sip > 0;
            options.features.prune_blocks = prune;
            CountingEstimator estimator;
            QueryContext qctx(&estimator);
            const PhysicalPlan plan = Optimizer(options).Plan(query, &qctx);
            std::vector<OpenedScan> opened = qctx.TakeOpenedScans();
            Run out;
            for (const OpenedScan& scan : opened) {
              out.opened.push_back(
                  static_cast<int>(scan.ref - query.tables.data()));
            }
            if (!take_over) opened.clear();
            Result<CompiledDag> dag = CompileOperatorDag(query, plan, &qctx);
            BC_CHECK_OK(dag.status());
            for (ScanOp* scan : dag.value().scans) scan->Open(&opened);
            BC_CHECK_OK(dag.value().root->Execute().status());
            out.groups = SortedGroups(dag.value().root->TakeResult());
            for (ScanOp* scan : dag.value().scans) {
              out.scans.push_back(scan->stats());
            }
            return out;
          };
          const Run early = run(true);
          const Run reference = run(false);
          std::vector<int> expected_opened;
          if (max_dop == 1) expected_opened.push_back(0);
          if (probe_blocks == 1 ||
              (max_dop == 1 && probe_blocks <= kReadAheadBlocks)) {
            expected_opened.push_back(1);
          }
          EXPECT_EQ(early.opened, expected_opened);
          EXPECT_EQ(early.groups, reference.groups);
          EXPECT_FALSE(reference.groups.empty());
          ASSERT_EQ(early.scans.size(), 2u);
          ASSERT_EQ(reference.scans.size(), 2u);
          for (size_t i = 0; i < early.scans.size(); ++i) {
            EXPECT_EQ(early.scans[i].rows_out, reference.scans[i].rows_out);
            EXPECT_EQ(early.scans[i].sip_filtered,
                      reference.scans[i].sip_filtered);
            ExpectSameIo(early.scans[i].io, reference.scans[i].io);
            EXPECT_EQ(early.scans[i].io.blocks_pruned > 0, prune && i == 0);
          }
          EXPECT_EQ(reference.scans[1].sip_filtered, armed);
        }
      }
    }
  }
}

// SELECT fact.bucket, SUM(fact.value) FROM fact WHERE fact.value <= 24
// GROUP BY fact.bucket. Table 0 = fact.
BoundQuery FilteredFactQuery(const Database& db) {
  BoundTableRef fact;
  fact.table = db.FindTable("fact").value();
  fact.alias = "fact";
  fact.filters = {{1, "value", CompareOp::kLe, 24, 0, {}}};
  BoundQuery query;
  query.tables = {fact};
  query.group_by = {{0, 2}};
  query.aggs = {{AggFunc::kSum, 0, 1}};
  return query;
}

// A plan is a value its caller may edit before executing it: a scan opened
// while planning whose plan became multi-stage or dop 2 is dropped, and the
// scan runs as a fresh open of the edited plan does, with its reads,
// stages and drainers.
TEST(OperatorDagTest, EditedPlanDropsTheScanOpenedWhilePlanning) {
  for (bool multi_stage : {true, false}) {
    SCOPED_TRACE(multi_stage ? "multi-stage" : "dop 2");
    auto run = [&](bool planned_here) {
      auto db = BuildThreeTableDb(3 * kBlockRows);
      db->SetStorageBlockLatencyNanos(std::chrono::nanoseconds(200us).count());
      const BoundQuery query = FilteredFactQuery(*db);
      CountingEstimator estimator;
      QueryContext qctx(&estimator);
      PhysicalPlan plan = Optimizer().Plan(query, &qctx);
      if (multi_stage) {
        plan.scans[0].reader = ReaderKind::kMultiStage;
      } else {
        plan.scans[0].dop = 2;
      }
      Result<ExecResult> result = planned_here
                                      ? ExecuteQuery(query, plan, &qctx)
                                      : ExecuteQuery(query, plan);
      BC_CHECK_OK(result.status());
      return std::move(result).value();
    };
    const ExecResult edited = run(true);
    const ExecResult reference = run(false);
    EXPECT_EQ(SortedGroups(edited.agg), SortedGroups(reference.agg));
    EXPECT_GT(reference.agg.num_groups, 0);
    ExpectSameIo(edited.stats.io, reference.stats.io);
    EXPECT_EQ(edited.stats.threads_used, reference.stats.threads_used);
    EXPECT_EQ(edited.stats.parallel_tasks, reference.stats.parallel_tasks);
    EXPECT_EQ(reference.stats.threads_used, multi_stage ? 1 : 2);
  }
}

}  // namespace
}  // namespace bytecard::minihouse
