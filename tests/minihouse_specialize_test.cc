// Estimate-driven operator specialization (DESIGN.md §11): per-column domain
// stats, the dense-array aggregate and array-index join kernels with their
// runtime mis-specialization guards, the tight-loop predicate kernels, the
// specialized-vs-generic identity property, and the feedback veto that stops
// a mis-specialized subplan from specializing again.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bytecard/feedback/feedback_manager.h"
#include "minihouse/aggregate.h"
#include "minihouse/column.h"
#include "minihouse/executor.h"
#include "minihouse/feedback.h"
#include "minihouse/hash_table.h"
#include "minihouse/join.h"
#include "minihouse/optimizer.h"
#include "minihouse/predicate.h"
#include "minihouse/query_context.h"
#include "minihouse/table.h"
#include "test_util.h"

namespace bytecard {
namespace {

using minihouse::AggFunc;
using minihouse::AggregateResult;
using minihouse::AggregationHashTable;
using minihouse::AggRequest;
using minihouse::ArrayJoinSpec;
using minihouse::BoundQuery;
using minihouse::BoundTableRef;
using minihouse::Column;
using minihouse::ColumnDomain;
using minihouse::ColumnPredicate;
using minihouse::CompareOp;
using minihouse::DataType;
using minihouse::DenseAggSpec;
using minihouse::DenseKeyIndex;
using minihouse::ExecStats;
using minihouse::HashAggregate;
using minihouse::HashJoin;
using minihouse::JoinRunInfo;
using minihouse::Relation;
using minihouse::Table;
using minihouse::TableSchema;

constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();

// --- Column domain stats (maintained at Seal) --------------------------------

TEST(ColumnDomainTest, SealComputesMinMax) {
  TableSchema schema({{"v", DataType::kInt64}});
  Table t("t", schema);
  for (int64_t v : {7, -3, 0, 42, -3, 11}) t.mutable_column(0)->AppendInt(v);
  ASSERT_TRUE(t.Seal().ok());
  const ColumnDomain& d = t.domain(0);
  EXPECT_TRUE(d.valid);
  EXPECT_EQ(d.min, -3);
  EXPECT_EQ(d.max, 42);
  EXPECT_EQ(d.Width(), 46);
  EXPECT_TRUE(d.Contains(0));
  EXPECT_FALSE(d.Contains(43));
  EXPECT_FALSE(d.Contains(-4));
}

TEST(ColumnDomainTest, EmptyColumnHasNoDomain) {
  TableSchema schema({{"v", DataType::kInt64}});
  Table t("t", schema);
  ASSERT_TRUE(t.Seal().ok());
  EXPECT_FALSE(t.domain(0).valid);
  EXPECT_EQ(t.domain(0).Width(), -1);
  EXPECT_FALSE(t.domain(0).Contains(0));
}

TEST(ColumnDomainTest, SingleValueDomainHasWidthOne) {
  TableSchema schema({{"v", DataType::kInt64}});
  Table t("t", schema);
  for (int i = 0; i < 5; ++i) t.mutable_column(0)->AppendInt(17);
  ASSERT_TRUE(t.Seal().ok());
  const ColumnDomain& d = t.domain(0);
  EXPECT_TRUE(d.valid);
  EXPECT_EQ(d.min, 17);
  EXPECT_EQ(d.max, 17);
  EXPECT_EQ(d.Width(), 1);
}

TEST(ColumnDomainTest, ArrayColumnHasNoDomain) {
  Column c(DataType::kArray);
  c.AppendArray({1, 2, 3});
  c.RefreshDomainStats();
  EXPECT_FALSE(c.domain().valid);
}

TEST(ColumnDomainTest, FullRangeDomainWidthOverflowsToInvalid) {
  ColumnDomain d;
  d.min = kMin64;
  d.max = kMax64;
  d.valid = true;
  EXPECT_EQ(d.Width(), -1);  // 2^64 values: too wide to specialize on
  EXPECT_TRUE(d.Contains(0));
}

TEST(ColumnDomainTest, ReSealRefreshesAfterAppend) {
  TableSchema schema({{"v", DataType::kInt64}});
  Table t("t", schema);
  t.mutable_column(0)->AppendInt(5);
  ASSERT_TRUE(t.Seal().ok());
  EXPECT_EQ(t.domain(0).max, 5);
  t.mutable_column(0)->AppendInt(99);
  ASSERT_TRUE(t.Seal().ok());
  EXPECT_EQ(t.domain(0).min, 5);
  EXPECT_EQ(t.domain(0).max, 99);
}

// --- DenseKeyIndex -----------------------------------------------------------

TEST(DenseKeyIndexTest, AssignsFirstSeenOrderIds) {
  DenseKeyIndex idx(-10, 10);
  EXPECT_EQ(idx.FindOrInsert(3), 0);
  EXPECT_EQ(idx.FindOrInsert(-10), 1);
  EXPECT_EQ(idx.FindOrInsert(3), 0);
  EXPECT_EQ(idx.FindOrInsert(10), 2);
  EXPECT_EQ(idx.num_groups(), 3);
  EXPECT_EQ(idx.capacity(), 21);
  EXPECT_EQ(idx.KeyOf(0), 3);
  EXPECT_EQ(idx.KeyOf(1), -10);
  EXPECT_EQ(idx.KeyOf(2), 10);
}

TEST(DenseKeyIndexTest, OutOfDomainGuardNeverInserts) {
  DenseKeyIndex idx(0, 4);
  EXPECT_EQ(idx.FindOrInsert(2), 0);
  EXPECT_EQ(idx.FindOrInsert(5), DenseKeyIndex::kOutOfDomain);
  EXPECT_EQ(idx.FindOrInsert(-1), DenseKeyIndex::kOutOfDomain);
  EXPECT_EQ(idx.FindOrInsert(kMin64), DenseKeyIndex::kOutOfDomain);
  EXPECT_EQ(idx.FindOrInsert(kMax64), DenseKeyIndex::kOutOfDomain);
  EXPECT_EQ(idx.num_groups(), 1);
}

TEST(DenseKeyIndexTest, MatchesHashTableIdAssignment) {
  DenseKeyIndex idx(0, 63);
  AggregationHashTable ht(1, 0);
  uint64_t state = 12345;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int64_t key = static_cast<int64_t>(state >> 58);  // 0..63
    EXPECT_EQ(idx.FindOrInsert(key), ht.FindOrInsert(&key));
  }
  EXPECT_EQ(idx.num_groups(), ht.num_groups());
  for (int64_t g = 0; g < idx.num_groups(); ++g) {
    EXPECT_EQ(idx.KeyOf(g), ht.KeyComponent(g, 0));
  }
}

// --- AggregationHashTable pre-sizing (boundary hints) ------------------------

TEST(AggSizingTest, BoundaryHintFitsWithoutResizeOrWaste) {
  // A hint of 128 needs ceil(128 / 0.5) = 256 slots: exactly 128 groups fit
  // under the load factor. The old sizing added a full slack slot before
  // dividing, doubling the table for every power-of-two-times-load-factor
  // hint.
  AggregationHashTable t(1, 128);
  EXPECT_EQ(t.capacity(), 256);
  for (int64_t k = 0; k < 128; ++k) t.FindOrInsert(&k);
  EXPECT_EQ(t.num_groups(), 128);
  EXPECT_EQ(t.resize_count(), 0);
  EXPECT_EQ(t.capacity(), 256);
  // One group past the hint is the first legitimate resize.
  const int64_t extra = 128;
  t.FindOrInsert(&extra);
  EXPECT_EQ(t.resize_count(), 1);
}

TEST(AggSizingTest, HintedTableNeverResizesUpToHint) {
  for (int64_t hint : {1, 3, 64, 100, 512, 1000}) {
    AggregationHashTable t(1, hint);
    for (int64_t k = 0; k < hint; ++k) t.FindOrInsert(&k);
    EXPECT_EQ(t.resize_count(), 0) << "hint=" << hint;
  }
}

// --- Predicate kernels -------------------------------------------------------

ColumnPredicate Pred(CompareOp op, int64_t operand, int64_t operand2 = 0) {
  ColumnPredicate pred;
  pred.column = 0;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

TEST(PredicateKernelTest, KernelMatchesGenericOnBoundaryOperands) {
  const std::vector<int64_t> values = {kMin64, kMin64 + 1, -100, -5, -1, 0,
                                       1,      5,          7,    42, 100,
                                       kMax64 - 1, kMax64};
  std::vector<ColumnPredicate> preds = {
      Pred(CompareOp::kEq, 5),
      Pred(CompareOp::kEq, kMin64),
      Pred(CompareOp::kNe, 0),
      Pred(CompareOp::kLt, -5),
      Pred(CompareOp::kLe, kMin64),
      Pred(CompareOp::kGt, kMax64 - 1),
      Pred(CompareOp::kGe, 0),
      Pred(CompareOp::kBetween, -5, 42),
      Pred(CompareOp::kBetween, kMin64, kMax64),  // full-range span
      Pred(CompareOp::kBetween, 42, -5),          // reversed: empty
      Pred(CompareOp::kBetween, 7, 7),
  };
  {
    ColumnPredicate in = Pred(CompareOp::kIn, 0);
    in.in_list = {};  // empty IN: matches nothing
    preds.push_back(in);
    in.in_list = {5, 5, 5};  // duplicates
    preds.push_back(in);
    in.in_list = {kMin64, -1, 0, 1, kMax64, 42, 7, 100};  // exactly 8
    preds.push_back(in);
    in.in_list = {1, 2, 3, 4, 5, 6, 7, 8, 9};  // > 8: row-at-a-time
    preds.push_back(in);
  }
  for (const ColumnPredicate& pred : preds) {
    std::vector<uint8_t> kernel(values.size(), 1);
    EvaluateOnBlock(pred, values, &kernel);
    // The row-wise oracle: ColumnPredicate::Matches on each value.
    std::vector<uint8_t> expected;
    for (int64_t v : values) expected.push_back(pred.Matches(v) ? 1 : 0);
    EXPECT_EQ(kernel, expected) << minihouse::CompareOpName(pred.op);
    // The kernels AND into the selection: a cleared bit stays cleared.
    std::vector<uint8_t> masked(values.size(), 0);
    EvaluateOnBlock(pred, values, &masked);
    EXPECT_EQ(masked, std::vector<uint8_t>(values.size(), 0));
  }
}

// --- Dense-aggregate kernel identity ----------------------------------------

// A relation with one key column over [base, base+width) and one value
// column; the optional tail row carries an out-of-domain key.
Relation AggInput(int64_t rows, int64_t base, int64_t width,
                  bool out_of_domain_tail) {
  Relation rel;
  rel.column_names = {"k", "v"};
  rel.column_ids = {{0, 0}, {0, 1}};
  rel.columns.resize(2);
  uint64_t state = 99;
  for (int64_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    rel.columns[0].push_back(base + static_cast<int64_t>(state % width));
    rel.columns[1].push_back(static_cast<int64_t>(i % 97) - 48);
  }
  if (out_of_domain_tail) {
    rel.columns[0].push_back(base + width + 1000);
    rel.columns[1].push_back(7);
  }
  rel.rows = static_cast<int64_t>(rel.columns[0].size());
  return rel;
}

void ExpectSameAggregate(const AggregateResult& a, const AggregateResult& b) {
  ASSERT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.group_keys, b.group_keys);    // identical order, not just set
  EXPECT_EQ(a.agg_values, b.agg_values);    // bit-identical doubles
}

TEST(DenseAggTest, SpecializedMatchesGenericAtEveryDop) {
  const Relation in = AggInput(4000, -20, 50, false);
  DenseAggSpec spec;
  spec.enabled = true;
  spec.domain_min = -20;
  spec.domain_max = 29;
  const std::vector<AggRequest> aggs = {{AggFunc::kCountStar, -1},
                                        {AggFunc::kSum, 1},
                                        {AggFunc::kAvg, 1}};
  for (int dop : {1, 2, 4, 8}) {
    AggregateResult generic = HashAggregate(in, {0}, aggs, 0, dop);
    AggregateResult dense = HashAggregate(in, {0}, aggs, 0, dop, {}, spec);
    EXPECT_TRUE(dense.specialized);
    EXPECT_FALSE(generic.specialized);
    EXPECT_EQ(dense.despecialized_morsels, 0);
    ExpectSameAggregate(generic, dense);
  }
}

TEST(DenseAggTest, GuardDegradesPartitionAndStaysExact) {
  // The assumed domain misses the out-of-domain tail key: the partition that
  // meets it (and the final merge) degrade to the hash index mid-execution.
  const Relation in = AggInput(4000, 0, 30, true);
  DenseAggSpec spec;
  spec.enabled = true;
  spec.domain_min = 0;
  spec.domain_max = 29;
  const std::vector<AggRequest> aggs = {{AggFunc::kCountStar, -1},
                                        {AggFunc::kSum, 1}};
  for (int dop : {1, 2, 4, 8}) {
    AggregateResult generic = HashAggregate(in, {0}, aggs, 0, dop);
    AggregateResult dense = HashAggregate(in, {0}, aggs, 0, dop, {}, spec);
    EXPECT_TRUE(dense.specialized);
    EXPECT_GE(dense.despecialized_morsels, 1);
    ExpectSameAggregate(generic, dense);
  }
}

TEST(DenseAggTest, MultiKeyGroupingIgnoresSpec) {
  Relation in = AggInput(500, 0, 10, false);
  DenseAggSpec spec;
  spec.enabled = true;
  spec.domain_min = 0;
  spec.domain_max = 9;
  const std::vector<AggRequest> aggs = {{AggFunc::kCountStar, -1}};
  AggregateResult two_key = HashAggregate(in, {0, 1}, aggs, 0, 1, {}, spec);
  EXPECT_FALSE(two_key.specialized);
  EXPECT_EQ(two_key.despecialized_morsels, 0);
}

// --- Array-index join kernel identity ---------------------------------------

Relation JoinSide(int64_t rows, int64_t base, int64_t width, uint64_t seed,
                  int table_idx) {
  Relation rel;
  rel.column_names = {"k", "payload"};
  rel.column_ids = {{table_idx, 0}, {table_idx, 1}};
  rel.columns.resize(2);
  uint64_t state = seed;
  for (int64_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    rel.columns[0].push_back(base + static_cast<int64_t>(state % width));
    rel.columns[1].push_back(i);
  }
  rel.rows = rows;
  return rel;
}

void ExpectSameRelation(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.columns, b.columns);  // identical values in identical order
}

TEST(ArrayJoinTest, SpecializedMatchesGenericAtEveryDop) {
  const Relation build = JoinSide(200, -7, 40, 5, 0);
  const Relation probe = JoinSide(3000, -7, 60, 9, 1);
  ArrayJoinSpec spec;
  spec.enabled = true;
  spec.left_min = -7;
  spec.left_max = 32;   // build side's true domain
  spec.right_min = -7;
  spec.right_max = 52;
  spec.budget = 1 << 20;
  for (int dop : {1, 2, 4}) {
    JoinRunInfo gi, si;
    auto generic = HashJoin(build, probe, {0}, {0}, dop, &gi);
    auto special = HashJoin(build, probe, {0}, {0}, dop, &si, {}, spec);
    ASSERT_TRUE(generic.ok());
    ASSERT_TRUE(special.ok());
    EXPECT_FALSE(gi.specialized);
    EXPECT_TRUE(si.specialized);
    EXPECT_FALSE(si.despecialized);
    ExpectSameRelation(generic.value(), special.value());
  }
}

TEST(ArrayJoinTest, BuildGuardFallsBackToHashJoin) {
  // The assumed build-side domain is narrower than the data: the build pass
  // meets an out-of-domain key, abandons the array index, and the hash join
  // produces the (identical) result.
  const Relation build = JoinSide(200, 0, 40, 5, 0);
  const Relation probe = JoinSide(3000, 0, 40, 9, 1);
  ArrayJoinSpec spec;
  spec.enabled = true;
  spec.left_min = 0;
  spec.left_max = 19;  // stale: build keys actually reach 39
  spec.right_min = 0;
  spec.right_max = 19;
  spec.budget = 1 << 20;
  JoinRunInfo gi, si;
  auto generic = HashJoin(build, probe, {0}, {0}, 1, &gi);
  auto special = HashJoin(build, probe, {0}, {0}, 1, &si, {}, spec);
  ASSERT_TRUE(generic.ok());
  ASSERT_TRUE(special.ok());
  EXPECT_FALSE(si.specialized);
  EXPECT_TRUE(si.despecialized);
  ExpectSameRelation(generic.value(), special.value());
}

TEST(ArrayJoinTest, BudgetAndMultiKeyStayGeneric) {
  const Relation build = JoinSide(100, 0, 20, 5, 0);
  const Relation probe = JoinSide(500, 0, 20, 9, 1);
  ArrayJoinSpec spec;
  spec.enabled = true;
  spec.left_min = 0;
  spec.left_max = 19;
  spec.right_min = 0;
  spec.right_max = 19;
  spec.budget = 4;  // domain width 20 exceeds the budget
  JoinRunInfo info;
  auto r = HashJoin(build, probe, {0}, {0}, 1, &info, {}, spec);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(info.specialized);
  EXPECT_FALSE(info.despecialized);

  spec.budget = 1 << 20;
  JoinRunInfo multi;
  auto m = HashJoin(build, probe, {0, 1}, {0, 1}, 1, &multi, {}, spec);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(multi.specialized);
}

// --- End-to-end identity: specialized vs generic plans -----------------------

// Fixed-estimate estimator (the specialization decisions read domain stats,
// not estimates, so a stub suffices; the NDV estimate exercises the density
// gate and the feedback stamp).
class StubEstimator : public minihouse::CardinalityEstimator {
 public:
  explicit StubEstimator(minihouse::QueryFeedbackHook* hook = nullptr)
      : hook_(hook) {}

  std::string Name() const override { return "stub"; }
  double EstimateSelectivity(const Table&,
                             const minihouse::Conjunction&) override {
    return 0.5;
  }
  double EstimateJoinCardinality(const BoundQuery& query,
                                 const std::vector<int>& subset) override {
    double card = 1.0;
    for (int t : subset) {
      card *= static_cast<double>(query.tables[t].table->num_rows());
    }
    return card * 0.01;
  }
  double EstimateGroupNdv(const BoundQuery&) override { return 8.0; }
  minihouse::QueryFeedbackHook* feedback_hook() const override {
    return hook_;
  }

 private:
  minihouse::QueryFeedbackHook* hook_;
};

// fact JOIN dim, filtered, grouped by dim.category: exercises all three
// kernels (predicate kernels in the scans, the array-index join on dim.id,
// the dense aggregate on category's 5-value domain).
BoundQuery SpecializableQuery(const minihouse::Database& db) {
  BoundQuery query = testutil::ToyJoinQuery(db);
  ColumnPredicate pred;
  pred.column = 1;  // fact.value
  pred.op = CompareOp::kBetween;
  pred.operand = 5;
  pred.operand2 = 40;
  query.tables[0].filters = {pred};
  query.group_by = {{1, 1}};  // dim.category
  query.aggs = {{AggFunc::kCountStar, -1, -1}, {AggFunc::kSum, 0, 1}};
  return query;
}

TEST(SpecializationIdentityTest, FullQueryIdenticalAcrossDopAndSip) {
  auto db = testutil::BuildToyDatabase(6000);
  const BoundQuery query = SpecializableQuery(*db);
  StubEstimator estimator;

  for (int dop : {1, 2, 4, 8}) {
    for (bool sip : {true, false}) {
      minihouse::OptimizerOptions base;
      base.max_dop = dop;
      base.min_dop_work_rows = 1;
      base.features.sip = sip;

      minihouse::OptimizerOptions generic_opts = base;
      generic_opts.features.specialize_ops = false;

      auto specialized = minihouse::PlanAndExecute(
          query, minihouse::Optimizer(base), &estimator);
      auto generic = minihouse::PlanAndExecute(
          query, minihouse::Optimizer(generic_opts), &estimator);
      ASSERT_TRUE(specialized.ok());
      ASSERT_TRUE(generic.ok());
      const ExecStats& ss = specialized.value().stats;
      const ExecStats& gs = generic.value().stats;

      // Same results — including group order — same I/O, at every dop.
      ExpectSameAggregate(generic.value().agg, specialized.value().agg);
      EXPECT_EQ(ss.io.blocks_read, gs.io.blocks_read)
          << "dop=" << dop << " sip=" << sip;
      EXPECT_EQ(ss.io.rows_scanned, gs.io.rows_scanned);

      // The specialized leg actually specialized; the generic leg did not.
      EXPECT_GE(ss.specialized_ops, 2) << "dop=" << dop << " sip=" << sip;
      EXPECT_EQ(ss.dense_agg_ops, 1);
      EXPECT_EQ(ss.array_join_ops, 1);
      EXPECT_EQ(ss.despecialized_morsels, 0);
      EXPECT_EQ(gs.specialized_ops, 0);
    }
  }
}

// --- Mis-specialization: stale domain -> guard -> feedback -> veto -----------

TEST(MisSpecializationTest, GuardFiresFallsBackAndVetoesNextPlan) {
  auto db = testutil::BuildToyDatabase(3000);
  // Single-table aggregation on fact.bucket (true domain 0..4). Staling the
  // stored domain to 0..2 makes the compiler specialize on bounds the data
  // escapes, so the dense index's guard must fire at runtime.
  Table* fact = const_cast<Table*>(db->FindTable("fact").value());
  ColumnDomain stale;
  stale.min = 0;
  stale.max = 2;
  stale.valid = true;
  fact->mutable_column(2)->SetDomain(stale);

  BoundQuery query;
  BoundTableRef ref;
  ref.table = fact;
  ref.alias = "fact";
  query.tables = {ref};
  query.group_by = {{0, 2}};  // fact.bucket
  query.aggs = {{AggFunc::kCountStar, -1, -1}};

  feedback::FeedbackManager manager;
  StubEstimator estimator(&manager);
  minihouse::Optimizer optimizer;

  auto first = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.specialized_ops, 1);
  EXPECT_EQ(first.value().stats.dense_agg_ops, 1);
  EXPECT_GE(first.value().stats.despecialized_morsels, 1);

  // Results are exact despite the stale bounds: all 5 buckets, all rows.
  const AggregateResult& agg = first.value().agg;
  EXPECT_EQ(agg.num_groups, 5);
  double total = 0;
  for (int64_t g = 0; g < agg.num_groups; ++g) total += agg.agg_values[0][g];
  EXPECT_EQ(total, 3000.0);

  // The guard firing reached the feedback log and became a veto.
  const std::string fingerprint = cardest::GroupNdvKey(query);
  EXPECT_TRUE(manager.SpecializationVetoed(fingerprint));
  bool logged = false;
  for (const minihouse::QueryFeedback& fb : manager.log().Snapshot()) {
    for (const minihouse::OperatorFeedback& op : fb.ops) {
      if (op.mis_specialized) {
        logged = true;
        EXPECT_EQ(op.fingerprint, fingerprint);
      }
    }
  }
  EXPECT_TRUE(logged);

  // The next plan for the same subplan keeps the generic operator.
  auto second = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.specialized_ops, 0);
  EXPECT_EQ(second.value().stats.despecialized_morsels, 0);
  ExpectSameAggregate(first.value().agg, second.value().agg);

  // Ingest touching the table clears the veto: the batch's Seal refreshed
  // the domain stats the kernel misjudged.
  IngestionEvent event;
  event.table = "fact";
  manager.OnIngest(event);
  EXPECT_FALSE(manager.SpecializationVetoed(fingerprint));
}

TEST(MisSpecializationTest, NoFeedbackMeansNoVetoButStillExact) {
  auto db = testutil::BuildToyDatabase(1000);
  Table* fact = const_cast<Table*>(db->FindTable("fact").value());
  ColumnDomain stale;
  stale.min = 0;
  stale.max = 1;
  stale.valid = true;
  fact->mutable_column(2)->SetDomain(stale);

  BoundQuery query;
  BoundTableRef ref;
  ref.table = fact;
  ref.alias = "fact";
  query.tables = {ref};
  query.group_by = {{0, 2}};
  query.aggs = {{AggFunc::kCountStar, -1, -1}};

  StubEstimator estimator;  // no hook: guard still protects correctness
  minihouse::Optimizer optimizer;
  for (int round = 0; round < 2; ++round) {
    auto r = minihouse::PlanAndExecute(query, optimizer, &estimator);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().stats.despecialized_morsels, 1);
    EXPECT_EQ(r.value().agg.num_groups, 5);
  }
}

}  // namespace
}  // namespace bytecard
