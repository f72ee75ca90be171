// The runtime cardinality feedback subsystem: canonical subplan
// fingerprints, the bounded feedback log, the LRU feedback cache with its
// invalidation rules, streaming drift detection, the engine's
// capture-and-serve loop, and the full drift -> demote -> retrain -> promote
// round trip driven by real traffic alone (no synthetic monitor probes).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "bytecard/data_ingestor.h"
#include "bytecard/feedback/drift_detector.h"
#include "bytecard/feedback/feedback_cache.h"
#include "bytecard/feedback/feedback_log.h"
#include "bytecard/feedback/feedback_manager.h"
#include "minihouse/executor.h"
#include "minihouse/feedback.h"
#include "minihouse/optimizer.h"
#include "test_util.h"

namespace bytecard {
namespace {

using minihouse::AggFunc;
using minihouse::BoundQuery;
using minihouse::BoundTableRef;
using minihouse::ColumnPredicate;
using minihouse::CompareOp;
using minihouse::FeedbackKind;
using minihouse::OperatorFeedback;

ColumnPredicate Pred(int column, CompareOp op, int64_t operand,
                     int64_t operand2 = 0) {
  ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

// COUNT(*) over fact under one filter.
BoundQuery FactCountQuery(const minihouse::Database& db,
                          ColumnPredicate pred) {
  BoundQuery query;
  BoundTableRef fact;
  fact.table = db.FindTable("fact").value();
  fact.alias = "fact";
  fact.filters = {std::move(pred)};
  query.tables = {fact};
  query.aggs = {{AggFunc::kCountStar, -1, -1}};
  return query;
}

// A fixed-estimate estimator exposing a feedback hook: isolates the engine's
// capture/serve plumbing from model quality. Estimates are deliberately
// wrong so cache-served actuals are distinguishable from model answers.
class StubEstimator : public minihouse::CardinalityEstimator {
 public:
  explicit StubEstimator(minihouse::QueryFeedbackHook* hook) : hook_(hook) {}

  std::string Name() const override { return "stub"; }
  double EstimateSelectivity(const minihouse::Table&,
                             const minihouse::Conjunction&) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return 0.5;
  }
  double EstimateJoinCardinality(const BoundQuery& query,
                                 const std::vector<int>& subset) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    double card = 1.0;
    for (int t : subset) {
      card *= static_cast<double>(query.tables[t].table->num_rows());
    }
    return card * 0.01;
  }
  double EstimateGroupNdv(const BoundQuery&) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return 8.0;
  }
  minihouse::QueryFeedbackHook* feedback_hook() const override {
    return hook_;
  }

  std::atomic<int64_t> calls{0};

 private:
  minihouse::QueryFeedbackHook* hook_;
};

const OperatorFeedback* FindOp(const minihouse::QueryFeedback& fb,
                               FeedbackKind kind) {
  for (const OperatorFeedback& op : fb.ops) {
    if (op.kind == kind) return &op;
  }
  return nullptr;
}

// Canonical (sorted) group rows for result-identity comparisons.
std::vector<std::pair<std::vector<int64_t>, std::vector<double>>> SortedGroups(
    const minihouse::AggregateResult& agg) {
  std::vector<std::pair<std::vector<int64_t>, std::vector<double>>> rows;
  rows.reserve(static_cast<size_t>(agg.num_groups));
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

// --- Canonical fingerprints ---------------------------------------------------

TEST(FeedbackFingerprintTest, TableFingerprintIsOrderInsensitive) {
  auto db = testutil::BuildToyDatabase(2000);
  const minihouse::Table* fact = db->FindTable("fact").value();

  const auto p1 = Pred(1, CompareOp::kLt, 10);
  const auto p2 = Pred(2, CompareOp::kEq, 0);
  EXPECT_EQ(cardest::TableKey(*fact, {p1, p2}),
            cardest::TableKey(*fact, {p2, p1}));
  // Different operand, different identity.
  EXPECT_NE(cardest::TableKey(*fact, {p1}),
            cardest::TableKey(*fact, {Pred(1, CompareOp::kLt, 11)}));
  // Different table, different identity even for the same predicate shape.
  const minihouse::Table* dim = db->FindTable("dim").value();
  EXPECT_NE(cardest::TableKey(*fact, {p1}), cardest::TableKey(*dim, {p1}));
}

TEST(FeedbackFingerprintTest, SubplanFingerprintCanonicalizesTablesAndEdges) {
  auto db = testutil::BuildToyDatabase(2000);
  BoundQuery a = testutil::ToyJoinQuery(*db);
  a.tables[0].filters = {Pred(1, CompareOp::kLt, 10)};

  // Subset enumeration order does not matter.
  EXPECT_EQ(cardest::SubplanKey(a, {0, 1}), cardest::SubplanKey(a, {1, 0}));

  // Edge direction does not matter: dim.id = fact.dim_id is the same join.
  BoundQuery b = a;
  b.joins = {{1, 0, 0, 0}};
  EXPECT_EQ(cardest::SubplanKey(a, {0, 1}), cardest::SubplanKey(b, {0, 1}));

  // Table position in the query does not matter either.
  BoundQuery c;
  c.tables = {a.tables[1], a.tables[0]};  // dim first, fact second
  c.joins = {{1, 0, 0, 0}};               // fact.dim_id = dim.id
  c.aggs = a.aggs;
  EXPECT_EQ(cardest::SubplanKey(a, {0, 1}), cardest::SubplanKey(c, {0, 1}));

  // A one-element subset reduces to the table fingerprint, so scan and
  // selectivity questions share cache keys.
  EXPECT_EQ(cardest::SubplanKey(a, {0}),
            cardest::TableKey(*a.tables[0].table, a.tables[0].filters));
}

TEST(FeedbackFingerprintTest, GroupNdvFingerprintSortsKeys) {
  auto db = testutil::BuildToyDatabase(2000);
  BoundQuery a = testutil::ToyJoinQuery(*db);
  a.group_by = {{1, 1}, {0, 2}};
  BoundQuery b = a;
  b.group_by = {{0, 2}, {1, 1}};
  EXPECT_EQ(cardest::GroupNdvKey(a), cardest::GroupNdvKey(b));
  BoundQuery c = a;
  c.group_by = {{1, 1}};
  EXPECT_NE(cardest::GroupNdvKey(a), cardest::GroupNdvKey(c));
}

TEST(FeedbackFingerprintTest, QError) {
  EXPECT_DOUBLE_EQ(minihouse::FeedbackQError(100, 400), 4.0);
  EXPECT_DOUBLE_EQ(minihouse::FeedbackQError(400, 100), 4.0);
  // Both sides floored at 1.
  EXPECT_DOUBLE_EQ(minihouse::FeedbackQError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(minihouse::FeedbackQError(0.25, 2.0), 2.0);
}

// --- FeedbackLog --------------------------------------------------------------

TEST(FeedbackLogTest, BoundedFifoAndDrain) {
  feedback::FeedbackLog log(feedback::FeedbackLog::Options{3});
  for (uint64_t v = 1; v <= 5; ++v) {
    minihouse::QueryFeedback fb;
    fb.snapshot_version = v;
    log.Append(std::move(fb));
  }
  auto stats = log.stats();
  EXPECT_EQ(stats.appended, 5);
  EXPECT_EQ(stats.dropped, 2);
  EXPECT_EQ(stats.records, 3u);

  // Oldest first; the two oldest were evicted.
  auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].snapshot_version, 3u);
  EXPECT_EQ(snap[2].snapshot_version, 5u);

  auto drained = log.Drain();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(log.stats().records, 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

// --- FeedbackCache ------------------------------------------------------------

TEST(FeedbackCacheTest, LookupPutAndLruEviction) {
  feedback::FeedbackCache cache(feedback::FeedbackCache::Options{2});
  double actual = 0.0;
  EXPECT_FALSE(cache.Lookup("a", &actual));
  cache.Put("a", 10.0, {"fact"});
  cache.Put("b", 20.0, {"fact"});
  ASSERT_TRUE(cache.Lookup("a", &actual));  // touches "a" -> "b" is LRU
  EXPECT_DOUBLE_EQ(actual, 10.0);

  cache.Put("c", 30.0, {"dim"});  // capacity 2: evicts "b"
  EXPECT_FALSE(cache.Lookup("b", &actual));
  ASSERT_TRUE(cache.Lookup("a", &actual));
  ASSERT_TRUE(cache.Lookup("c", &actual));
  EXPECT_DOUBLE_EQ(actual, 30.0);

  // Re-putting an existing key refreshes in place (no duplicate, no evict).
  cache.Put("a", 11.0, {"fact"});
  ASSERT_TRUE(cache.Lookup("a", &actual));
  EXPECT_DOUBLE_EQ(actual, 11.0);

  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_GE(stats.hits, 4);
}

TEST(FeedbackCacheTest, InvalidationByTableAndWholesale) {
  feedback::FeedbackCache cache;
  cache.Put("scan:fact", 10.0, {"fact"});
  cache.Put("scan:dim", 20.0, {"dim"});
  cache.Put("join:fact:dim", 30.0, {"fact", "dim"});

  // Ingest into fact drops every entry touching fact, including the join.
  cache.InvalidateTable("fact");
  double actual = 0.0;
  EXPECT_FALSE(cache.Lookup("scan:fact", &actual));
  EXPECT_FALSE(cache.Lookup("join:fact:dim", &actual));
  EXPECT_TRUE(cache.Lookup("scan:dim", &actual));
  EXPECT_EQ(cache.stats().invalidated, 2);

  cache.InvalidateAll();
  EXPECT_FALSE(cache.Lookup("scan:dim", &actual));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidated, 3);
}

// --- OnlineDriftDetector ------------------------------------------------------

TEST(DriftDetectorTest, VerdictNeedsSamplesAndSlidesOff) {
  feedback::OnlineDriftDetector::Options options;
  options.window = 4;
  options.min_samples = 3;
  options.qerror_threshold = 5.0;
  feedback::OnlineDriftDetector detector(options);

  // Too few samples: no verdict even with catastrophic q-errors.
  detector.Observe("fact", 100.0);
  detector.Observe("fact", 100.0);
  EXPECT_FALSE(detector.Report("fact").drifted);

  detector.Observe("fact", 100.0);
  auto report = detector.Report("fact");
  EXPECT_TRUE(report.drifted);
  EXPECT_EQ(report.samples, 3u);
  EXPECT_DOUBLE_EQ(report.p50, 100.0);
  EXPECT_DOUBLE_EQ(report.max, 100.0);

  // A window of good observations slides the bad ones out: drift clears
  // without any explicit reset.
  for (int i = 0; i < 4; ++i) detector.Observe("fact", 1.1);
  report = detector.Report("fact");
  EXPECT_FALSE(report.drifted);
  EXPECT_EQ(report.samples, 4u);
  EXPECT_DOUBLE_EQ(report.max, 1.1);
}

TEST(DriftDetectorTest, ObservationHygieneResetAndReports) {
  feedback::OnlineDriftDetector detector;
  detector.Observe("fact", std::numeric_limits<double>::infinity());
  detector.Observe("fact", std::nan(""));
  EXPECT_EQ(detector.observations(), 0);
  EXPECT_EQ(detector.Report("fact").samples, 0u);

  detector.Observe("fact", 0.25);  // floored at 1
  EXPECT_DOUBLE_EQ(detector.Report("fact").p50, 1.0);

  detector.Observe("dim", 3.0);
  auto reports = detector.Reports();  // sorted by table
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].table, "dim");
  EXPECT_EQ(reports[1].table, "fact");

  detector.ResetTable("fact");
  EXPECT_EQ(detector.Report("fact").samples, 0u);
  EXPECT_EQ(detector.Report("dim").samples, 1u);
}

// --- Engine capture-and-serve -------------------------------------------------

TEST(FeedbackCaptureTest, ScanCaptureThenCacheServes) {
  auto db = testutil::BuildToyDatabase(2000);
  feedback::FeedbackManager manager;
  StubEstimator estimator(&manager);
  minihouse::Optimizer optimizer;
  const BoundQuery query =
      FactCountQuery(*db, Pred(1, CompareOp::kLt, 10));  // truly 400 rows

  auto first = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().ScalarCount(), 400);
  EXPECT_EQ(first.value().stats.feedback_hits, 0);
  EXPECT_EQ(first.value().stats.feedback_records, 1);
  EXPECT_GT(estimator.calls.load(), 0);

  auto records = manager.log().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const OperatorFeedback* scan = FindOp(records[0], FeedbackKind::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_DOUBLE_EQ(scan->actual, 400.0);
  EXPECT_DOUBLE_EQ(scan->estimated, 1000.0);  // stub: 0.5 * 2000
  EXPECT_DOUBLE_EQ(scan->qerror, 2.5);
  EXPECT_FALSE(scan->served_from_cache);
  ASSERT_EQ(scan->tables.size(), 1u);
  EXPECT_EQ(scan->tables[0], "fact");
  EXPECT_EQ(manager.drift().observations(), 1);

  // The identical subplan is now answered by the cache: exact cardinality,
  // zero model calls, and the observation is flagged so it cannot feed
  // drift detection.
  estimator.calls.store(0);
  auto second = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().ScalarCount(), 400);
  EXPECT_EQ(second.value().stats.feedback_hits, 1);
  EXPECT_EQ(second.value().stats.estimator_calls, 0);
  EXPECT_EQ(estimator.calls.load(), 0);
  EXPECT_DOUBLE_EQ(second.value().stats.max_op_qerror, 1.0);

  records = manager.log().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  const OperatorFeedback* served = FindOp(records[1], FeedbackKind::kScan);
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(served->served_from_cache);
  EXPECT_EQ(manager.drift().observations(), 1);  // unchanged
}

TEST(FeedbackCaptureTest, JoinCaptureThenCacheServes) {
  auto db = testutil::BuildToyDatabase(2000);
  feedback::FeedbackManager manager;
  StubEstimator estimator(&manager);
  minihouse::Optimizer optimizer;
  BoundQuery query = testutil::ToyJoinQuery(*db);
  query.tables[0].filters = {Pred(1, CompareOp::kLt, 10)};

  auto first = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Every fact row matches exactly one dim row, so the join preserves the
  // filtered cardinality.
  EXPECT_EQ(first.value().ScalarCount(), 400);
  // Captured: the filtered fact scan and the join. The dim scan has no
  // filters — there is no estimation question to validate.
  EXPECT_EQ(first.value().stats.feedback_records, 2);

  auto records = manager.log().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const OperatorFeedback* join = FindOp(records[0], FeedbackKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_DOUBLE_EQ(join->actual, 400.0);
  EXPECT_DOUBLE_EQ(join->estimated, 2000.0);  // stub: 2000 * 100 * 0.01
  ASSERT_EQ(join->tables.size(), 2u);
  // Join q-errors are never attributed to a single table's model.
  EXPECT_EQ(manager.drift().observations(), 1);  // the fact scan only

  // Repeat: both the selectivity and the join-prefix question hit the cache.
  estimator.calls.store(0);
  auto second = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().ScalarCount(), 400);
  EXPECT_EQ(second.value().stats.feedback_hits, 2);
  EXPECT_EQ(estimator.calls.load(), 0);
  EXPECT_DOUBLE_EQ(second.value().stats.max_op_qerror, 1.0);
}

TEST(FeedbackCaptureTest, GroupNdvCaptureThenCacheServes) {
  auto db = testutil::BuildToyDatabase(2000);
  feedback::FeedbackManager manager;
  StubEstimator estimator(&manager);
  minihouse::Optimizer optimizer;
  BoundQuery query = testutil::ToyJoinQuery(*db);
  query.tables[0].filters = {Pred(1, CompareOp::kLt, 10)};
  query.group_by = {{1, 1}};  // dim.category

  auto first = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t groups = first.value().agg.num_groups;
  EXPECT_GT(groups, 0);
  EXPECT_EQ(first.value().stats.feedback_records, 3);  // scan + join + agg

  auto records = manager.log().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const OperatorFeedback* ndv = FindOp(records[0], FeedbackKind::kGroupNdv);
  ASSERT_NE(ndv, nullptr);
  EXPECT_DOUBLE_EQ(ndv->actual, static_cast<double>(groups));
  EXPECT_DOUBLE_EQ(ndv->estimated, 8.0);  // the stub's NDV guess

  estimator.calls.store(0);
  auto second = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().agg.num_groups, groups);
  EXPECT_EQ(second.value().stats.feedback_hits, 3);
  EXPECT_EQ(estimator.calls.load(), 0);
}

TEST(FeedbackCaptureTest, SipFilteredScanExcludedFromCapture) {
  auto db = testutil::BuildToyDatabase(2000);

  // Force dim (filtered to 20 rows) as the build side and fact as the probe:
  // the join publishes a Bloom filter into the fact scan, whose rows_out
  // then undercounts its filter's true cardinality.
  BoundQuery query;
  BoundTableRef dim;
  dim.table = db->FindTable("dim").value();
  dim.alias = "dim";
  dim.filters = {Pred(2, CompareOp::kEq, 1)};  // flag == 1 -> 20 rows
  BoundTableRef fact;
  fact.table = db->FindTable("fact").value();
  fact.alias = "fact";
  fact.filters = {Pred(1, CompareOp::kLt, 10)};
  query.tables = {dim, fact};
  query.joins = {{0, 0, 1, 0}};  // dim.id = fact.dim_id
  query.aggs = {{AggFunc::kCountStar, -1, -1}};

  minihouse::OptimizerOptions sip_on;
  sip_on.optimize_join_order = false;  // identity order: dim builds
  {
    feedback::FeedbackManager manager;
    StubEstimator estimator(&manager);
    auto result = minihouse::PlanAndExecute(query,
                                            minihouse::Optimizer(sip_on),
                                            &estimator);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto records = manager.log().Snapshot();
    ASSERT_EQ(records.size(), 1u);
    // Only the (un-pruned) dim scan is captured.
    ASSERT_EQ(records[0].ops.size(), 1u);
    EXPECT_EQ(records[0].ops[0].kind, FeedbackKind::kScan);
    ASSERT_EQ(records[0].ops[0].tables.size(), 1u);
    EXPECT_EQ(records[0].ops[0].tables[0], "dim");
    EXPECT_DOUBLE_EQ(records[0].ops[0].actual, 20.0);
  }

  // Control: with SIP off, the fact scan's actual is exact and captured.
  minihouse::OptimizerOptions sip_off = sip_on;
  sip_off.features.sip = false;
  {
    feedback::FeedbackManager manager;
    StubEstimator estimator(&manager);
    auto result = minihouse::PlanAndExecute(query,
                                            minihouse::Optimizer(sip_off),
                                            &estimator);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto records = manager.log().Snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].ops.size(), 2u);
  }
}

TEST(FeedbackCaptureTest, ServeDisabledKeepsCapturing) {
  auto db = testutil::BuildToyDatabase(2000);
  feedback::FeedbackManager manager;
  manager.set_serve_from_cache(false);
  StubEstimator estimator(&manager);
  minihouse::Optimizer optimizer;
  const BoundQuery query = FactCountQuery(*db, Pred(1, CompareOp::kLt, 10));

  ASSERT_TRUE(minihouse::PlanAndExecute(query, optimizer, &estimator).ok());
  estimator.calls.store(0);
  auto second = minihouse::PlanAndExecute(query, optimizer, &estimator);
  ASSERT_TRUE(second.ok());
  // The ablation configuration: capture and drift keep running, but every
  // estimate still comes from the model.
  EXPECT_EQ(second.value().stats.feedback_hits, 0);
  EXPECT_GT(estimator.calls.load(), 0);
  EXPECT_EQ(manager.log().stats().appended, 2);
  EXPECT_EQ(manager.drift().observations(), 2);
}

// --- Thread-safety (exercised under TSan in ci/sanitize.sh) -------------------

TEST(FeedbackConcurrencyTest, ParallelQueriesRaceInvalidation) {
  auto db = testutil::BuildToyDatabase(4000);
  feedback::FeedbackManager manager;
  StubEstimator estimator(&manager);
  minihouse::Optimizer optimizer;

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 40;
  std::atomic<int64_t> executed{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        BoundQuery query;
        if ((t + i) % 2 == 0) {
          query = testutil::ToyJoinQuery(*db);
          query.tables[0].filters = {
              Pred(1, CompareOp::kLt, (i % 48) + 1)};
        } else {
          query = FactCountQuery(*db, Pred(1, CompareOp::kGe, i % 50));
        }
        auto result = minihouse::PlanAndExecute(query, optimizer, &estimator);
        if (result.ok()) executed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Races the two staleness signals and diagnostics against live queries.
  std::thread mutator([&]() {
    uint64_t version = 1;
    while (!stop.load(std::memory_order_acquire)) {
      manager.OnSnapshotPublished();
      ++version;
      IngestionEvent event;
      event.table = "fact";
      event.rows_added = 1;
      manager.OnIngest(event);
      manager.set_serve_from_cache(version % 2 == 0);
      (void)manager.drift().Reports();
      (void)manager.log().Snapshot();
      (void)manager.cache().stats();
      std::this_thread::yield();
    }
  });

  for (auto& worker : workers) worker.join();
  stop.store(true, std::memory_order_release);
  mutator.join();

  EXPECT_EQ(executed.load(), kThreads * kQueriesPerThread);
  EXPECT_EQ(manager.log().stats().appended,
            static_cast<int64_t>(kThreads * kQueriesPerThread));
}

// --- ByteCard facade: round trip + result identity ----------------------------

class FeedbackByteCardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::BuildToyDatabase(20000);

    ByteCard::Options options;
    options.rbx.population_sizes = {10000};
    options.rbx.sample_rates = {0.05};
    options.rbx.replicas = 1;
    options.rbx.epochs = 10;
    // The acceptance bar: health verdicts come from runtime feedback alone —
    // synthetic monitor probing stays off for the whole test.
    options.run_monitor = false;
    options.feedback.drift.window = 32;
    options.feedback.drift.min_samples = 6;
    options.feedback.drift.qerror_threshold = 5.0;
    auto bc = ByteCard::Bootstrap(*db_, {testutil::ToyJoinQuery(*db_)},
                                  dir_.str(), options);
    ASSERT_TRUE(bc.ok()) << bc.status().ToString();
    bytecard_ = std::move(bc).value();
    bytecard_->EnableFeedback();
  }

  Result<minihouse::ExecResult> RunFactQuery(ColumnPredicate pred) {
    minihouse::Optimizer optimizer;
    return minihouse::PlanAndExecute(FactCountQuery(*db_, std::move(pred)),
                                     optimizer, bytecard_.get());
  }

  const testutil::TempDir dir_{"feedback"};
  std::unique_ptr<minihouse::Database> db_;
  std::unique_ptr<ByteCard> bytecard_;
};

TEST_F(FeedbackByteCardTest, DriftDemotesRetrainRepromotes) {
  feedback::FeedbackManager* manager = bytecard_->feedback_manager();
  ASSERT_NE(manager, nullptr);
  minihouse::Table* fact = db_->FindMutableTable("fact").value();

  // Healthy-era traffic populates the cache.
  auto warm = RunFactQuery(Pred(1, CompareOp::kLt, 10));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(manager->cache().stats().entries, 0u);

  // Batch ingest invalidates the grown table's cached actuals via the
  // observer tap.
  DataIngestor ingestor(db_.get());
  ingestor.SetObserver(manager);
  Rng rng(11);
  ASSERT_TRUE(ingestor
                  .IngestDriftedBatch("fact", 40000, /*drift_column=*/1,
                                      /*drift_offset=*/500, &rng)
                  .ok());
  EXPECT_GT(manager->cache().stats().invalidated, 0);

  // Real traffic over the drifted region: the stale BN estimates near zero
  // while ~2/3 of the table now lives there, so every query contributes a
  // large q-error. Distinct predicates keep each query model-answered.
  ASSERT_TRUE(bytecard_->snapshot()->IsHealthy("fact"));
  const uint64_t healthy_version = bytecard_->SnapshotVersion();
  int queries_to_demotion = 0;
  size_t cached_before_demotion = 0;
  std::vector<ByteCard::FeedbackAction> actions;
  for (int i = 0; i < 12 && actions.empty(); ++i) {
    auto result = RunFactQuery(Pred(1, CompareOp::kGe, 500 + i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().stats.feedback_hits, 0);
    ++queries_to_demotion;
    cached_before_demotion = manager->cache().stats().entries;
    actions = bytecard_->ProcessFeedback(db_.get());
  }

  // Demotion fired from runtime feedback alone, exactly at min_samples.
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].report.table, "fact");
  EXPECT_TRUE(actions[0].report.drifted);
  EXPECT_GT(actions[0].report.p90, 5.0);
  EXPECT_TRUE(actions[0].demoted);
  EXPECT_TRUE(actions[0].retrain_started);
  // The verdict needed min_samples observations; the healthy-era warm-up
  // query contributed one (with q-error ~1), the drifted probes the rest.
  EXPECT_GE(queries_to_demotion, 5);
  EXPECT_FALSE(bytecard_->snapshot()->IsHealthy("fact"));

  // The demotion publish kept the cached actuals (a health flip changes no
  // table's data) and reset the table's drift window for the new regime.
  EXPECT_GT(bytecard_->SnapshotVersion(), healthy_version);
  EXPECT_GT(cached_before_demotion, 0u);
  EXPECT_EQ(manager->cache().stats().entries, cached_before_demotion);
  EXPECT_EQ(manager->drift().Report("fact").samples, 0u);

  // Demoted estimates route through the traditional fallback.
  auto demoted_run = RunFactQuery(Pred(1, CompareOp::kGe, 520));
  ASSERT_TRUE(demoted_run.ok());
  EXPECT_GT(demoted_run.value().stats.fallback_estimates, 0);

  // The loader picks up the retrained artifact; a model that just passed
  // validation supersedes the old verdict, so the table is re-promoted.
  const uint64_t demoted_version = bytecard_->SnapshotVersion();
  auto applied = bytecard_->RefreshModels();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied.value(), 1);
  EXPECT_GT(bytecard_->SnapshotVersion(), demoted_version);
  EXPECT_TRUE(bytecard_->snapshot()->IsHealthy("fact"));
  EXPECT_EQ(manager->cache().stats().entries, 0u);  // RefreshModels flushes

  // The fresh model sees the drifted region; healthy traffic leaves the
  // fallback untouched.
  EXPECT_GT(bytecard_->EstimateSelectivity(*fact,
                                           {Pred(1, CompareOp::kGe, 500)}),
            0.3);
  auto healthy_run = RunFactQuery(Pred(1, CompareOp::kGe, 530));
  ASSERT_TRUE(healthy_run.ok());
  EXPECT_EQ(healthy_run.value().stats.fallback_estimates, 0);
}

TEST_F(FeedbackByteCardTest, CacheServingPreservesResults) {
  bytecard_->EnableFeedback();  // idempotent: already on via Options
  feedback::FeedbackManager* manager = bytecard_->feedback_manager();
  ASSERT_NE(manager, nullptr);

  // A query mix covering both reader kinds, joins, group keys, and multiple
  // aggregates. Filters sit far from the multi-stage threshold so a
  // cache-served exact cardinality picks the same reader as the model's
  // estimate (cached actuals may legitimately change dop or hash-table
  // pre-sizing — never results or I/O).
  std::vector<BoundQuery> queries;
  {
    BoundQuery q = testutil::ToyJoinQuery(*db_);
    q.tables[0].filters = {Pred(1, CompareOp::kLt, 25)};
    q.group_by = {{1, 1}};  // dim.category
    q.aggs = {{AggFunc::kCountStar, -1, -1}, {AggFunc::kSum, 0, 1}};
    queries.push_back(q);
  }
  {
    BoundQuery q = FactCountQuery(*db_, Pred(1, CompareOp::kGe, 10));
    q.group_by = {{0, 2}};  // fact.bucket
    q.aggs = {{AggFunc::kCountStar, -1, -1}, {AggFunc::kSum, 0, 1}};
    queries.push_back(q);
  }
  {
    BoundQuery q = testutil::ToyJoinQuery(*db_);
    q.tables[0].filters = {Pred(1, CompareOp::kLt, 3)};  // multi-stage region
    queries.push_back(q);
  }

  for (int dop : {1, 4}) {
    minihouse::OptimizerOptions oo;
    oo.max_dop = dop;
    minihouse::Optimizer optimizer(oo);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("dop=" + std::to_string(dop) +
                   " query=" + std::to_string(qi));
      const BoundQuery& query = queries[qi];

      manager->set_serve_from_cache(false);
      auto baseline = minihouse::PlanAndExecute(query, optimizer,
                                                bytecard_.get());
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      EXPECT_EQ(baseline.value().stats.feedback_hits, 0);

      manager->set_serve_from_cache(true);
      auto prime = minihouse::PlanAndExecute(query, optimizer,
                                             bytecard_.get());
      ASSERT_TRUE(prime.ok()) << prime.status().ToString();
      auto served = minihouse::PlanAndExecute(query, optimizer,
                                              bytecard_.get());
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_GT(served.value().stats.feedback_hits, 0);

      // Byte-identical answers and identical I/O, cache on or off.
      EXPECT_EQ(SortedGroups(baseline.value().agg),
                SortedGroups(served.value().agg));
      EXPECT_EQ(SortedGroups(prime.value().agg),
                SortedGroups(served.value().agg));
      EXPECT_EQ(baseline.value().stats.io.blocks_read,
                served.value().stats.io.blocks_read);
      EXPECT_EQ(baseline.value().agg.num_groups,
                served.value().agg.num_groups);
    }
  }
}

}  // namespace
}  // namespace bytecard
