// The concurrent query scheduler: estimate-driven admission, serial-identical
// results under concurrency, and the lifecycle-vs-serving race suite
// (SchedulerConcurrencyTest runs under every sanitizer leg; TSan is the one
// that proves snapshot publishes and feedback ingest never race the
// submitting streams).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "minihouse/executor.h"
#include "minihouse/scheduler.h"
#include "sql/analyzer.h"
#include "stats/traditional_estimator.h"
#include "test_util.h"

namespace bytecard {
namespace {

using common::TaskLane;
using minihouse::BoundQuery;
using minihouse::CompareOp;
using minihouse::ExecResult;
using minihouse::QueryScheduler;
using minihouse::SchedulerOptions;

minihouse::ColumnPredicate Pred(int column, CompareOp op, int64_t operand) {
  minihouse::ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  return pred;
}

// The toy join grouped by dim.category with a sweepable filter on
// fact.value: multi-group results whose group keys must come back identical
// from every lane, budget, and interleaving.
BoundQuery GroupedJoinQuery(const minihouse::Database& db, int64_t value_le) {
  BoundQuery query = testutil::ToyJoinQuery(db);
  query.tables[0].filters = {Pred(1, CompareOp::kLe, value_le)};
  query.group_by = {{1, 1}};  // dim.category
  return query;
}

using GroupRow = std::pair<std::vector<int64_t>, std::vector<double>>;

GroupRow SortedFlatten(const minihouse::AggregateResult& agg) {
  // Group-key-sorted flattening: parallel aggregation may emit groups in any
  // order; only the (key -> values) mapping is the result.
  std::vector<std::pair<std::vector<int64_t>, std::vector<double>>> rows(
      agg.num_groups);
  for (int64_t g = 0; g < agg.num_groups; ++g) {
    for (const auto& keys : agg.group_keys) rows[g].first.push_back(keys[g]);
    for (const auto& vals : agg.agg_values) rows[g].second.push_back(vals[g]);
  }
  std::sort(rows.begin(), rows.end());
  GroupRow flat;
  for (auto& r : rows) {
    flat.first.insert(flat.first.end(), r.first.begin(), r.first.end());
    flat.second.insert(flat.second.end(), r.second.begin(), r.second.end());
  }
  return flat;
}

struct SketchFixture {
  std::unique_ptr<minihouse::Database> db;
  std::unique_ptr<stats::SketchStatistics> statistics;
  std::unique_ptr<stats::SketchEstimator> estimator;
};

SketchFixture BuildSketchFixture(int64_t fact_rows = 4000) {
  SketchFixture f;
  f.db = testutil::BuildToyDatabase(fact_rows);
  f.statistics = stats::SketchStatistics::Build(*f.db, 64);
  f.estimator = std::make_unique<stats::SketchEstimator>(f.statistics.get());
  return f;
}

TEST(SchedulerTest, ExecuteMatchesSerialExecution) {
  SketchFixture f = BuildSketchFixture();
  SchedulerOptions options;
  options.optimizer.max_dop = 4;
  QueryScheduler scheduler(f.estimator.get(), options);

  minihouse::Optimizer optimizer(options.optimizer);
  for (int64_t v : {5, 20, 49}) {
    const BoundQuery query = GroupedJoinQuery(*f.db, v);
    auto serial =
        minihouse::PlanAndExecute(query, optimizer, f.estimator.get());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto scheduled = scheduler.Wait(scheduler.Submit(query));
    ASSERT_TRUE(scheduled.ok()) << scheduled.status().ToString();
    EXPECT_EQ(SortedFlatten(serial.value().agg),
              SortedFlatten(scheduled.value().agg));
  }
  const minihouse::SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, 3);
  EXPECT_EQ(counters.completed, 3);
  EXPECT_EQ(counters.fast_admitted + counters.heavy_admitted, 3);
}

TEST(SchedulerTest, AdmissionFollowsEstimatedIntermediates) {
  SketchFixture f = BuildSketchFixture();
  const BoundQuery query = GroupedJoinQuery(*f.db, 49);

  // Threshold below any join output: everything classifies heavy.
  SchedulerOptions heavy_all;
  heavy_all.heavy_rows_threshold = 1.0;
  {
    QueryScheduler scheduler(f.estimator.get(), heavy_all);
    auto ticket = scheduler.Submit(query);
    auto result = scheduler.Wait(ticket);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ticket->lane(), TaskLane::kHeavy);
    EXPECT_TRUE(result.value().stats.heavy_lane);
    EXPECT_GE(result.value().stats.queue_ms, 0.0);
    EXPECT_EQ(scheduler.counters().heavy_admitted, 1);
  }

  // Threshold above everything: the same query stays on the fast lane.
  SchedulerOptions fast_all;
  fast_all.heavy_rows_threshold = 1e15;
  {
    QueryScheduler scheduler(f.estimator.get(), fast_all);
    auto ticket = scheduler.Submit(query);
    auto result = scheduler.Wait(ticket);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ticket->lane(), TaskLane::kFast);
    EXPECT_FALSE(result.value().stats.heavy_lane);
    EXPECT_EQ(scheduler.counters().fast_admitted, 1);
  }

  // Classification is a pure function of the plan's own estimates.
  minihouse::QueryContext qctx(f.estimator.get());
  minihouse::Optimizer optimizer;
  const minihouse::PhysicalPlan plan = optimizer.Plan(query, &qctx);
  EXPECT_GT(QueryScheduler::EstimatedPeakRows(query, plan), 0.0);
}

TEST(SchedulerTest, ConcurrentSubmittersGetSerialResults) {
  SketchFixture f = BuildSketchFixture();
  SchedulerOptions options;
  options.optimizer.max_dop = 4;
  options.heavy_rows_threshold = 2000.0;  // split the mix across both lanes
  options.heavy_morsel_tokens = 1;
  QueryScheduler scheduler(f.estimator.get(), options);

  // Serial reference per filter value.
  minihouse::Optimizer optimizer(options.optimizer);
  std::vector<GroupRow> expected;
  for (int64_t v = 0; v < 50; ++v) {
    auto serial = minihouse::PlanAndExecute(GroupedJoinQuery(*f.db, v),
                                            optimizer, f.estimator.get());
    ASSERT_TRUE(serial.ok());
    expected.push_back(SortedFlatten(serial.value().agg));
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t v = (t * 17 + i * 5) % 50;
        auto result =
            scheduler.Wait(scheduler.Submit(GroupedJoinQuery(*f.db, v)));
        if (!result.ok() ||
            SortedFlatten(result.value().agg) != expected[v]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  const minihouse::SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.submitted, kThreads * kPerThread);
  EXPECT_EQ(counters.completed, kThreads * kPerThread);
  EXPECT_GT(counters.fast_admitted, 0);
  EXPECT_GT(counters.heavy_admitted, 0);
  EXPECT_EQ(scheduler.in_flight(), 0);
}

TEST(SchedulerTest, DestructorDrainsUnredeemedTickets) {
  SketchFixture f = BuildSketchFixture();
  std::vector<std::shared_ptr<minihouse::QueryTicket>> tickets;
  {
    QueryScheduler scheduler(f.estimator.get(), SchedulerOptions{});
    for (int64_t v = 0; v < 16; ++v) {
      tickets.push_back(scheduler.Submit(GroupedJoinQuery(*f.db, v % 50)));
    }
    // No Wait: destruction must block until all 16 finished, and the tickets
    // (shared) must stay valid afterwards.
  }
  EXPECT_EQ(tickets.size(), 16u);
}

// The scheduler plans in Submit and executes in Run, each in its own read
// latch window, so an ingest batch may land between them. Run then drops the
// scan opened while planning over the ingested table and opens it afresh,
// and takes over the one over the untouched table: the query answers as a
// fresh plan does, with the IoStats of scans opened at execution.
TEST(SchedulerTest, IngestBetweenPlanAndRunReopensTheIngestedScan) {
  struct Run {
    GroupRow before;  // the answer before the ingest
    GroupRow answer;
    GroupRow fresh;   // a fresh plan and execute after the ingest
    minihouse::IoStats io;
  };
  auto run = [](bool planning_context) {
    SketchFixture f = BuildSketchFixture();
    f.db->SetStorageBlockLatencyNanos(200 * 1000);
    const BoundQuery query = GroupedJoinQuery(*f.db, 20);
    const minihouse::Optimizer optimizer;
    Run out;
    auto before = minihouse::PlanAndExecute(query, optimizer,
                                            f.estimator.get());
    BC_CHECK_OK(before.status());
    out.before = SortedFlatten(before.value().agg);

    minihouse::QueryContext planned(f.estimator.get());
    const minihouse::PhysicalPlan plan = optimizer.Plan(query, &planned);
    minihouse::Table* fact = f.db->FindMutableTable("fact").value();
    for (int64_t i = 0; i < 50; ++i) {
      fact->mutable_column(0)->AppendInt(i);
      fact->mutable_column(1)->AppendInt(i % 20);
      fact->mutable_column(2)->AppendInt(i % 20 / 10);
    }
    BC_CHECK_OK(fact->Seal());
    minihouse::QueryContext fresh_context;
    auto result = minihouse::ExecuteQuery(
        query, plan, planning_context ? &planned : &fresh_context);
    BC_CHECK_OK(result.status());
    out.answer = SortedFlatten(result.value().agg);
    out.io = result.value().stats.io;
    auto fresh = minihouse::PlanAndExecute(query, optimizer,
                                           f.estimator.get());
    BC_CHECK_OK(fresh.status());
    out.fresh = SortedFlatten(fresh.value().agg);
    return out;
  };
  const Run handed_over = run(true);
  const Run reopened = run(false);
  EXPECT_NE(handed_over.answer, handed_over.before);
  EXPECT_EQ(handed_over.answer, handed_over.fresh);
  EXPECT_EQ(handed_over.answer, reopened.answer);
  EXPECT_EQ(handed_over.io.blocks_read, reopened.io.blocks_read);
  EXPECT_EQ(handed_over.io.rows_scanned, reopened.io.rows_scanned);
  EXPECT_EQ(handed_over.io.blocks_pruned, reopened.io.blocks_pruned);
  EXPECT_EQ(handed_over.io.encoded_blocks, reopened.io.encoded_blocks);
  EXPECT_EQ(handed_over.io.decode_cache_hits, reopened.io.decode_cache_hits);
  EXPECT_EQ(handed_over.io.decode_cache_evictions,
            reopened.io.decode_cache_evictions);
}

// --- Lifecycle vs. serving races ---------------------------------------------
// Satellite of the snapshot architecture: RefreshModels / RetrainTable /
// ProcessFeedback publish successor snapshots and ingest feedback WHILE 8
// streams submit through the scheduler. Every query must return the serial
// answer and report a snapshot version from the published range; run under
// TSan this is the no-data-race proof for the whole serving path.
// --- SQL front door -----------------------------------------------------------

SchedulerOptions WithSqlAnalyzer(SchedulerOptions options = {}) {
  options.sql_analyzer = [](const std::string& sql,
                            const minihouse::Database& db) {
    return sql::AnalyzeSql(sql, db);
  };
  return options;
}

TEST(SchedulerSqlTest, SubmitSqlExecutesLikeBoundQuery) {
  SketchFixture f = BuildSketchFixture();
  QueryScheduler scheduler(f.estimator.get(), WithSqlAnalyzer());

  auto from_sql = scheduler.Wait(scheduler.Submit(
      "SELECT COUNT(*) FROM fact WHERE value <= 20", *f.db));
  ASSERT_TRUE(from_sql.ok()) << from_sql.status().ToString();

  BoundQuery bound;
  minihouse::BoundTableRef fact;
  fact.table = f.db->FindTable("fact").value();
  fact.alias = "fact";
  fact.filters = {Pred(1, CompareOp::kLe, 20)};
  bound.tables = {fact};
  bound.aggs = {{minihouse::AggFunc::kCountStar, -1, -1}};
  auto from_bound = scheduler.Wait(scheduler.Submit(bound));
  ASSERT_TRUE(from_bound.ok());
  EXPECT_EQ(from_sql.value().agg.agg_values[0][0],
            from_bound.value().agg.agg_values[0][0]);
  EXPECT_EQ(scheduler.counters().submitted, 2);
}

TEST(SchedulerSqlTest, AnalyzerErrorsSurfaceThroughWait) {
  SketchFixture f = BuildSketchFixture();
  QueryScheduler scheduler(f.estimator.get(), WithSqlAnalyzer());

  // Parse error, unknown table, unknown column: each fails through the
  // ticket, never reaching the pool or the counters.
  for (const char* sql :
       {"SELECT COUNT( FROM fact", "SELECT COUNT(*) FROM nope",
        "SELECT COUNT(*) FROM fact WHERE nope = 1"}) {
    auto ticket = scheduler.Submit(std::string(sql), *f.db);
    ASSERT_NE(ticket, nullptr);
    auto result = scheduler.Wait(ticket);
    EXPECT_FALSE(result.ok()) << sql;
  }
  EXPECT_EQ(scheduler.counters().submitted, 0);
  EXPECT_EQ(scheduler.in_flight(), 0);
}

TEST(SchedulerSqlTest, FacadeWiresDefaultAnalyzer) {
  const testutil::TempDir tmp("sql_front_door");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(6000);

  ByteCard::Options options;
  options.rbx.population_sizes = {6000};
  options.rbx.sample_rates = {0.05};
  options.rbx.replicas = 1;
  options.rbx.epochs = 5;
  options.run_monitor = false;
  auto bc = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  std::unique_ptr<ByteCard> bytecard = std::move(bc).value();

  // StartServing with no analyzer configured wires sql::AnalyzeSql.
  bytecard->StartServing(SchedulerOptions{});
  auto good = bytecard->Wait(bytecard->Submit(
      std::string("SELECT COUNT(*) FROM fact WHERE value <= 10"), *db));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_GT(good.value().agg.agg_values[0][0], 0.0);
  auto bad = bytecard->Wait(
      bytecard->Submit(std::string("SELECT COUNT(*) FROM nope"), *db));
  EXPECT_FALSE(bad.ok());
  bytecard->StopServing();
}

TEST(SchedulerSqlTest, MissingAnalyzerRejectsSqlSubmissions) {
  SketchFixture f = BuildSketchFixture();
  QueryScheduler scheduler(f.estimator.get(), SchedulerOptions{});
  auto result = scheduler.Wait(
      scheduler.Submit("SELECT COUNT(*) FROM fact", *f.db));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("analyzer"), std::string::npos)
      << result.status().ToString();
}

TEST(SchedulerConcurrencyTest, LifecyclePublishesRaceSubmittingStreams) {
  const testutil::TempDir tmp("scheduler_stress");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(8000);

  ByteCard::Options options;
  options.rbx.population_sizes = {10000};
  options.rbx.sample_rates = {0.05};
  options.rbx.replicas = 1;
  options.rbx.epochs = 5;
  options.run_monitor = false;
  auto bc = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  ByteCard* bytecard = bc.value().get();
  bytecard->EnableFeedback();
  const minihouse::Table& fact = *db->FindTable("fact").value();
  const uint64_t version_at_start = bytecard->SnapshotVersion();

  // Serial reference (feedback on, like the concurrent runs — results are
  // exact counts either way).
  SchedulerOptions sched;
  sched.optimizer.max_dop = 4;
  sched.heavy_rows_threshold = 2000.0;
  minihouse::Optimizer optimizer(sched.optimizer);
  std::vector<GroupRow> expected;
  for (int64_t v = 0; v < 50; ++v) {
    auto serial = minihouse::PlanAndExecute(GroupedJoinQuery(*db, v),
                                            optimizer, bytecard);
    ASSERT_TRUE(serial.ok());
    expected.push_back(SortedFlatten(serial.value().agg));
  }

  bytecard->StartServing(sched);

  constexpr int kStreams = 8;
  constexpr int kPerStream = 10;
  std::atomic<int> mismatches{0};
  std::atomic<bool> streams_done{false};
  std::vector<std::thread> streams;
  for (int t = 0; t < kStreams; ++t) {
    streams.emplace_back([&, t] {
      for (int i = 0; i < kPerStream; ++i) {
        const int64_t v = (t * 13 + i * 7) % 50;
        auto ticket = bytecard->Submit(GroupedJoinQuery(*db, v));
        auto result = bytecard->Wait(ticket);
        if (!result.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (SortedFlatten(result.value().agg) != expected[v]) {
          mismatches.fetch_add(1);
        }
        // Snapshot consistency: the version the query served from must be
        // one the lifecycle actually published by then.
        const uint64_t version = result.value().stats.snapshot_version;
        if (version < version_at_start ||
            version > bytecard->SnapshotVersion()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }

  // The lifecycle writer: retrain/refresh/demote/ingest for as long as any
  // stream is still submitting.
  std::thread lifecycle([&] {
    int refreshes = 0;
    for (int i = 0; !streams_done.load() || i < 4; ++i) {
      bytecard->SetTableHealth("fact", i % 2 == 1);
      if (i % 5 == 2 && refreshes < 2) {
        ++refreshes;
        ASSERT_TRUE(bytecard->RetrainTable(fact).ok());
        auto applied = bytecard->RefreshModels();
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      }
      bytecard->ProcessFeedback(db.get());
    }
    bytecard->SetTableHealth("fact", true);
  });

  for (auto& stream : streams) stream.join();
  streams_done.store(true);
  lifecycle.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(bytecard->SnapshotVersion(), version_at_start);
  const minihouse::SchedulerCounters counters =
      bytecard->scheduler()->counters();
  EXPECT_EQ(counters.submitted, kStreams * kPerStream);
  EXPECT_EQ(counters.completed, kStreams * kPerStream);
  bytecard->StopServing();
  EXPECT_EQ(bytecard->scheduler(), nullptr);
}

}  // namespace
}  // namespace bytecard
