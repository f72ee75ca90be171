// End-to-end query execution through scans, joins, and aggregation, and the
// ExecStats counters a query reports.

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "bytecard/routing/routing_table.h"
#include "bytecard/snapshot.h"
#include "minihouse/executor.h"
#include "minihouse/scheduler.h"
#include "stats/traditional_estimator.h"
#include "test_util.h"
#include "workload/datagen.h"
#include "workload/workload.h"

namespace bytecard::minihouse {
namespace {

PhysicalPlan TrivialPlan(const BoundQuery& query) {
  PhysicalPlan plan;
  plan.scans.resize(query.tables.size());
  return plan;
}

TEST(ExecutorTest, SingleTableCount) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query;
  BoundTableRef ref;
  ref.table = db->FindTable("fact").value();
  ref.alias = "fact";
  ColumnPredicate pred;
  pred.column = 1;  // value
  pred.op = CompareOp::kLt;
  pred.operand = 10;
  ref.filters.push_back(pred);
  query.tables.push_back(ref);
  query.aggs.push_back({AggFunc::kCountStar, -1, -1});

  Result<ExecResult> result = ExecuteQuery(query, TrivialPlan(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // value = i % 50, so exactly 10/50 of 2000 rows.
  EXPECT_EQ(result.value().ScalarCount(), 400);
}

TEST(ExecutorTest, JoinCountMatchesManualComputation) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query = testutil::ToyJoinQuery(*db);

  Result<ExecResult> result = ExecuteQuery(query, TrivialPlan(query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every fact row matches exactly one dim row (dim.id is unique, FK in
  // range), so the join count equals the fact row count.
  EXPECT_EQ(result.value().ScalarCount(),
            db->FindTable("fact").value()->num_rows());
}

TEST(ExecutorTest, JoinWithDimFilter) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query = testutil::ToyJoinQuery(*db);
  ColumnPredicate pred;
  pred.column = 2;  // dim.flag
  pred.op = CompareOp::kEq;
  pred.operand = 1;
  query.tables[1].filters.push_back(pred);

  Result<ExecResult> result = ExecuteQuery(query, TrivialPlan(query));
  ASSERT_TRUE(result.ok());

  // Reference: count fact rows whose dim_id < 20 (flag == 1 <=> id < 20).
  const Table* fact = db->FindTable("fact").value();
  int64_t expected = 0;
  for (int64_t i = 0; i < fact->num_rows(); ++i) {
    if (fact->column(0).NumericAt(i) < 20) ++expected;
  }
  EXPECT_EQ(result.value().ScalarCount(), expected);
}

TEST(ExecutorTest, GroupByProducesGroups) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query = testutil::ToyJoinQuery(*db);
  query.group_by.push_back({1, 1});  // dim.category (5 values)
  query.aggs.push_back({AggFunc::kSum, 0, 1});  // SUM(fact.value)

  Result<ExecResult> result = ExecuteQuery(query, TrivialPlan(query));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().agg.num_groups, 5);

  // Group COUNTs sum to the join size.
  double total = 0.0;
  for (double c : result.value().agg.agg_values[0]) total += c;
  EXPECT_EQ(static_cast<int64_t>(total),
            db->FindTable("fact").value()->num_rows());
}

TEST(ExecutorTest, NdvHintReducesResizes) {
  auto db = testutil::BuildToyDatabase(20000);
  BoundQuery query;
  BoundTableRef ref;
  ref.table = db->FindTable("fact").value();
  ref.alias = "fact";
  query.tables.push_back(ref);
  query.group_by.push_back({0, 1});  // fact.value: 50 groups
  query.aggs.push_back({AggFunc::kCountStar, -1, -1});

  PhysicalPlan unhinted = TrivialPlan(query);
  PhysicalPlan hinted = TrivialPlan(query);
  hinted.group_ndv_hint = 50;

  Result<ExecResult> r1 = ExecuteQuery(query, unhinted);
  Result<ExecResult> r2 = ExecuteQuery(query, hinted);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().agg.num_groups, r2.value().agg.num_groups);
  EXPECT_LE(r2.value().stats.agg_resize_count,
            r1.value().stats.agg_resize_count);
  EXPECT_EQ(r2.value().stats.agg_resize_count, 0);
}

TEST(ExecutorTest, JoinOrderChangesIntermediates) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query = testutil::ToyJoinQuery(*db);

  PhysicalPlan fact_first = TrivialPlan(query);
  fact_first.join_order = {0, 1};
  PhysicalPlan dim_first = TrivialPlan(query);
  dim_first.join_order = {1, 0};

  Result<ExecResult> r1 = ExecuteQuery(query, fact_first);
  Result<ExecResult> r2 = ExecuteQuery(query, dim_first);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().ScalarCount(), r2.value().ScalarCount());
}

TEST(ExecutorTest, RejectsEmptyQuery) {
  BoundQuery query;
  PhysicalPlan plan;
  EXPECT_FALSE(ExecuteQuery(query, plan).ok());
}

TEST(ExecutorTest, RejectsPlanMismatch) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query = testutil::ToyJoinQuery(*db);
  PhysicalPlan plan;  // no scans for a 2-table query
  EXPECT_FALSE(ExecuteQuery(query, plan).ok());
}

TEST(ExecutorTest, TracksIoAndIntermediates) {
  auto db = testutil::BuildToyDatabase();
  BoundQuery query = testutil::ToyJoinQuery(*db);
  Result<ExecResult> result = ExecuteQuery(query, TrivialPlan(query));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.io.blocks_read, 0);
  EXPECT_EQ(result.value().stats.intermediate_rows,
            result.value().ScalarCount());
}

// --- ExecStats counters ------------------------------------------------------
// Pins every counter ExecStats reports, over generated STATS, IMDB and AEOLUS
// workloads run in fixed configurations: one FNV-1a hash per configuration
// over each query's counters in a fixed order. The timing fields (exec_ms,
// plan_ms, planning_nanos, queue_ms) are left out. A change to where any
// counter is computed or how the executor folds it changes a hash. Two
// counters read 0 in every leg: decode_cache_evictions (the cache never
// evicts here) and despecialized_morsels (nothing is ingested, so no value
// leaves the domain a kernel was specialized on).

// Every non-timing ExecStats field of `s`, appended to `out` in one order.
void AppendCounters(const ExecStats& s, std::string* out) {
  const std::initializer_list<int64_t> counters = {
      s.io.blocks_read,
      s.io.rows_scanned,
      s.io.blocks_pruned,
      s.io.encoded_blocks,
      s.io.decode_cache_hits,
      s.io.decode_cache_evictions,
      s.threads_used,
      s.parallel_tasks,
      s.specialized_ops,
      s.dense_agg_ops,
      s.array_join_ops,
      s.despecialized_morsels,
      s.intermediate_rows,
      s.probe_rows_materialized,
      s.intermediate_values,
      s.peak_intermediate_values,
      s.columns_pruned,
      s.agg_resize_count,
      s.estimator_calls,
      s.memo_hits,
      s.fallback_estimates,
      s.feedback_hits,
      s.probe_cache_hits,
      static_cast<int64_t>(s.snapshot_version),
      s.route_classes,
      s.routed_estimates,
      s.route_fallbacks,
      s.heavy_lane,
      s.feedback_records,
  };
  for (const int64_t v : counters) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  out->append(reinterpret_cast<const char*>(&s.max_op_qerror),
              sizeof(s.max_op_qerror));
}

// A hand-built routing table over `queries`' route classes, as MineRoutes
// would publish one: scan classes alternate between the sample family (which
// answers them), BN and general; the all-tables join classes route to the
// zone-map family, which cannot answer a join and so falls back; group
// classes route to the traditional family.
std::shared_ptr<const routing::RoutingTable> HandBuiltRoutes(
    const std::vector<BoundQuery>& queries) {
  auto table = std::make_shared<routing::RoutingTable>();
  auto decide = [&](const std::string& route_class,
                    routing::RouteFamily family) {
    routing::RouteDecision decision;
    decision.family = family;
    decision.samples = 3;
    table->Insert(route_class, decision);
  };
  const routing::RouteFamily scan_families[] = {routing::RouteFamily::kSample,
                                                routing::RouteFamily::kBn,
                                                routing::RouteFamily::kGeneral};
  int scans = 0;
  for (const BoundQuery& query : queries) {
    for (const BoundTableRef& ref : query.tables) {
      if (ref.filters.empty()) continue;
      decide(cardest::CardEstRequest::Selectivity(*ref.table, ref.filters)
                 .RouteClass(),
             scan_families[scans++ % 3]);
    }
    if (query.tables.size() > 1) {
      decide(cardest::CardEstRequest::Count(query).RouteClass(),
             routing::RouteFamily::kZoneMap);
    }
    if (!query.group_by.empty()) {
      decide(cardest::CardEstRequest::GroupNdv(query).RouteClass(),
             routing::RouteFamily::kTraditional);
    }
  }
  return table;
}

// Runs `queries` through every configuration and returns one counter hash per
// configuration, keyed by its name. Configurations run in a fixed order on
// one database whose decode cache never evicts, so each one sees the same
// cache state on every run.
std::map<std::string, uint64_t> CounterHashes(
    Database* db, const std::string& workload_name) {
  db->SetDecodeCacheBytes(int64_t{1} << 30);
  workload::WorkloadOptions wl_options;
  wl_options.num_count_queries = 1;
  wl_options.num_agg_queries = 12;
  wl_options.max_executable_count = 20000;
  wl_options.seed = 7;
  Result<workload::Workload> wl =
      workload::BuildWorkload(*db, workload_name, wl_options);
  BC_CHECK_OK(wl.status());
  std::vector<BoundQuery> queries;
  for (const workload::WorkloadQuery& wq : wl.value().queries) {
    if (wq.aggregate) queries.push_back(wq.query);
  }
  BC_CHECK(queries.size() >= 4);

  std::map<std::string, uint64_t> hashes;
  auto run_leg = [&](const std::string& name, auto run_query) {
    std::string bytes;
    for (const BoundQuery& query : queries) {
      Result<ExecResult> result = run_query(query);
      BC_CHECK_OK(result.status());
      AppendCounters(result.value().stats, &bytes);
    }
    hashes[name] = testutil::Fnv1a64(bytes);
  };

  // Sketch estimator: dop {1, 4} x SIP x prune_columns x specialize_ops.
  const std::unique_ptr<stats::SketchStatistics> statistics =
      stats::SketchStatistics::Build(*db, 64);
  stats::SketchEstimator sketch(statistics.get());
  for (const int dop : {1, 4}) {
    for (const bool sip : {false, true}) {
      for (const bool prune : {false, true}) {
        for (const bool specialize : {false, true}) {
          OptimizerOptions options;
          options.max_dop = dop;
          options.min_dop_work_rows = kBlockRows / 4;
          options.features.sip = sip;
          options.features.prune_columns = prune;
          options.features.specialize_ops = specialize;
          const Optimizer optimizer(options);
          const std::string name = "sketch/dop" + std::to_string(dop) +
                                   (sip ? "/sip" : "") +
                                   (prune ? "/prune" : "") +
                                   (specialize ? "/specialize" : "");
          run_leg(name, [&](const BoundQuery& query) {
            return PlanAndExecute(query, optimizer, &sketch);
          });
        }
      }
    }
  }

  // Unhinted aggregation tables grow as groups arrive.
  OptimizerOptions unhinted;
  unhinted.use_ndv_hint = false;
  const Optimizer unhinted_optimizer(unhinted);
  run_leg("sketch/dop1/no-ndv-hint", [&](const BoundQuery& query) {
    return PlanAndExecute(query, unhinted_optimizer, &sketch);
  });

  // ByteCard: a hand-built routing table, then two passes with runtime
  // feedback on (the second served partly from the feedback cache), then one
  // pass through the scheduler with one table's model demoted to the
  // traditional fallback.
  const testutil::TempDir dir("exec_stats_" + workload_name);
  ByteCard::Options bc_options;
  bc_options.rbx.population_sizes = {10000};
  bc_options.rbx.sample_rates = {0.05};
  bc_options.rbx.replicas = 1;
  bc_options.rbx.epochs = 10;
  bc_options.run_monitor = false;
  Result<std::unique_ptr<ByteCard>> bootstrapped =
      ByteCard::Bootstrap(*db, queries, dir.str(), bc_options);
  BC_CHECK_OK(bootstrapped.status());
  ByteCard* bytecard = bootstrapped.value().get();
  const Optimizer optimizer;

  SnapshotBuilder builder(bytecard->snapshot(), nullptr);
  BC_CHECK_OK(builder.SetRoutingTable(HandBuiltRoutes(queries)));
  Result<std::shared_ptr<const EstimatorSnapshot>> routed = builder.Finish();
  BC_CHECK_OK(routed.status());
  BC_CHECK(routed.value()->routing_live());
  run_leg("bytecard/routed", [&](const BoundQuery& query) {
    SnapshotEstimator view(routed.value());
    return PlanAndExecute(query, optimizer, &view);
  });

  bytecard->EnableFeedback();
  for (const char* pass : {"bytecard/feedback1", "bytecard/feedback2"}) {
    run_leg(pass, [&](const BoundQuery& query) {
      return PlanAndExecute(query, optimizer, bytecard);
    });
  }

  bytecard->SetTableHealth(queries[0].tables[0].table->name(), false);
  SchedulerOptions sched_options;
  sched_options.heavy_rows_threshold = 2000;
  QueryScheduler scheduler(bytecard, sched_options);
  run_leg("bytecard/scheduler", [&](const BoundQuery& query) {
    return scheduler.Wait(scheduler.Submit(query));
  });
  return hashes;
}

void ExpectCounterHashes(const std::map<std::string, uint64_t>& got,
                         const std::map<std::string, uint64_t>& expected) {
  EXPECT_EQ(got.size(), expected.size());
  for (const auto& [name, hash] : expected) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second, hash) << name;
  }
}

TEST(ExecStatsTest, StatsCountersUnchanged) {
  auto db = workload::GenerateStats(0.5, 11);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectCounterHashes(
      CounterHashes(db.value().get(), "STATS-Hybrid"),
      {
          {"bytecard/feedback1", 0x0b3eb3a690cb0828ULL},
          {"bytecard/feedback2", 0x49cf0b6ee0315c96ULL},
          {"bytecard/routed", 0x5075ea68f0064a98ULL},
          {"bytecard/scheduler", 0x403e88f0430d645aULL},
          {"sketch/dop1", 0x70cfe895f2e8b64dULL},
          {"sketch/dop1/no-ndv-hint", 0xceb643832e4e7823ULL},
          {"sketch/dop1/prune", 0xdd4fcb76edc09aeaULL},
          {"sketch/dop1/prune/specialize", 0x2d306fb0808962f4ULL},
          {"sketch/dop1/sip", 0x464bbf56475bfd41ULL},
          {"sketch/dop1/sip/prune", 0x54d015622fdc89c1ULL},
          {"sketch/dop1/sip/prune/specialize", 0xea05ee8399e23b33ULL},
          {"sketch/dop1/sip/specialize", 0xc2b64b74c4195223ULL},
          {"sketch/dop1/specialize", 0xc79e4c5ca2ec6cacULL},
          {"sketch/dop4", 0x2e4ed31d8444c21eULL},
          {"sketch/dop4/prune", 0xa0bd5c9504188a96ULL},
          {"sketch/dop4/prune/specialize", 0x8b315ac18a8762c0ULL},
          {"sketch/dop4/sip", 0xfddabcc62797f301ULL},
          {"sketch/dop4/sip/prune", 0xe0d0ef21d96f0461ULL},
          {"sketch/dop4/sip/prune/specialize", 0xb8ab3c842dfb05fbULL},
          {"sketch/dop4/sip/specialize", 0x7caa551df1c2eefbULL},
          {"sketch/dop4/specialize", 0x470cb797fc3edd40ULL},
      });
}

TEST(ExecStatsTest, ImdbCountersUnchanged) {
  auto db = workload::GenerateImdb(0.3, 11);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectCounterHashes(
      CounterHashes(db.value().get(), "JOB-Hybrid"),
      {
          {"bytecard/feedback1", 0x34127b00f8e1e496ULL},
          {"bytecard/feedback2", 0x2fd084dbbb82f199ULL},
          {"bytecard/routed", 0x3ab2c338269a8835ULL},
          {"bytecard/scheduler", 0x04691bfddb356874ULL},
          {"sketch/dop1", 0x565ed0ae77eaa434ULL},
          {"sketch/dop1/no-ndv-hint", 0xbccb35a6cccd5f1eULL},
          {"sketch/dop1/prune", 0xe930fddbdd769d61ULL},
          {"sketch/dop1/prune/specialize", 0xe19385d8fd52b55fULL},
          {"sketch/dop1/sip", 0xb4888504268c54caULL},
          {"sketch/dop1/sip/prune", 0x3deb2204234296f2ULL},
          {"sketch/dop1/sip/prune/specialize", 0x61db41c1c86d31e4ULL},
          {"sketch/dop1/sip/specialize", 0xd89ad175254a9408ULL},
          {"sketch/dop1/specialize", 0x4a0a72db16bccfe3ULL},
          {"sketch/dop4", 0x62c2f9b425891f65ULL},
          {"sketch/dop4/prune", 0x3e1fa6986ca4e88dULL},
          {"sketch/dop4/prune/specialize", 0xe7db289064d0095bULL},
          {"sketch/dop4/sip", 0xa7fc363829ad2494ULL},
          {"sketch/dop4/sip/prune", 0xf03c520ecfb17180ULL},
          {"sketch/dop4/sip/prune/specialize", 0x0ce4c2916b3ad23eULL},
          {"sketch/dop4/sip/specialize", 0x32b29c33ab07528eULL},
          {"sketch/dop4/specialize", 0x4bf01397f1a51827ULL},
      });
}

TEST(ExecStatsTest, AeolusCountersUnchanged) {
  auto db = workload::GenerateAeolus(1.0, 11);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectCounterHashes(
      CounterHashes(db.value().get(), "AEOLUS-Online"),
      {
          {"bytecard/feedback1", 0x9e94db2b4be4df9dULL},
          {"bytecard/feedback2", 0xbe240359279fb2f5ULL},
          {"bytecard/routed", 0x608b401a761686fbULL},
          {"bytecard/scheduler", 0xd4283e3c5194bd6fULL},
          {"sketch/dop1", 0x86d2b207997275a0ULL},
          {"sketch/dop1/no-ndv-hint", 0xdadc3ab5ad956bebULL},
          {"sketch/dop1/prune", 0x920d601c907ece38ULL},
          {"sketch/dop1/prune/specialize", 0x3f698b48b7c289b8ULL},
          {"sketch/dop1/sip", 0xcd27ce57248ceed7ULL},
          {"sketch/dop1/sip/prune", 0x05f0f90bf5d0c5f3ULL},
          {"sketch/dop1/sip/prune/specialize", 0xcecad44bc37a17f3ULL},
          {"sketch/dop1/sip/specialize", 0x55f02626227c81d7ULL},
          {"sketch/dop1/specialize", 0xe41ac3cd1a681814ULL},
          {"sketch/dop4", 0xf3420acff95e4903ULL},
          {"sketch/dop4/prune", 0x386c910c823a023fULL},
          {"sketch/dop4/prune/specialize", 0x90e1266c3616ffbfULL},
          {"sketch/dop4/sip", 0xa552827d0876b380ULL},
          {"sketch/dop4/sip/prune", 0x3d4b48698f45aee4ULL},
          {"sketch/dop4/sip/prune/specialize", 0x4b6887e451b9f7e4ULL},
          {"sketch/dop4/sip/specialize", 0x038d2a8fb2954180ULL},
          {"sketch/dop4/specialize", 0xc46d8058c99e8183ULL},
      });
}

}  // namespace
}  // namespace bytecard::minihouse
