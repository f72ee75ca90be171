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
      s.bytes_resident,
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
    return scheduler.Execute(query);
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
          {"bytecard/feedback1", 0x31330a1bb22e87feULL},
          {"bytecard/feedback2", 0x6346320ae44930ccULL},
          {"bytecard/routed", 0xc443af298f17c8d6ULL},
          {"bytecard/scheduler", 0x8abe9d674723a124ULL},
          {"sketch/dop1", 0x7656a7ac50945dc4ULL},
          {"sketch/dop1/no-ndv-hint", 0x03e5fad20bd869a1ULL},
          {"sketch/dop1/prune", 0x5eae9f651531cc40ULL},
          {"sketch/dop1/prune/specialize", 0xe5f7d52f343a8beeULL},
          {"sketch/dop1/sip", 0xdca90ee8f67938b7ULL},
          {"sketch/dop1/sip/prune", 0xdf7ac1039b2146bfULL},
          {"sketch/dop1/sip/prune/specialize", 0x4baa868f203bf265ULL},
          {"sketch/dop1/sip/specialize", 0x6341e83edaac1a5dULL},
          {"sketch/dop1/specialize", 0xb9ff458cb4c83b4eULL},
          {"sketch/dop4", 0x9ef3a2d0bf6dcf3cULL},
          {"sketch/dop4/prune", 0x86a62a579ee46d2cULL},
          {"sketch/dop4/prune/specialize", 0x43540403304d2ecaULL},
          {"sketch/dop4/sip", 0x2c6795de8b94ee5fULL},
          {"sketch/dop4/sip/prune", 0x91e1e5d8b29288b7ULL},
          {"sketch/dop4/sip/prune/specialize", 0xc1d095e1731a0ca5ULL},
          {"sketch/dop4/sip/specialize", 0x8d497d3b9a6bc56dULL},
          {"sketch/dop4/specialize", 0x824a914340a39532ULL},
      });
}

TEST(ExecStatsTest, ImdbCountersUnchanged) {
  auto db = workload::GenerateImdb(0.3, 11);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectCounterHashes(
      CounterHashes(db.value().get(), "JOB-Hybrid"),
      {
          {"bytecard/feedback1", 0xf5f31eb9bd34874fULL},
          {"bytecard/feedback2", 0xb224175d867ea764ULL},
          {"bytecard/routed", 0x4f2af511c2a29c24ULL},
          {"bytecard/scheduler", 0x97a8558a4dd78965ULL},
          {"sketch/dop1", 0x251b60c3e9d49527ULL},
          {"sketch/dop1/no-ndv-hint", 0x751bce862f3b9527ULL},
          {"sketch/dop1/prune", 0x110acec05b0ba718ULL},
          {"sketch/dop1/prune/specialize", 0x3ffba91e25759da6ULL},
          {"sketch/dop1/sip", 0x842dcf8e121fbc5fULL},
          {"sketch/dop1/sip/prune", 0x2ce86cb3d78514e3ULL},
          {"sketch/dop1/sip/prune/specialize", 0x4e2944a047258185ULL},
          {"sketch/dop1/sip/specialize", 0xcd02809df64267e5ULL},
          {"sketch/dop1/specialize", 0x123f88f27babd55eULL},
          {"sketch/dop4", 0x029d0d2eab6bd6b0ULL},
          {"sketch/dop4/prune", 0x3cb8b0cc721ccf0cULL},
          {"sketch/dop4/prune/specialize", 0xdfc3ed65fe549682ULL},
          {"sketch/dop4/sip", 0x8c9fde9bd4734bb5ULL},
          {"sketch/dop4/sip/prune", 0xe503744e41959755ULL},
          {"sketch/dop4/sip/prune/specialize", 0xb98a91d7f9f661e3ULL},
          {"sketch/dop4/sip/specialize", 0x40c518e8c91c1c07ULL},
          {"sketch/dop4/specialize", 0x82adbb6c73e46a42ULL},
      });
}

TEST(ExecStatsTest, AeolusCountersUnchanged) {
  auto db = workload::GenerateAeolus(1.0, 11);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectCounterHashes(
      CounterHashes(db.value().get(), "AEOLUS-Online"),
      {
          {"bytecard/feedback1", 0x0be898a9a0151881ULL},
          {"bytecard/feedback2", 0xfa3840598aa7bc75ULL},
          {"bytecard/routed", 0x182c838db1820463ULL},
          {"bytecard/scheduler", 0xe36bd85af53d1d13ULL},
          {"sketch/dop1", 0x1d2410c0ce6e7f5fULL},
          {"sketch/dop1/no-ndv-hint", 0x3a758391a6c7bebbULL},
          {"sketch/dop1/prune", 0xc90971a15c2aa4ecULL},
          {"sketch/dop1/prune/specialize", 0x13ef0eeeb2dc156cULL},
          {"sketch/dop1/sip", 0x4a7558bbbbb79bbfULL},
          {"sketch/dop1/sip/prune", 0x7884f159cf03b80fULL},
          {"sketch/dop1/sip/prune/specialize", 0x6b0128ce00991a0fULL},
          {"sketch/dop1/sip/specialize", 0xc47cb62de6aec0bfULL},
          {"sketch/dop1/specialize", 0xe76dc784abb42224ULL},
          {"sketch/dop4", 0x46cf9459240c122fULL},
          {"sketch/dop4/prune", 0xf33a28d78bac4a87ULL},
          {"sketch/dop4/prune/specialize", 0x315f9ed5ed4fce07ULL},
          {"sketch/dop4/sip", 0x702944035314b7f4ULL},
          {"sketch/dop4/sip/prune", 0x592c0d5bc86e1484ULL},
          {"sketch/dop4/sip/prune/specialize", 0x0585566eaa6d7e84ULL},
          {"sketch/dop4/sip/specialize", 0x7620edc7492a5af4ULL},
          {"sketch/dop4/specialize", 0x6133cdd65ebabcafULL},
      });
}

}  // namespace
}  // namespace bytecard::minihouse
