// Dataset generators, join-template enumeration, query generation, the truth
// oracle, and workload assembly (Table 5 shape).

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include <cmath>

#include "minihouse/executor.h"
#include "sql/analyzer.h"
#include "workload/datagen.h"
#include "workload/qerror.h"
#include "workload/query_gen.h"
#include "workload/truth.h"
#include "workload/workload.h"

namespace bytecard::workload {
namespace {

// --- QError helpers -------------------------------------------------------------

TEST(QErrorTest, Basics) {
  EXPECT_EQ(QError(10, 10), 1.0);
  EXPECT_EQ(QError(100, 10), 10.0);
  EXPECT_EQ(QError(10, 100), 10.0);
  EXPECT_EQ(QError(0, 0), 1.0);  // floored at 1
  EXPECT_GE(QError(1e-9, 5), 5.0);
}

TEST(QErrorTest, Quantiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_NEAR(Quantile(values, 0.5), 50.5, 1.0);
  EXPECT_NEAR(Quantile(values, 0.99), 99.0, 1.1);
  EXPECT_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_EQ(Quantile(values, 1.0), 100.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  const QuantileSummary summary = Summarize(values);
  EXPECT_LE(summary.min, summary.p25);
  EXPECT_LE(summary.p25, summary.p50);
  EXPECT_LE(summary.p50, summary.p75);
  EXPECT_LE(summary.p75, summary.p90);
  EXPECT_LE(summary.p90, summary.p99);
  EXPECT_LE(summary.p99, summary.max);
}

TEST(QErrorTest, QuantileInterpolatesBetweenRanks) {
  // Pins the linear-interpolation contract: quantiles that land between two
  // observations blend them by distance, instead of snapping to the nearest
  // rank (which would return a sample value here).
  const std::vector<double> pair = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(pair, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile(pair, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(Quantile(pair, 0.75), 2.5);

  const std::vector<double> values = {10.0, 20.0, 40.0, 80.0};
  // pos = q * 3: 0.5 -> rank 1.5 -> midway between 20 and 40.
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 30.0);
  // 0.9 -> rank 2.7 -> 40 * 0.3 + 80 * 0.7.
  EXPECT_DOUBLE_EQ(Quantile(values, 0.9), 68.0);
  // Exact ranks return the observation itself, at any position.
  EXPECT_DOUBLE_EQ(Quantile({10.0, 20.0, 40.0}, 0.5), 20.0);
  // A single observation is every quantile.
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.33), 7.0);
}

// --- Dataset generators ------------------------------------------------------------

TEST(DatagenTest, ImdbShape) {
  auto db = GenerateImdb(0.1, 42);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->num_tables(), 6);
  const minihouse::Table* title = db.value()->FindTable("title").value();
  EXPECT_GT(title->num_rows(), 1000);
  // FK integrity: every movie_id within title's id range.
  const minihouse::Table* mc =
      db.value()->FindTable("movie_companies").value();
  for (int64_t i = 0; i < std::min<int64_t>(mc->num_rows(), 500); ++i) {
    const int64_t fk = mc->column(0).NumericAt(i);
    EXPECT_GE(fk, 0);
    EXPECT_LT(fk, title->num_rows());
  }
}

TEST(DatagenTest, Deterministic) {
  auto a = GenerateImdb(0.05, 7);
  auto b = GenerateImdb(0.05, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const minihouse::Table* ta = a.value()->FindTable("title").value();
  const minihouse::Table* tb = b.value()->FindTable("title").value();
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (int64_t i = 0; i < ta->num_rows(); i += 97) {
    EXPECT_EQ(ta->column(2).NumericAt(i), tb->column(2).NumericAt(i));
  }
}

TEST(DatagenTest, ScaleMultipliesRows) {
  auto small = GenerateStats(0.05, 3);
  auto large = GenerateStats(0.1, 3);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large.value()->TotalRows(), small.value()->TotalRows() * 1.5);
}

TEST(DatagenTest, StatsCorrelationPresent) {
  auto db = GenerateStats(0.1, 5);
  ASSERT_TRUE(db.ok());
  const minihouse::Table* users = db.value()->FindTable("users").value();
  // up_votes tracks reputation: Pearson correlation should be strong.
  const int rep = users->FindColumnIndex("reputation");
  const int up = users->FindColumnIndex("up_votes");
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  const int64_t n = users->num_rows();
  for (int64_t i = 0; i < n; ++i) {
    const double x = users->column(rep).DoubleAt(i);
    const double y = users->column(up).DoubleAt(i);
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  EXPECT_GT(cov / std::sqrt(vx * vy), 0.7);
}

TEST(DatagenTest, AeolusPlatformContentDependency) {
  auto db = GenerateAeolus(0.1, 9);
  ASSERT_TRUE(db.ok());
  const minihouse::Table* events = db.value()->FindTable("ad_events").value();
  const int platform = events->FindColumnIndex("platform");
  const int content = events->FindColumnIndex("content_type");
  // For platform 0, content types concentrate on {0, 1} (Fig. 3 structure).
  int64_t p0 = 0;
  int64_t p0_c01 = 0;
  for (int64_t i = 0; i < events->num_rows(); ++i) {
    if (events->column(platform).NumericAt(i) == 0) {
      ++p0;
      const int64_t c = events->column(content).NumericAt(i);
      if (c <= 1) ++p0_c01;
    }
  }
  ASSERT_GT(p0, 100);
  EXPECT_GT(static_cast<double>(p0_c01) / p0, 0.7);
}

TEST(DatagenTest, AeolusHasArrayAndStringAndFloatColumns) {
  auto db = GenerateAeolus(0.05, 1);
  ASSERT_TRUE(db.ok());
  const minihouse::Table* events = db.value()->FindTable("ad_events").value();
  EXPECT_EQ(events->schema()
                .column(events->FindColumnIndex("tags"))
                .type,
            minihouse::DataType::kArray);
  EXPECT_EQ(events->schema()
                .column(events->FindColumnIndex("cost"))
                .type,
            minihouse::DataType::kFloat64);
  const minihouse::Table* regions = db.value()->FindTable("regions").value();
  EXPECT_EQ(regions->schema()
                .column(regions->FindColumnIndex("country"))
                .type,
            minihouse::DataType::kString);
}

TEST(DatagenTest, UnknownDatasetRejected) {
  EXPECT_FALSE(GenerateDataset("nope", 1.0, 1).ok());
}

TEST(DatagenTest, FullJoinTemplateIsSpanningTree) {
  for (const char* name : {"imdb", "stats", "aeolus"}) {
    auto db = GenerateDataset(name, 0.05, 2);
    ASSERT_TRUE(db.ok());
    auto tmpl = FullJoinTemplate(*db.value(), name);
    ASSERT_TRUE(tmpl.ok()) << name;
    EXPECT_EQ(tmpl.value().joins.size(),
              tmpl.value().tables.size() - 1)
        << name;
  }
}

// --- Join templates ------------------------------------------------------------------

TEST(JoinTemplateTest, ImdbCountMatchesTable5) {
  const auto templates = EnumerateJoinTemplates("imdb", 5, 23);
  EXPECT_EQ(templates.size(), 23u);
  for (const JoinTemplate& t : templates) {
    EXPECT_GE(t.tables.size(), 2u);
    EXPECT_LE(t.tables.size(), 5u);
    EXPECT_EQ(t.edges.size(), t.tables.size() - 1);  // spanning tree
  }
}

TEST(JoinTemplateTest, StatsCountMatchesTable5) {
  const auto templates = EnumerateJoinTemplates("stats", 8, 70);
  EXPECT_EQ(templates.size(), 70u);
  size_t max_tables = 0;
  for (const JoinTemplate& t : templates) {
    max_tables = std::max(max_tables, t.tables.size());
  }
  EXPECT_GE(max_tables, 6u);
}

TEST(JoinTemplateTest, TemplatesAreUniqueAndConnected) {
  const auto templates = EnumerateJoinTemplates("aeolus", 5, 100);
  std::set<std::vector<std::string>> seen;
  for (const JoinTemplate& t : templates) {
    EXPECT_TRUE(seen.insert(t.tables).second) << "duplicate template";
  }
}

// --- Truth oracle ---------------------------------------------------------------------

TEST(TruthTest, SingleTableCount) {
  auto db = GenerateImdb(0.05, 11);
  ASSERT_TRUE(db.ok());
  const minihouse::Table* title = db.value()->FindTable("title").value();
  minihouse::BoundQuery query;
  minihouse::BoundTableRef ref;
  ref.table = title;
  ref.alias = "title";
  minihouse::ColumnPredicate pred;
  pred.column = title->FindColumnIndex("kind_id");
  pred.op = minihouse::CompareOp::kEq;
  pred.operand = 0;
  ref.filters.push_back(pred);
  query.tables.push_back(ref);

  auto truth = TrueCount(query);
  ASSERT_TRUE(truth.ok());
  // Cross-check by scanning.
  int64_t expected = 0;
  for (int64_t i = 0; i < title->num_rows(); ++i) {
    if (title->column(pred.column).NumericAt(i) == 0) ++expected;
  }
  EXPECT_EQ(truth.value(), expected);
}

TEST(TruthTest, JoinCountMatchesExecutor) {
  auto db = GenerateImdb(0.03, 13);
  ASSERT_TRUE(db.ok());
  const auto templates = EnumerateJoinTemplates("imdb", 3, 10);
  QueryGenOptions options;
  Rng rng(17);
  int checked = 0;
  for (const JoinTemplate& tmpl : templates) {
    auto wq = GenerateCountQuery(*db.value(), tmpl, options, &rng);
    ASSERT_TRUE(wq.ok());
    auto truth = TrueCount(wq.value().query);
    ASSERT_TRUE(truth.ok());
    if (truth.value() > 300000) continue;  // keep executor runs small

    minihouse::PhysicalPlan plan;
    plan.scans.resize(wq.value().query.tables.size());
    auto executed = minihouse::ExecuteQuery(wq.value().query, plan);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_EQ(truth.value(), executed.value().ScalarCount())
        << wq.value().sql;
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

TEST(TruthTest, ColumnNdv) {
  auto db = GenerateAeolus(0.05, 19);
  ASSERT_TRUE(db.ok());
  const minihouse::Table* events = db.value()->FindTable("ad_events").value();
  const int platform = events->FindColumnIndex("platform");
  auto ndv = TrueColumnNdv(*events, platform, {});
  ASSERT_TRUE(ndv.ok());
  EXPECT_EQ(ndv.value(), 5);
  EXPECT_FALSE(TrueColumnNdv(*events, 999, {}).ok());
}

TEST(TruthTest, RejectsCyclicJoinGraph) {
  auto db = GenerateImdb(0.02, 21);
  ASSERT_TRUE(db.ok());
  const auto templates = EnumerateJoinTemplates("imdb", 2, 1);
  ASSERT_FALSE(templates.empty());
  QueryGenOptions options;
  Rng rng(1);
  auto wq = GenerateCountQuery(*db.value(), templates[0], options, &rng);
  ASSERT_TRUE(wq.ok());
  minihouse::BoundQuery query = wq.value().query;
  query.joins.push_back(query.joins[0]);  // duplicate edge -> not a tree
  EXPECT_FALSE(TrueCount(query).ok());
}

// --- Query generation / workloads --------------------------------------------------------

TEST(QueryGenTest, CountQueriesAreWellFormed) {
  auto db = GenerateStats(0.05, 23);
  ASSERT_TRUE(db.ok());
  const auto templates = EnumerateJoinTemplates("stats", 5, 20);
  QueryGenOptions options;
  Rng rng(29);
  for (const JoinTemplate& tmpl : templates) {
    auto wq = GenerateCountQuery(*db.value(), tmpl, options, &rng);
    ASSERT_TRUE(wq.ok());
    EXPECT_EQ(wq.value().query.joins.size(),
              wq.value().query.tables.size() - 1);
    EXPECT_FALSE(wq.value().sql.empty());
    EXPECT_FALSE(wq.value().aggregate);
  }
}

TEST(QueryGenTest, SqlRoundTripsThroughAnalyzer) {
  auto db = GenerateImdb(0.03, 31);
  ASSERT_TRUE(db.ok());
  const auto templates = EnumerateJoinTemplates("imdb", 4, 15);
  QueryGenOptions options;
  Rng rng(37);
  for (const JoinTemplate& tmpl : templates) {
    auto wq = GenerateCountQuery(*db.value(), tmpl, options, &rng);
    ASSERT_TRUE(wq.ok());
    auto reparsed = sql::AnalyzeSql(wq.value().sql, *db.value());
    ASSERT_TRUE(reparsed.ok())
        << wq.value().sql << " -> " << reparsed.status().ToString();
    // Same true cardinality through both paths.
    auto t1 = TrueCount(wq.value().query);
    auto t2 = TrueCount(reparsed.value());
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(t2.ok());
    EXPECT_EQ(t1.value(), t2.value()) << wq.value().sql;
  }
}

TEST(QueryGenTest, NdvProbes) {
  auto db = GenerateAeolus(0.05, 41);
  ASSERT_TRUE(db.ok());
  QueryGenOptions options;
  Rng rng(43);
  for (int i = 0; i < 10; ++i) {
    auto probe = GenerateNdvProbe(*db.value(), "ad_events", options, &rng);
    ASSERT_TRUE(probe.ok());
    EXPECT_GE(probe.value().column, 0);
    auto truth = TrueColumnNdv(
        *db.value()->FindTable("ad_events").value(), probe.value().column,
        probe.value().filters);
    ASSERT_TRUE(truth.ok());
  }
}

TEST(WorkloadTest, BuildAllThreeWorkloads) {
  struct Case {
    const char* workload;
    const char* dataset;
  };
  for (const Case& c : {Case{"JOB-Hybrid", "imdb"},
                        Case{"STATS-Hybrid", "stats"},
                        Case{"AEOLUS-Online", "aeolus"}}) {
    auto db = GenerateDataset(c.dataset, 0.05, 47);
    ASSERT_TRUE(db.ok());
    WorkloadOptions options;
    options.num_count_queries = 12;
    options.num_agg_queries = 6;
    options.max_executable_count = 30000;
    auto workload = BuildWorkload(*db.value(), c.workload, options);
    ASSERT_TRUE(workload.ok()) << c.workload;
    EXPECT_GE(workload.value().queries.size(), 12u);
    EXPECT_EQ(workload.value().dataset, c.dataset);
    EXPECT_GT(workload.value().num_join_templates, 0);

    std::vector<int64_t> truths;
    for (const WorkloadQuery& wq : workload.value().queries) {
      auto truth = TrueCount(wq.query);
      ASSERT_TRUE(truth.ok());
      truths.push_back(truth.value());
    }
    auto stats = ComputeWorkloadStats(workload.value(), truths);
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats.value().min_joined_tables, 2);
    EXPECT_GT(stats.value().max_true_cardinality, 0.0);
    EXPECT_GT(stats.value().queries_at_max_tables, 0);
  }
}

TEST(WorkloadTest, UnknownNameRejected) {
  auto db = GenerateImdb(0.02, 1);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(BuildWorkload(*db.value(), "NOPE", {}).ok());
  EXPECT_FALSE(DatasetOf("NOPE").ok());
  EXPECT_EQ(DatasetOf("JOB-Hybrid").value(), "imdb");
}

TEST(WorkloadTest, AggQueriesExecutable) {
  auto db = GenerateAeolus(0.05, 53);
  ASSERT_TRUE(db.ok());
  WorkloadOptions options;
  options.num_count_queries = 2;
  options.num_agg_queries = 6;
  options.max_executable_count = 20000;
  auto workload = BuildWorkload(*db.value(), "AEOLUS-Online", options);
  ASSERT_TRUE(workload.ok());
  int executed = 0;
  for (const WorkloadQuery& wq : workload.value().queries) {
    if (!wq.aggregate) continue;
    minihouse::PhysicalPlan plan;
    plan.scans.resize(wq.query.tables.size());
    auto result = minihouse::ExecuteQuery(wq.query, plan);
    ASSERT_TRUE(result.ok()) << wq.sql;
    EXPECT_GE(wq.num_group_keys, 2);
    EXPECT_LE(wq.num_group_keys, 4);
    ++executed;
  }
  EXPECT_GE(executed, 3);
}

}  // namespace
}  // namespace bytecard::workload
