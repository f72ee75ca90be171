// The adaptive routing layer: operand-free route classes, the mined
// RoutingTable (serde, validation, drift retirement), the RouteMiner's
// trace-replay scoring, the byte-identity invariant (an empty routing table
// leaves every estimate bit-for-bit unchanged), and the TSan leg racing
// route re-mining against concurrent estimation streams.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "bytecard/routing/route_miner.h"
#include "bytecard/routing/routing_table.h"
#include "cardest/request.h"
#include "common/serde.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "test_util.h"

namespace bytecard {
namespace {

using minihouse::AggFunc;
using minihouse::BoundQuery;
using minihouse::BoundTableRef;
using minihouse::ColumnPredicate;
using minihouse::CompareOp;
using routing::RouteDecision;
using routing::RouteFamily;
using routing::RoutingTable;

ColumnPredicate Pred(int column, CompareOp op, int64_t operand,
                     int64_t operand2 = 0) {
  ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

// The route class of a scan of `table` under `filters`.
std::string TableClass(const minihouse::Table& table,
                       const minihouse::Conjunction& filters) {
  return cardest::CardEstRequest::Selectivity(table, filters).RouteClass();
}

// COUNT(*) over fact under one filter.
BoundQuery FactCountQuery(const minihouse::Database& db, ColumnPredicate pred) {
  BoundQuery query;
  BoundTableRef fact;
  fact.table = db.FindTable("fact").value();
  fact.alias = "fact";
  fact.filters = {std::move(pred)};
  query.tables = {fact};
  query.aggs = {{AggFunc::kCountStar, -1, -1}};
  return query;
}

// --- Route classes ------------------------------------------------------------

TEST(RoutingClassTest, ShapesDropOperandsKeepStructure) {
  auto db = testutil::BuildToyDatabase(500);
  const minihouse::Table& fact = *db->FindTable("fact").value();

  // Same template, different constants: one class.
  const std::string a = TableClass(fact, {Pred(1, CompareOp::kLt, 10)});
  const std::string b = TableClass(fact, {Pred(1, CompareOp::kLt, 40)});
  EXPECT_EQ(a, b);
  // The operand is really gone from the token.
  EXPECT_EQ(a.find("10"), std::string::npos) << a;

  // Different operator or column: different class.
  EXPECT_NE(a, TableClass(fact, {Pred(1, CompareOp::kGe, 10)}));
  EXPECT_NE(a, TableClass(fact, {Pred(2, CompareOp::kLt, 10)}));

  // Predicate order is canonicalized away.
  EXPECT_EQ(TableClass(fact, {Pred(1, CompareOp::kLt, 10),
                              Pred(2, CompareOp::kEq, 1)}),
            TableClass(fact, {Pred(2, CompareOp::kEq, 7),
                              Pred(1, CompareOp::kLt, 3)}));
}

TEST(RoutingClassTest, RouteClassOfMatchesShapeHelpers) {
  auto db = testutil::BuildToyDatabase(500);
  BoundQuery join = testutil::ToyJoinQuery(*db);
  join.tables[0].filters = {Pred(1, CompareOp::kLt, 25)};

  // The join request's class is the full-subset subplan shape.
  const std::vector<int> both = {0, 1};
  const std::vector<int> first = {0};
  const std::string join_cls =
      cardest::CardEstRequest::Count(join).RouteClass();
  EXPECT_EQ(join_cls,
            cardest::CardEstRequest::JoinCount(join, both).RouteClass());

  // A single-table join subset reduces to the bare table shape, exactly like
  // SubplanKey reduces to TableKey.
  EXPECT_EQ(cardest::CardEstRequest::JoinCount(join, first).RouteClass(),
            TableClass(*join.tables[0].table, join.tables[0].filters));

  // Session-memoized and session-free classes are byte-identical.
  cardest::InferenceSession session;
  EXPECT_EQ(cardest::CardEstRequest::Count(join).RouteClass(&session),
            join_cls);

  // Group-NDV requests class under the group shape: "G(" around the
  // all-tables join shape and the group keys.
  join.group_by = {{1, 1}};
  EXPECT_EQ(cardest::CardEstRequest::GroupNdv(join).RouteClass(),
            "G(" + join_cls + ";dim.1)");
}

// --- RoutingTable -------------------------------------------------------------

RouteDecision MakeDecision(RouteFamily family, double med, double general,
                           double latency, int64_t samples,
                           std::vector<std::string> tables) {
  RouteDecision d;
  d.family = family;
  d.median_qerror = med;
  d.general_qerror = general;
  d.mean_latency_nanos = latency;
  d.samples = samples;
  d.tables = std::move(tables);
  return d;
}

TEST(RoutingTableTest, SerdeRoundTrip) {
  RoutingTable table;
  table.set_mined_epoch(7);
  table.set_mined_snapshot_version(42);
  table.Insert("fact(1:lt)", MakeDecision(RouteFamily::kSample, 1.25, 2.5,
                                          850.0, 6, {"fact"}));
  table.Insert("J(dim(),fact(1:lt);0.0=1.0)",
               MakeDecision(RouteFamily::kFactorJoin, 1.5, 1.5, 1200.0, 4,
                            {"dim", "fact"}));
  table.Insert("dim(2:eq)", MakeDecision(RouteFamily::kGeneral, 1.0, 1.0,
                                         2000.0, 9, {"dim"}));

  BufferWriter writer;
  table.Serialize(&writer);
  Result<RoutingTable> restored = RoutingTable::Deserialize(writer.buffer());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const RoutingTable& got = restored.value();
  EXPECT_EQ(got.mined_epoch(), 7u);
  EXPECT_EQ(got.mined_snapshot_version(), 42u);
  ASSERT_EQ(got.size(), 3u);
  const RouteDecision* scan = got.Find("fact(1:lt)");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->family, RouteFamily::kSample);
  EXPECT_DOUBLE_EQ(scan->median_qerror, 1.25);
  EXPECT_DOUBLE_EQ(scan->general_qerror, 2.5);
  EXPECT_DOUBLE_EQ(scan->mean_latency_nanos, 850.0);
  EXPECT_EQ(scan->samples, 6);
  ASSERT_EQ(scan->tables.size(), 1u);
  EXPECT_EQ(scan->tables[0], "fact");
  const RouteDecision* join = got.Find("J(dim(),fact(1:lt);0.0=1.0)");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->family, RouteFamily::kFactorJoin);
  EXPECT_EQ(join->tables.size(), 2u);
  EXPECT_EQ(got.Find("nope"), nullptr);
}

TEST(RoutingTableTest, DeserializeRejectsCorruptBytes) {
  RoutingTable table;
  table.Insert("fact(1:lt)", MakeDecision(RouteFamily::kBn, 1.0, 1.0, 10.0, 3,
                                          {"fact"}));
  BufferWriter writer;
  table.Serialize(&writer);
  std::string bytes = writer.buffer();

  // Bad magic.
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0xff);
  EXPECT_FALSE(RoutingTable::Deserialize(flipped).ok());
  // Truncation.
  EXPECT_FALSE(
      RoutingTable::Deserialize(bytes.substr(0, bytes.size() - 3)).ok());
  // Trailing garbage.
  EXPECT_FALSE(RoutingTable::Deserialize(bytes + "x").ok());
}

TEST(RoutingTableTest, ValidateRejectsBadDecisions) {
  {
    RoutingTable table;
    table.Insert("", MakeDecision(RouteFamily::kBn, 1.0, 1.0, 0.0, 3, {}));
    EXPECT_FALSE(table.Validate().ok());
  }
  {
    RoutingTable table;
    RouteDecision d = MakeDecision(RouteFamily::kBn, 1.0, 1.0, 0.0, 3, {});
    d.family = static_cast<RouteFamily>(99);
    table.Insert("fact()", std::move(d));
    EXPECT_FALSE(table.Validate().ok());
  }
  {
    RoutingTable table;
    table.Insert("fact()",
                 MakeDecision(RouteFamily::kBn, 1.0, 1.0, 0.0, 0, {}));
    EXPECT_FALSE(table.Validate().ok());  // no samples behind the score
  }
  {
    RoutingTable table;
    table.Insert("fact()",
                 MakeDecision(RouteFamily::kBn, 0.5, 1.0, 0.0, 3, {}));
    EXPECT_FALSE(table.Validate().ok());  // q-error below 1 is impossible
  }
  {
    RoutingTable table;
    table.Insert("fact()",
                 MakeDecision(RouteFamily::kBn, 1.0, 1.0, -5.0, 3, {}));
    EXPECT_FALSE(table.Validate().ok());  // negative latency
  }
}

TEST(RoutingTableTest, WithoutTableRetiresTouchingRoutes) {
  RoutingTable table;
  table.set_mined_epoch(3);
  table.set_mined_snapshot_version(11);
  table.Insert("fact(1:lt)", MakeDecision(RouteFamily::kSample, 1.1, 2.0,
                                          100.0, 5, {"fact"}));
  table.Insert("dim(2:eq)", MakeDecision(RouteFamily::kZoneMap, 1.2, 2.0,
                                         50.0, 5, {"dim"}));
  table.Insert("J(dim(),fact();0.0=1.0)",
               MakeDecision(RouteFamily::kFactorJoin, 1.3, 2.0, 900.0, 5,
                            {"dim", "fact"}));

  std::shared_ptr<const RoutingTable> filtered = table.WithoutTable("fact");
  ASSERT_NE(filtered, nullptr);
  // Single-table and join routes over fact are gone; dim-only survives.
  EXPECT_EQ(filtered->Find("fact(1:lt)"), nullptr);
  EXPECT_EQ(filtered->Find("J(dim(),fact();0.0=1.0)"), nullptr);
  EXPECT_NE(filtered->Find("dim(2:eq)"), nullptr);
  EXPECT_EQ(filtered->size(), 1u);
  // Provenance stamps survive the filter.
  EXPECT_EQ(filtered->mined_epoch(), 3u);
  EXPECT_EQ(filtered->mined_snapshot_version(), 11u);
}

// --- Facade fixtures ----------------------------------------------------------

class RoutingByteCardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::BuildToyDatabase(12000);

    ByteCard::Options options;
    options.rbx.population_sizes = {10000};
    options.rbx.sample_rates = {0.05};
    options.rbx.replicas = 1;
    options.rbx.epochs = 10;
    options.run_monitor = false;
    auto bc = ByteCard::Bootstrap(*db_, {testutil::ToyJoinQuery(*db_)},
                                  dir_.str(), options);
    ASSERT_TRUE(bc.ok()) << bc.status().ToString();
    bytecard_ = std::move(bc).value();
    bytecard_->EnableFeedback();
  }

  Result<minihouse::ExecResult> Run(const BoundQuery& query) {
    minihouse::Optimizer optimizer;
    return minihouse::PlanAndExecute(query, optimizer, bytecard_.get());
  }

  const testutil::TempDir dir_{"routing"};
  std::unique_ptr<minihouse::Database> db_;
  std::unique_ptr<ByteCard> bytecard_;
};

// --- Byte-identity: an empty routing table changes nothing --------------------

using RoutingIdentityTest = RoutingByteCardTest;

TEST_F(RoutingIdentityTest, EmptyTablePreservesEstimatesExactly) {
  BoundQuery join = testutil::ToyJoinQuery(*db_);
  join.tables[0].filters = {Pred(1, CompareOp::kLt, 25)};
  BoundQuery grouped = join;
  grouped.group_by = {{1, 1}};
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const minihouse::Conjunction filters = {Pred(1, CompareOp::kLt, 25)};

  // Pre-routing answers, straight from the published snapshot.
  const double sel = bytecard_->EstimateSelectivity(fact, filters);
  const double join_card = bytecard_->EstimateCount(join);
  const double group_ndv = bytecard_->EstimateGroupNdv(grouped);
  const double col_ndv = bytecard_->EstimateColumnNdv(fact, 1, filters);
  const double disjunction = bytecard_->EstimateCountDisjunction(
      fact, {{Pred(1, CompareOp::kLt, 5)}, {Pred(1, CompareOp::kGe, 45)}});

  // Mining an empty feedback trace publishes an *empty* routing table: the
  // refactored dispatch must be bit-for-bit the pre-routing dispatch.
  const uint64_t before = bytecard_->SnapshotVersion();
  auto report = bytecard_->MineRoutes(*db_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().records_scanned, 0);
  EXPECT_EQ(report.value().classes_seen, 0);
  EXPECT_GT(bytecard_->SnapshotVersion(), before);

  std::shared_ptr<const routing::RoutingTable> routes =
      bytecard_->routing_table();
  ASSERT_NE(routes, nullptr);
  EXPECT_TRUE(routes->empty());
  EXPECT_FALSE(bytecard_->snapshot()->routing_live());

  // Exact equality, not near: identical code path, identical bits.
  EXPECT_EQ(bytecard_->EstimateSelectivity(fact, filters), sel);
  EXPECT_EQ(bytecard_->EstimateCount(join), join_card);
  EXPECT_EQ(bytecard_->EstimateGroupNdv(grouped), group_ndv);
  EXPECT_EQ(bytecard_->EstimateColumnNdv(fact, 1, filters), col_ndv);
  EXPECT_EQ(bytecard_->EstimateCountDisjunction(
                fact, {{Pred(1, CompareOp::kLt, 5)},
                       {Pred(1, CompareOp::kGe, 45)}}),
            disjunction);

  // No routing table entries -> all routing counters stay zero.
  auto result = Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 25)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.route_classes, 0);
  EXPECT_EQ(result.value().stats.routed_estimates, 0);
  EXPECT_EQ(result.value().stats.route_fallbacks, 0);
}

TEST_F(RoutingIdentityTest, GeneralPathAndRoutedProbesShareNoMemoState) {
  std::shared_ptr<const EstimatorSnapshot> snap = bytecard_->snapshot();
  ASSERT_NE(snap, nullptr);
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const minihouse::Conjunction filters = {Pred(1, CompareOp::kLt, 25)};
  const cardest::CardEstRequest request =
      cardest::CardEstRequest::Selectivity(fact, filters);

  // Estimate() with no live routing is the general chain, verbatim.
  double general = 0.0;
  ASSERT_TRUE(snap->EstimateWithFamily(RouteFamily::kGeneral, request, nullptr,
                                       &general));
  EXPECT_EQ(snap->Estimate(request, nullptr), general);

  // A routed family probe through a session must not perturb the general
  // path's memo: the general answer after a mixed probe equals the fresh one.
  const double fresh = snap->Estimate(request, nullptr);
  cardest::InferenceSession session;
  double routed = 0.0;
  ASSERT_TRUE(snap->EstimateWithFamily(RouteFamily::kSample, request, &session,
                                       &routed));
  EXPECT_EQ(snap->Estimate(request, &session), fresh);
  // And the probe itself is deterministic through the same session.
  double routed_again = 0.0;
  ASSERT_TRUE(snap->EstimateWithFamily(RouteFamily::kSample, request, &session,
                                       &routed_again));
  EXPECT_EQ(routed_again, routed);
}

// --- RouteMiner ---------------------------------------------------------------

using RouteMinerTest = RoutingByteCardTest;

TEST_F(RouteMinerTest, MinesDecisionsFromFeedbackTrace) {
  // Warm traffic: one scan template instantiated with distinct constants
  // (distinct fingerprints keep every run model-answered, same route class),
  // plus join traffic over the toy star.
  for (int i = 0; i < 6; ++i) {
    auto result = Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 10 + 5 * i)));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  for (int i = 0; i < 4; ++i) {
    BoundQuery join = testutil::ToyJoinQuery(*db_);
    join.tables[0].filters = {Pred(1, CompareOp::kLt, 20 + 5 * i)};
    ASSERT_TRUE(Run(join).ok());
  }

  auto mined = bytecard_->MineRoutes(*db_);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const routing::RouteMinerReport& report = mined.value();
  EXPECT_GE(report.records_scanned, 10);
  EXPECT_EQ(report.records_replayed, report.records_scanned);
  EXPECT_GE(report.classes_seen, 2);

  std::shared_ptr<const routing::RoutingTable> routes =
      bytecard_->routing_table();
  ASSERT_NE(routes, nullptr);
  ASSERT_FALSE(routes->empty());
  // The mined table is live: epoch stamp matches the serving snapshot.
  EXPECT_TRUE(bytecard_->snapshot()->routing_live());
  EXPECT_EQ(routes->mined_epoch(), bytecard_->snapshot()->ingest_epoch());

  // Every published decision carries its evidence.
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const std::string scan_cls = TableClass(fact, {Pred(1, CompareOp::kLt, 0)});
  const RouteDecision* scan = routes->Find(scan_cls);
  ASSERT_NE(scan, nullptr) << "scan template should be well-sampled";
  EXPECT_GE(scan->samples, 6);
  EXPECT_GE(scan->median_qerror, 1.0);
  EXPECT_GE(scan->general_qerror, 1.0);
  ASSERT_FALSE(scan->tables.empty());
  EXPECT_EQ(scan->tables[0], "fact");
  for (const auto& [cls, decision] : routes->routes()) {
    EXPECT_FALSE(cls.empty());
    EXPECT_GE(decision.samples, routing::kMinSamplesPerClass);
    // A promoted family never scores worse than the general router it beat.
    if (decision.family != RouteFamily::kGeneral) {
      EXPECT_LE(decision.median_qerror,
                decision.general_qerror * (1.0 + 1e-9));
    }
  }

  // Post-mine traffic surfaces its routing decisions in ExecStats: the class
  // has a mined entry, so route_classes ticks even when the decision was
  // "stay general".
  auto routed_run = Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 47)));
  ASSERT_TRUE(routed_run.ok());
  EXPECT_GE(routed_run.value().stats.route_classes, 1);
}

TEST_F(RouteMinerTest, MinSamplesGateSkipsThinClasses) {
  // Two observations of one template: below the default floor of 3.
  ASSERT_TRUE(Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 10))).ok());
  ASSERT_TRUE(Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 30))).ok());

  auto mined = bytecard_->MineRoutes(*db_);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_GE(mined.value().classes_seen, 1);
  // Thin classes produce no route at all — not even an explicit general one.
  EXPECT_TRUE(bytecard_->routing_table()->empty());
  EXPECT_FALSE(bytecard_->snapshot()->routing_live());
}

TEST_F(RouteMinerTest, HealthDemotionRetiresRoutesOverTable) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 10 + 5 * i))).ok());
  }
  ASSERT_TRUE(bytecard_->MineRoutes(*db_).ok());
  ASSERT_FALSE(bytecard_->routing_table()->empty());

  // Demoting fact retires every route whose evidence touched fact.
  bytecard_->SetTableHealth("fact", false);
  std::shared_ptr<const routing::RoutingTable> routes =
      bytecard_->routing_table();
  ASSERT_NE(routes, nullptr);
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  EXPECT_EQ(routes->Find(TableClass(fact, {Pred(1, CompareOp::kLt, 0)})),
            nullptr);
}

TEST_F(RouteMinerTest, ProbeDemotionRetiresRoutesOverTable) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        Run(FactCountQuery(*db_, Pred(1, CompareOp::kLt, 10 + 5 * i))).ok());
  }
  ASSERT_TRUE(bytecard_->MineRoutes(*db_).ok());
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  ASSERT_NE(bytecard_->routing_table()->Find(
                TableClass(fact, {Pred(1, CompareOp::kLt, 0)})),
            nullptr);
  feedback::OnlineDriftDetector& drift = bytecard_->feedback_manager()->drift();
  ASSERT_GT(drift.Report("fact").samples, 0u);

  // Q-errors are at least 1, so this monitor fails every model it probes.
  ModelMonitor::Options strict;
  strict.qerror_threshold = 0.5;
  *bytecard_->mutable_monitor() = ModelMonitor(strict);
  const uint64_t before = bytecard_->SnapshotVersion();
  auto report = bytecard_->ProbeTable(fact);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().healthy);

  // The probe's demotion lands the health flag and the route retirement in
  // one successor, and restarts the table's drift window.
  EXPECT_EQ(bytecard_->SnapshotVersion(), before + 1);
  EXPECT_FALSE(bytecard_->snapshot()->IsHealthy("fact"));
  std::shared_ptr<const routing::RoutingTable> routes =
      bytecard_->routing_table();
  ASSERT_NE(routes, nullptr);
  for (const auto& [cls, decision] : routes->routes()) {
    for (const std::string& table : decision.tables) {
      EXPECT_NE(table, "fact") << cls;
    }
  }
  EXPECT_EQ(drift.Report("fact").samples, 0u);
}

// --- Concurrency (the TSan leg) -----------------------------------------------

TEST(RoutingConcurrencyTest, ReminingRacesEstimationStreams) {
  const testutil::TempDir tmp("routing_race");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(8000);

  ByteCard::Options options;
  options.rbx.population_sizes = {8000};
  options.rbx.sample_rates = {0.05};
  options.rbx.replicas = 1;
  options.rbx.epochs = 5;
  options.run_monitor = false;
  auto bc = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  std::unique_ptr<ByteCard> owner = std::move(bc).value();
  ByteCard* bytecard = owner.get();
  bytecard->EnableFeedback();

  constexpr int kStreams = 8;
  constexpr int kQueriesPerStream = 24;
  std::atomic<int64_t> executed{0};
  std::vector<std::thread> streams;
  streams.reserve(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&, s] {
      minihouse::Optimizer optimizer;
      for (int i = 0; i < kQueriesPerStream; ++i) {
        BoundQuery query =
            (s + i) % 3 == 0
                ? testutil::ToyJoinQuery(*db)
                : FactCountQuery(*db, Pred(1, CompareOp::kLt,
                                           1 + (7 * s + i) % 49));
        if ((s + i) % 3 == 0) {
          query.tables[0].filters = {
              Pred(1, CompareOp::kLt, 1 + (5 * s + i) % 49)};
        }
        auto result = minihouse::PlanAndExecute(query, optimizer, bytecard);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        executed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Lifecycle churn racing the streams: re-mines publish new routing tables,
  // health flips retire fact routes, all while queries pin and serve.
  std::thread lifecycle([&] {
    for (int round = 0; round < 6; ++round) {
      auto mined = bytecard->MineRoutes(*db);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      if (round % 2 == 1) {
        bytecard->SetTableHealth("fact", false);
        bytecard->SetTableHealth("fact", true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : streams) t.join();
  lifecycle.join();
  EXPECT_EQ(executed.load(), kStreams * kQueriesPerStream);

  // One final mine over the full trace: the published table is valid and
  // consistent with what the live snapshot serves.
  ASSERT_TRUE(bytecard->MineRoutes(*db).ok());
  std::shared_ptr<const routing::RoutingTable> routes =
      bytecard->routing_table();
  ASSERT_NE(routes, nullptr);
  EXPECT_TRUE(routes->Validate().ok());
}

}  // namespace
}  // namespace bytecard
