// The ByteCard facade: full bootstrap lifecycle and estimator behaviour,
// including monitor-driven fallback to traditional estimation.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bytecard/bytecard.h"
#include "test_util.h"
#include "workload/truth.h"

namespace bytecard {
namespace {

namespace fs = std::filesystem;
using minihouse::CompareOp;

class ByteCardFacadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new testutil::TempDir("facade");
    db_ = testutil::BuildToyDatabase(20000).release();

    ByteCard::Options options;
    options.rbx.population_sizes = {20000};
    options.rbx.sample_rates = {0.02, 0.05};
    options.rbx.replicas = 2;
    options.rbx.epochs = 30;
    auto bc = ByteCard::Bootstrap(
        *db_, {testutil::ToyJoinQuery(*db_)}, dir_->str(), options);
    BC_CHECK_OK(bc.status());
    bytecard_ = std::move(bc).value().release();
  }

  static void TearDownTestSuite() {
    delete bytecard_;
    delete db_;
    delete dir_;
  }

  static minihouse::ColumnPredicate Pred(int column, CompareOp op,
                                         int64_t operand) {
    minihouse::ColumnPredicate pred;
    pred.column = column;
    pred.op = op;
    pred.operand = operand;
    return pred;
  }

  static testutil::TempDir* dir_;
  static minihouse::Database* db_;
  static ByteCard* bytecard_;
};

testutil::TempDir* ByteCardFacadeTest::dir_ = nullptr;
minihouse::Database* ByteCardFacadeTest::db_ = nullptr;
ByteCard* ByteCardFacadeTest::bytecard_ = nullptr;

TEST_F(ByteCardFacadeTest, BootstrapProducedAllModels) {
  std::shared_ptr<const EstimatorSnapshot> snap = bytecard_->snapshot();
  EXPECT_NE(snap->bn_context("fact"), nullptr);
  EXPECT_NE(snap->bn_context("dim"), nullptr);
  EXPECT_EQ(snap->bn_context("nope"), nullptr);
  ASSERT_NE(snap->fj_engine(), nullptr);
  EXPECT_EQ(snap->fj_engine()->model().num_groups(), 1);
  EXPECT_GT(bytecard_->training_stats().bn_seconds, 0.0);
  EXPECT_GT(bytecard_->training_stats().bn_bytes, 0);
  EXPECT_GT(bytecard_->training_stats().factorjoin_bytes, 0);
  EXPECT_GT(bytecard_->training_stats().rbx_bytes, 0);
  // Artifacts really exist on disk.
  EXPECT_GE(bytecard_->training_stats().artifacts.size(), 4u);
  for (const ModelArtifact& a : bytecard_->training_stats().artifacts) {
    EXPECT_TRUE(fs::exists(a.path)) << a.path;
  }
}

TEST_F(ByteCardFacadeTest, ModelsAdmittedByValidator) {
  EXPECT_TRUE(bytecard_->validator().IsAdmitted("bn/fact"));
  EXPECT_TRUE(bytecard_->validator().IsAdmitted("bn/dim"));
  EXPECT_TRUE(bytecard_->validator().IsAdmitted("factorjoin/global"));
  EXPECT_TRUE(bytecard_->validator().IsAdmitted("rbx/global"));
}

TEST_F(ByteCardFacadeTest, SelectivityCapturesCorrelation) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const double sel = bytecard_->EstimateSelectivity(
      fact, {Pred(1, CompareOp::kLt, 10), Pred(2, CompareOp::kEq, 0)});
  EXPECT_GT(sel, 0.12);  // independence would give 0.04; truth is 0.2
  EXPECT_LT(sel, 0.3);
}

TEST_F(ByteCardFacadeTest, JoinCardinalityReasonable) {
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  const double card = bytecard_->EstimateJoinCardinality(query, {0, 1});
  auto truth = workload::TrueCount(query);
  ASSERT_TRUE(truth.ok());
  const double t = static_cast<double>(truth.value());
  EXPECT_GT(card, t / 4.0);
  EXPECT_LT(card, t * 4.0);
}

TEST_F(ByteCardFacadeTest, EstimateCountSingleVsJoin) {
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  query.tables[0].filters.push_back(Pred(1, CompareOp::kLt, 10));
  const double full = bytecard_->EstimateCount(query);
  const double single = bytecard_->EstimateJoinCardinality(query, {0});
  EXPECT_NEAR(single, 4000.0, 800.0);  // 0.2 * 20000
  EXPECT_GT(full, 0.0);
}

TEST_F(ByteCardFacadeTest, ColumnNdvTracksTruth) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  // NDV of fact.value under no filters: truly 50.
  const double ndv = bytecard_->EstimateColumnNdv(fact, 1, {});
  EXPECT_GT(ndv, 15.0);
  EXPECT_LT(ndv, 400.0);

  // Under a filter value < 10: truly 10 distinct.
  const double filtered_ndv = bytecard_->EstimateColumnNdv(
      fact, 1, {Pred(1, CompareOp::kLt, 10)});
  EXPECT_LT(filtered_ndv, ndv);
}

TEST_F(ByteCardFacadeTest, GroupNdvCappedByRows) {
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  query.group_by.push_back({1, 1});  // dim.category, 5 values
  const double ndv = bytecard_->EstimateGroupNdv(query);
  EXPECT_GE(ndv, 1.0);
  EXPECT_LE(ndv, 200.0);
}

TEST_F(ByteCardFacadeTest, UnhealthyModelFallsBack) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const minihouse::Conjunction filters = {Pred(1, CompareOp::kLt, 10),
                                          Pred(2, CompareOp::kEq, 0)};
  const double learned = bytecard_->EstimateSelectivity(fact, filters);

  bytecard_->SetTableHealth("fact", false);
  const double fallback = bytecard_->EstimateSelectivity(fact, filters);
  bytecard_->SetTableHealth("fact", true);

  // The sketch fallback assumes independence, so it lands well below the
  // BN's correlation-aware estimate.
  EXPECT_LT(fallback, learned * 0.7);
}

TEST_F(ByteCardFacadeTest, UnhealthyModelAffectsJoinsToo) {
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  const double learned = bytecard_->EstimateJoinCardinality(query, {0, 1});
  bytecard_->SetTableHealth("fact", false);
  const double fallback = bytecard_->EstimateJoinCardinality(query, {0, 1});
  bytecard_->SetTableHealth("fact", true);
  // Both are live estimates; the point is the path switches without error.
  EXPECT_GT(learned, 0.0);
  EXPECT_GT(fallback, 0.0);
}

TEST_F(ByteCardFacadeTest, ImplementsEstimatorInterface) {
  minihouse::CardinalityEstimator* estimator = bytecard_;
  EXPECT_EQ(estimator->Name(), "bytecard");
}

// Pins what the default configuration produces, bit for bit: every trained
// artifact (BN binning and training-row cap, FactorJoin bucket count), the
// monitor's bootstrap verdicts and probe generator, the RBX featurization
// samples, and the traditional fallback sketches.
TEST_F(ByteCardFacadeTest, DefaultConfigurationPinned) {
  struct PinnedArtifact {
    std::string kind;
    std::string name;
    size_t size;
    uint64_t hash;
  };
  const std::vector<PinnedArtifact> expected = {
      {"factorjoin", "global", 4138, 0x6bccca7493ff0aa7ULL},
      {"bn", "dim", 6543, 0xdeea833a3b2fe25cULL},
      {"bn", "fact", 33952, 0xedc6d65544d5bad8ULL},
      {"rbx", "global", 130248, 0xd135756063eab4a0ULL},
  };
  const std::vector<ModelArtifact>& artifacts =
      bytecard_->training_stats().artifacts;
  ASSERT_EQ(artifacts.size(), expected.size());
  for (size_t i = 0; i < artifacts.size(); ++i) {
    SCOPED_TRACE(artifacts[i].path);
    Result<std::string> bytes = ReadArtifactBytes(artifacts[i].path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ(artifacts[i].kind, expected[i].kind);
    EXPECT_EQ(artifacts[i].name, expected[i].name);
    EXPECT_EQ(bytes.value().size(), expected[i].size);
    EXPECT_EQ(testutil::Fnv1a64(bytes.value()), expected[i].hash);
  }

  std::shared_ptr<const EstimatorSnapshot> snap = bytecard_->snapshot();
  EXPECT_TRUE(snap->IsHealthy("fact"));
  EXPECT_TRUE(snap->IsHealthy("dim"));

  // Exact equality against hex-float literals: identical bits, not near.
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  query.tables[0].filters.push_back(Pred(1, CompareOp::kLt, 10));
  EXPECT_EQ(bytecard_->EstimateCount(query), 0x1.f39734679a915p+11);
  EXPECT_EQ(bytecard_->EstimateColumnNdv(fact, 1,
                                         {Pred(1, CompareOp::kLt, 10)}),
            0x1.7ac463b8a2eaep+5);
  minihouse::BoundQuery grouped = testutil::ToyJoinQuery(*db_);
  grouped.group_by.push_back({1, 1});
  EXPECT_EQ(bytecard_->EstimateGroupNdv(grouped), 0x1.615109965147fp+3);

  bytecard_->SetTableHealth("fact", false);
  const double fallback = bytecard_->EstimateSelectivity(
      fact, {Pred(1, CompareOp::kLt, 10), Pred(2, CompareOp::kEq, 0)});
  bytecard_->SetTableHealth("fact", true);
  EXPECT_EQ(fallback, 0x1.47ae147ae147cp-5);

  Result<MonitorReport> report = bytecard_->ProbeTable(fact);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().p90_qerror, 0x1.00b8cad8490bbp+0);
  EXPECT_TRUE(report.value().healthy);
}

TEST(ByteCardBootstrapTest, PretrainedRbxReused) {
  const testutil::TempDir tmp("pretrained_rbx");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(3000);

  // First bootstrap trains RBX and leaves an artifact behind.
  ByteCard::Options options;
  options.rbx.population_sizes = {10000};
  options.rbx.sample_rates = {0.05};
  options.rbx.replicas = 1;
  options.rbx.epochs = 5;
  options.run_monitor = false;
  auto first = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                   options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string rbx_path;
  for (const ModelArtifact& a : first.value()->training_stats().artifacts) {
    if (a.kind == "rbx") rbx_path = a.path;
  }
  ASSERT_FALSE(rbx_path.empty());

  // Second bootstrap reuses it: no RBX training time.
  ByteCard::Options reuse = options;
  reuse.pretrained_rbx_path = rbx_path;
  auto second = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                    reuse);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value()->training_stats().rbx_seconds, 0.0);
  EXPECT_GT(second.value()->training_stats().rbx_bytes, 0);
}

}  // namespace
}  // namespace bytecard
