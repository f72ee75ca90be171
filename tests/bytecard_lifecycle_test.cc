// The data-update lifecycle of the paper's §4.3/§4.4: Data Ingestor batches
// -> distribution drift degrades the deployed BN -> Model Monitor flags it
// -> ModelForge retrains -> Model Loader refresh restores health. Plus the
// inclusion-exclusion OR estimation of §5.1.2.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bytecard/bytecard.h"
#include "bytecard/data_ingestor.h"
#include "test_util.h"
#include "workload/truth.h"

namespace bytecard {
namespace {

namespace fs = std::filesystem;
using minihouse::CompareOp;

minihouse::ColumnPredicate Pred(int column, CompareOp op, int64_t operand,
                                int64_t operand2 = 0) {
  minihouse::ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::BuildToyDatabase(20000);

    ByteCard::Options options;
    options.rbx.population_sizes = {10000};
    options.rbx.sample_rates = {0.05};
    options.rbx.replicas = 1;
    options.rbx.epochs = 10;
    auto bc = ByteCard::Bootstrap(*db_, {testutil::ToyJoinQuery(*db_)},
                                  dir_.str(), options);
    ASSERT_TRUE(bc.ok()) << bc.status().ToString();
    bytecard_ = std::move(bc).value();
  }

  const testutil::TempDir dir_{"lifecycle"};
  std::unique_ptr<minihouse::Database> db_;
  std::unique_ptr<ByteCard> bytecard_;
};

// --- DataIngestor -------------------------------------------------------------

TEST_F(LifecycleTest, StationaryBatchPreservesDistribution) {
  minihouse::Table* fact = db_->FindMutableTable("fact").value();
  const int64_t before_rows = fact->num_rows();

  // Fraction of rows with value < 10 (truly 0.2) before ingestion.
  auto fraction = [&]() {
    std::vector<uint8_t> sel;
    minihouse::EvaluateConjunction({Pred(1, CompareOp::kLt, 10)}, *fact,
                                   &sel);
    int64_t count = 0;
    for (uint8_t s : sel) count += s;
    return static_cast<double>(count) / fact->num_rows();
  };
  const double before = fraction();

  DataIngestor ingestor(db_.get());
  Rng rng(3);
  auto event = ingestor.IngestStationaryBatch("fact", 5000, &rng);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event.value().rows_added, 5000);
  EXPECT_EQ(event.value().total_rows, before_rows + 5000);
  EXPECT_EQ(fact->num_rows(), before_rows + 5000);
  EXPECT_NEAR(fraction(), before, 0.02);
}

TEST_F(LifecycleTest, IngestorTracksPendingRows) {
  DataIngestor ingestor(db_.get());
  Rng rng(5);
  EXPECT_EQ(ingestor.PendingRows("fact"), 0);
  ASSERT_TRUE(ingestor.IngestStationaryBatch("fact", 1000, &rng).ok());
  ASSERT_TRUE(ingestor.IngestStationaryBatch("fact", 500, &rng).ok());
  ASSERT_TRUE(ingestor.IngestStationaryBatch("dim", 50, &rng).ok());
  EXPECT_EQ(ingestor.PendingRows("fact"), 1500);
  EXPECT_EQ(ingestor.PendingRows("dim"), 50);
  ingestor.MarkTrained("fact");
  EXPECT_EQ(ingestor.PendingRows("fact"), 0);
  EXPECT_EQ(ingestor.PendingRows("dim"), 50);
  EXPECT_EQ(ingestor.events().size(), 3u);
}

TEST_F(LifecycleTest, IngestorValidation) {
  DataIngestor ingestor(db_.get());
  Rng rng(7);
  EXPECT_FALSE(ingestor.IngestStationaryBatch("nope", 10, &rng).ok());
  EXPECT_FALSE(ingestor.IngestStationaryBatch("fact", 0, &rng).ok());
  EXPECT_FALSE(ingestor.IngestDriftedBatch("fact", 10, -1, 5, &rng).ok());
}

// --- Drift -> monitor -> retrain -> refresh ---------------------------------------

TEST_F(LifecycleTest, DriftDegradesRetrainRestores) {
  minihouse::Table* fact = db_->FindMutableTable("fact").value();

  // 1. Healthy at bootstrap.
  auto before = bytecard_->ProbeTable(*fact);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().healthy);

  // 2. Heavy drift: triple the table with value-shifted rows.
  DataIngestor ingestor(db_.get());
  Rng rng(11);
  ASSERT_TRUE(
      ingestor.IngestDriftedBatch("fact", 40000, /*drift_column=*/1,
                                  /*drift_offset=*/500, &rng)
          .ok());

  // The stale model still believes the old distribution: estimates for the
  // drifted region are near zero although half the table now lives there.
  const double stale = bytecard_->EstimateSelectivity(
      *fact, {Pred(1, CompareOp::kGe, 500)});
  EXPECT_LT(stale, 0.05);

  // 3. The monitor notices (probes anchored at live data hit the new region).
  ModelMonitor::Options strict;
  strict.qerror_threshold = 5.0;
  strict.probes = 40;
  *bytecard_->mutable_monitor() = ModelMonitor(strict);
  auto degraded = bytecard_->ProbeTable(*fact);
  ASSERT_TRUE(degraded.ok());
  EXPECT_FALSE(degraded.value().healthy);

  // 4. Retrain via the forge, pick the artifact up via the loader.
  ASSERT_TRUE(bytecard_->RetrainTable(*fact).ok());
  auto applied = bytecard_->RefreshModels();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied.value(), 1);

  // 5. Fresh model passes probing, which restores its health flag; after
  // that, estimates come from the BN again and see the new region.
  auto restored = bytecard_->ProbeTable(*fact);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value().healthy);
  const double fresh = bytecard_->EstimateSelectivity(
      *fact, {Pred(1, CompareOp::kGe, 500)});
  EXPECT_GT(fresh, 0.3);
}

TEST_F(LifecycleTest, CorruptArtifactRetriedAfterRepublish) {
  // Regression test for the loader's high-water-mark semantics: a candidate
  // that fails validation must NOT advance the mark. Before the poll/commit
  // split, PollOnce recorded the timestamp up front, so a corrupt artifact
  // was skipped once and then never offered again — even after the store was
  // fixed at the same timestamp.
  minihouse::Table* fact = db_->FindMutableTable("fact").value();
  ASSERT_TRUE(bytecard_->RetrainTable(*fact).ok());

  // Find the retrained artifact (newest bn.fact.<timestamp>.model).
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir_.str())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bn.fact.", 0) != 0) continue;
    if (newest.empty() || name > newest.filename().string()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  std::string good;
  {
    std::ifstream in(newest, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    good = buf.str();
  }

  // Corrupt it in place; the refresh must skip it and keep serving.
  const uint64_t version_before = bytecard_->SnapshotVersion();
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << "garbage that is definitely not a model";
  }
  auto skipped = bytecard_->RefreshModels();
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(skipped.value(), 0);
  EXPECT_EQ(bytecard_->SnapshotVersion(), version_before);

  // Fix the artifact at the SAME timestamp: the next cycle must pick it up.
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << good;
  }
  auto applied = bytecard_->RefreshModels();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied.value(), 1);
  EXPECT_GT(bytecard_->SnapshotVersion(), version_before);
}

TEST_F(LifecycleTest, RefreshPublishesNewSnapshotVersion) {
  minihouse::Table* fact = db_->FindMutableTable("fact").value();
  const uint64_t v1 = bytecard_->SnapshotVersion();
  EXPECT_GE(v1, 1u);
  auto snap_before = bytecard_->snapshot();
  ASSERT_NE(snap_before, nullptr);

  ASSERT_TRUE(bytecard_->RetrainTable(*fact).ok());
  auto applied = bytecard_->RefreshModels();
  ASSERT_TRUE(applied.ok());
  EXPECT_GE(applied.value(), 1);
  EXPECT_GT(bytecard_->SnapshotVersion(), v1);
  // The pre-refresh snapshot is still alive and serves its own version.
  EXPECT_EQ(snap_before->version(), v1);
}

TEST_F(LifecycleTest, RefreshWithoutNewArtifactsIsNoop) {
  auto applied = bytecard_->RefreshModels();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 0);
}

TEST_F(LifecycleTest, ProbeUnknownTableFails) {
  minihouse::Table unknown("ghost", minihouse::TableSchema());
  EXPECT_FALSE(bytecard_->ProbeTable(unknown).ok());
}

// --- Inclusion-exclusion OR estimation ----------------------------------------------

TEST_F(LifecycleTest, DisjunctionViaInclusionExclusion) {
  const minihouse::Table* fact = db_->FindTable("fact").value();

  // (value < 10) OR (value >= 40): disjoint, truly 0.2 + 0.2 of 20000.
  const std::vector<minihouse::Conjunction> disjoint = {
      {Pred(1, CompareOp::kLt, 10)}, {Pred(1, CompareOp::kGe, 40)}};
  const double est_disjoint =
      bytecard_->EstimateCountDisjunction(*fact, disjoint);
  EXPECT_NEAR(est_disjoint, 8000.0, 1500.0);

  // (value < 30) OR (value BETWEEN 20 AND 39): overlapping; union is
  // value < 40 -> 0.8. Naive summing would give 1.0; inclusion-exclusion
  // must subtract the overlap.
  const std::vector<minihouse::Conjunction> overlapping = {
      {Pred(1, CompareOp::kLt, 30)},
      {Pred(1, CompareOp::kBetween, 20, 39)}};
  const double est_overlap =
      bytecard_->EstimateCountDisjunction(*fact, overlapping);
  EXPECT_NEAR(est_overlap, 16000.0, 2500.0);
  EXPECT_LT(est_overlap, 19000.0);  // clearly below the naive sum (20000)
}

TEST_F(LifecycleTest, DisjunctionDegenerateCases) {
  const minihouse::Table* fact = db_->FindTable("fact").value();
  EXPECT_EQ(bytecard_->EstimateCountDisjunction(*fact, {}), 0.0);
  // Single disjunct reduces to plain conjunction estimation.
  const std::vector<minihouse::Conjunction> one = {
      {Pred(1, CompareOp::kLt, 10)}};
  EXPECT_NEAR(bytecard_->EstimateCountDisjunction(*fact, one),
              bytecard_->EstimateSelectivity(*fact, one[0]) * 20000.0,
              1e-6);
}

}  // namespace
}  // namespace bytecard
