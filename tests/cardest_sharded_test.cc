// Shard-specialized BN models (paper §4.3) and their ensemble.

#include <gtest/gtest.h>

#include "bytecard/model_forge.h"
#include "cardest/bayes/sharded_bn.h"
#include "common/rng.h"
#include "minihouse/predicate.h"
#include "test_util.h"
#include "workload/qerror.h"

namespace bytecard::cardest {
namespace {

using minihouse::CompareOp;
using minihouse::DataType;

minihouse::ColumnPredicate Pred(int column, CompareOp op, int64_t operand,
                                int64_t operand2 = 0) {
  minihouse::ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

// A table whose value distribution depends jointly on (segment, region) —
// a 3-way interaction a single tree BN cannot represent exactly, but which
// per-segment shard models capture (each shard fixes the segment).
std::unique_ptr<minihouse::Table> MakeSegmentedTable(int64_t rows,
                                                     uint64_t seed) {
  minihouse::TableSchema schema({{"segment", DataType::kInt64},
                                 {"region", DataType::kInt64},
                                 {"value", DataType::kInt64}});
  auto table = std::make_unique<minihouse::Table>("segmented", schema);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t segment = rng.UniformInt(0, 3);
    const int64_t region = rng.UniformInt(0, 3);
    // Interaction a tree cannot encode: value's range depends on BOTH
    // segment and region jointly (sum mod 4).
    const int64_t base = ((segment + region) % 4) * 1000;
    table->mutable_column(0)->AppendInt(segment);
    table->mutable_column(1)->AppendInt(region);
    table->mutable_column(2)->AppendInt(base + rng.UniformInt(0, 99));
  }
  BC_CHECK_OK(table->Seal());
  return table;
}

int64_t TrueCount(const minihouse::Table& table,
                  const minihouse::Conjunction& filters) {
  std::vector<uint8_t> selection;
  minihouse::EvaluateConjunction(filters, table, &selection);
  int64_t count = 0;
  for (uint8_t s : selection) count += s;
  return count;
}

class ShardedBnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeSegmentedTable(24000, 17);

    // Train via the forge's shard-aware path: shard key = segment (col 0).
    ModelForgeService forge(dir_.str());
    BnTrainOptions options;
    options.max_train_rows = 0;
    auto artifacts = forge.TrainShardedBn(*table_, 0, 8, options);
    ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
    // Hash sharding may leave some of the 8 shards empty (only 4 segment
    // values exist); at least two non-empty shards are needed for the
    // ensemble to be finer-grained than the global model.
    ASSERT_GE(artifacts.value().size(), 2u);

    std::vector<BayesNetModel> models;
    for (const ModelArtifact& artifact : artifacts.value()) {
      auto bytes = ReadArtifactBytes(artifact.path);
      ASSERT_TRUE(bytes.ok());
      BufferReader reader(bytes.value());
      auto model = BayesNetModel::Deserialize(&reader);
      ASSERT_TRUE(model.ok());
      models.push_back(std::move(model).value());
    }
    auto ensemble = ShardedBnEnsemble::Build(std::move(models));
    ASSERT_TRUE(ensemble.ok()) << ensemble.status().ToString();
    ensemble_ = std::make_unique<ShardedBnEnsemble>(
        std::move(ensemble).value());

    // Global single-model baseline on the same table.
    auto global = BayesNetModel::Train(*table_, options);
    ASSERT_TRUE(global.ok());
    global_model_ = std::make_unique<BayesNetModel>(std::move(global).value());
    global_context_ =
        std::make_unique<BnInferenceContext>(global_model_.get());
  }

  const testutil::TempDir dir_{"sharded"};
  std::unique_ptr<minihouse::Table> table_;
  std::unique_ptr<ShardedBnEnsemble> ensemble_;
  std::unique_ptr<BayesNetModel> global_model_;
  std::unique_ptr<BnInferenceContext> global_context_;
};

TEST_F(ShardedBnTest, EnsembleCoversAllRows) {
  EXPECT_GE(ensemble_->num_shards(), 2);
  EXPECT_EQ(ensemble_->total_rows(), 24000);
  EXPECT_NEAR(ensemble_->EstimateSelectivity({}), 1.0, 1e-9);
  EXPECT_NEAR(ensemble_->EstimateCount({}), 24000.0, 1e-6);
}

TEST_F(ShardedBnTest, MarginalEstimatesMatchTruth) {
  // Single-column filters: both approaches should be accurate.
  const minihouse::Conjunction filters = {Pred(1, CompareOp::kEq, 2)};
  const double truth = static_cast<double>(TrueCount(*table_, filters));
  EXPECT_LT(workload::QError(ensemble_->EstimateCount(filters), truth), 1.5);
  EXPECT_LT(workload::QError(global_context_->EstimateCount(filters), truth),
            1.5);
}

TEST_F(ShardedBnTest, ShardsCaptureInteractionGlobalTreeCannot) {
  // P(region = r AND value >= 1000) depends on the segment^region
  // interaction. Averaged over shards that fix the segment, the ensemble
  // models it; a single tree over (segment, region, value) cannot represent
  // the 3-way dependence. Compare mean Q-Error over the interaction grid.
  double ensemble_err = 0.0;
  double global_err = 0.0;
  int cases = 0;
  for (int64_t segment = 0; segment < 4; ++segment) {
    for (int64_t region = 0; region < 4; ++region) {
      const int64_t lo = ((segment + region) % 4) * 1000;
      const minihouse::Conjunction filters = {
          Pred(0, CompareOp::kEq, segment), Pred(1, CompareOp::kEq, region),
          Pred(2, CompareOp::kBetween, lo, lo + 99)};
      const double truth =
          std::max<double>(1.0, TrueCount(*table_, filters));
      ensemble_err +=
          workload::QError(ensemble_->EstimateCount(filters), truth);
      global_err +=
          workload::QError(global_context_->EstimateCount(filters), truth);
      ++cases;
    }
  }
  ensemble_err /= cases;
  global_err /= cases;
  EXPECT_LT(ensemble_err, global_err)
      << "ensemble " << ensemble_err << " vs global " << global_err;
  EXPECT_LT(ensemble_err, 3.0);
}

TEST(ShardedBnBuildTest, RejectsEmpty) {
  EXPECT_FALSE(ShardedBnEnsemble::Build({}).ok());
}

}  // namespace
}  // namespace bytecard::cardest
