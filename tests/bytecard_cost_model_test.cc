// The learned cost model (the paper's future-work extension).

#include <gtest/gtest.h>

#include <algorithm>

#include "bytecard/cost_model.h"
#include "stats/traditional_estimator.h"
#include "test_util.h"
#include "workload/datagen.h"
#include "workload/workload.h"

namespace bytecard {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = workload::GenerateAeolus(0.1, 321).value().release();
    statistics_ = stats::SketchStatistics::Build(*db_, 64).release();
    estimator_ = new stats::SketchEstimator(statistics_);

    workload::WorkloadOptions options;
    options.num_count_queries = 10;
    options.num_agg_queries = 14;
    options.max_executable_count = 20000;
    auto wl = workload::BuildWorkload(*db_, "AEOLUS-Online", options);
    BC_CHECK_OK(wl.status());

    minihouse::Optimizer optimizer;
    std::vector<minihouse::BoundQuery> executable;
    for (const auto& wq : wl.value().queries) {
      if (wq.aggregate) executable.push_back(wq.query);
    }
    auto traces = CollectCostTraces(executable, optimizer, estimator_);
    BC_CHECK_OK(traces.status());
    traces_ = new std::vector<CostTrace>(std::move(traces).value());
  }

  static void TearDownTestSuite() {
    delete traces_;
    delete estimator_;
    delete statistics_;
    delete db_;
  }

  static minihouse::Database* db_;
  static stats::SketchStatistics* statistics_;
  static stats::SketchEstimator* estimator_;
  static std::vector<CostTrace>* traces_;
};

minihouse::Database* CostModelTest::db_ = nullptr;
stats::SketchStatistics* CostModelTest::statistics_ = nullptr;
stats::SketchEstimator* CostModelTest::estimator_ = nullptr;
std::vector<CostTrace>* CostModelTest::traces_ = nullptr;

TEST_F(CostModelTest, TracesHaveFeaturesAndCosts) {
  ASSERT_GE(traces_->size(), 8u);
  for (const CostTrace& trace : *traces_) {
    EXPECT_EQ(trace.features.size(), static_cast<size_t>(kCostFeatureDim));
    EXPECT_GE(trace.exec_ms, 0.0);
  }
}

TEST_F(CostModelTest, TrainsAndPredictsFinite) {
  LearnedCostModel::TrainOptions options;
  auto model = LearnedCostModel::Train(*traces_, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  for (const CostTrace& trace : *traces_) {
    const double predicted = model.value().PredictMs(trace.features);
    EXPECT_GE(predicted, 0.0);
    EXPECT_LT(predicted, 1e7);
  }
}

TEST_F(CostModelTest, PredictionsCorrelateWithMeasurements) {
  LearnedCostModel::TrainOptions options;
  options.epochs = 300;
  auto model = LearnedCostModel::Train(*traces_, options);
  ASSERT_TRUE(model.ok());

  // Rank correlation (concordant-pair fraction) between predicted and
  // measured cost on the training traces must beat random (0.5).
  int concordant = 0;
  int pairs = 0;
  for (size_t i = 0; i < traces_->size(); ++i) {
    for (size_t j = i + 1; j < traces_->size(); ++j) {
      const double mi = (*traces_)[i].exec_ms;
      const double mj = (*traces_)[j].exec_ms;
      if (std::abs(mi - mj) < 1e-6) continue;
      const double pi = model.value().PredictMs((*traces_)[i].features);
      const double pj = model.value().PredictMs((*traces_)[j].features);
      if ((mi < mj) == (pi < pj)) ++concordant;
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 0);
  EXPECT_GT(static_cast<double>(concordant) / pairs, 0.6);
}

TEST_F(CostModelTest, TrainRejectsTooFewTraces) {
  LearnedCostModel::TrainOptions options;
  std::vector<CostTrace> tiny(traces_->begin(), traces_->begin() + 2);
  EXPECT_FALSE(LearnedCostModel::Train(tiny, options).ok());
}

}  // namespace
}  // namespace bytecard
