// Traditional estimator substrate: histograms, HLL, samples, classic NDV
// estimators, and the sketch/sample CardinalityEstimator implementations.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/ndv_classic.h"
#include "stats/sampler.h"
#include "stats/traditional_estimator.h"
#include "test_util.h"

namespace bytecard::stats {
namespace {

using minihouse::ColumnPredicate;
using minihouse::CompareOp;

ColumnPredicate Pred(int column, CompareOp op, int64_t operand,
                     int64_t operand2 = 0) {
  ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  pred.operand2 = operand2;
  return pred;
}

// --- EquiHeightHistogram ------------------------------------------------------

TEST(HistogramTest, BucketsRoughlyEqualHeight) {
  std::vector<int64_t> values;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) values.push_back(rng.UniformInt(0, 999));
  const auto hist = EquiHeightHistogram::BuildFromValues(values, 10);
  ASSERT_GE(hist.buckets().size(), 8u);
  for (const auto& b : hist.buckets()) {
    EXPECT_NEAR(static_cast<double>(b.count), 1000.0, 400.0);
  }
  EXPECT_EQ(hist.total_rows(), 10000);
}

TEST(HistogramTest, RangeSelectivityOnUniformData) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 10000; ++v) values.push_back(v % 1000);
  const auto hist = EquiHeightHistogram::BuildFromValues(values, 20);
  const double sel =
      hist.Selectivity(Pred(0, CompareOp::kLt, 250));
  EXPECT_NEAR(sel, 0.25, 0.05);
  const double sel_between =
      hist.Selectivity(Pred(0, CompareOp::kBetween, 100, 299));
  EXPECT_NEAR(sel_between, 0.2, 0.05);
}

TEST(HistogramTest, EqSelectivityUniformWithinBucket) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 1000; ++v) values.push_back(v);
  const auto hist = EquiHeightHistogram::BuildFromValues(values, 10);
  EXPECT_NEAR(hist.Selectivity(Pred(0, CompareOp::kEq, 500)), 0.001, 0.0005);
  EXPECT_EQ(hist.Selectivity(Pred(0, CompareOp::kEq, 5000)), 0.0);
}

TEST(HistogramTest, ComplementOps) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 1000; ++v) values.push_back(v);
  const auto hist = EquiHeightHistogram::BuildFromValues(values, 10);
  const double le = hist.Selectivity(Pred(0, CompareOp::kLe, 300));
  const double gt = hist.Selectivity(Pred(0, CompareOp::kGt, 300));
  EXPECT_NEAR(le + gt, 1.0, 1e-9);
}

TEST(HistogramTest, SkewedEqHitFrequency) {
  // Half the rows carry value 0; Eq(0) must reflect that, not 1/NDV.
  std::vector<int64_t> values(5000, 0);
  for (int64_t v = 1; v <= 5000; ++v) values.push_back(v);
  const auto hist = EquiHeightHistogram::BuildFromValues(values, 50);
  EXPECT_GT(hist.Selectivity(Pred(0, CompareOp::kEq, 0)), 0.2);
}

TEST(HistogramTest, SerializationRoundTrip) {
  std::vector<int64_t> values = {1, 1, 2, 3, 5, 8, 13, 21};
  const auto hist = EquiHeightHistogram::BuildFromValues(values, 4);
  BufferWriter writer;
  hist.Serialize(&writer);
  BufferReader reader(writer.buffer());
  auto restored = EquiHeightHistogram::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().total_rows(), hist.total_rows());
  EXPECT_EQ(restored.value().buckets().size(), hist.buckets().size());
  EXPECT_EQ(restored.value().Selectivity(Pred(0, CompareOp::kLe, 5)),
            hist.Selectivity(Pred(0, CompareOp::kLe, 5)));
}

TEST(HistogramTest, EmptyInput) {
  const auto hist = EquiHeightHistogram::BuildFromValues({}, 4);
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.Selectivity(Pred(0, CompareOp::kEq, 1)), 0.0);
}

// --- HyperLogLog --------------------------------------------------------------

TEST(HllTest, AccuracyWithinExpectedError) {
  for (int64_t truth : {100, 5000, 200000}) {
    HyperLogLog hll(12);
    for (int64_t v = 0; v < truth; ++v) hll.Add(v * 7919);
    const double est = hll.Estimate();
    // Standard error at p=12 is ~1.6%; allow 6%.
    EXPECT_NEAR(est, static_cast<double>(truth), 0.06 * truth)
        << "truth " << truth;
  }
}

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int i = 0; i < 100000; ++i) hll.Add(i % 50);
  EXPECT_NEAR(hll.Estimate(), 50.0, 5.0);
}

TEST(HllTest, MergeEqualsUnion) {
  HyperLogLog a(12);
  HyperLogLog b(12);
  HyperLogLog both(12);
  for (int64_t v = 0; v < 4000; ++v) {
    a.Add(v);
    both.Add(v);
  }
  for (int64_t v = 2000; v < 6000; ++v) {
    b.Add(v);
    both.Add(v);
  }
  a.Merge(b);
  EXPECT_NEAR(a.Estimate(), both.Estimate(), 1e-9);
}

TEST(HllTest, SerializationRoundTrip) {
  HyperLogLog hll(10);
  for (int64_t v = 0; v < 1234; ++v) hll.Add(v);
  BufferWriter writer;
  hll.Serialize(&writer);
  BufferReader reader(writer.buffer());
  auto restored = HyperLogLog::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Estimate(), hll.Estimate());
}

// --- TableSample / classic NDV --------------------------------------------------

TEST(SamplerTest, SampleSizeMatchesRate) {
  auto db = testutil::BuildToyDatabase(10000);
  Rng rng(5);
  const TableSample sample =
      TableSample::Build(*db->FindTable("fact").value(), 0.1, 100000, &rng);
  EXPECT_EQ(sample.num_rows(), 1000);
  EXPECT_NEAR(sample.rate(), 0.1, 1e-9);
}

TEST(SamplerTest, MatchFractionApproximatesSelectivity) {
  auto db = testutil::BuildToyDatabase(20000);
  Rng rng(5);
  const TableSample sample =
      TableSample::Build(*db->FindTable("fact").value(), 0.2, 100000, &rng);
  // value < 10 has true selectivity 0.2 (value = i % 50).
  const int64_t matches =
      sample.CountMatches({Pred(1, CompareOp::kLt, 10)});
  EXPECT_NEAR(static_cast<double>(matches) / sample.num_rows(), 0.2, 0.04);
}

TEST(SamplerTest, MaxRowsCap) {
  auto db = testutil::BuildToyDatabase(10000);
  Rng rng(5);
  const TableSample sample =
      TableSample::Build(*db->FindTable("fact").value(), 0.5, 100, &rng);
  EXPECT_EQ(sample.num_rows(), 100);
}

TEST(NdvClassicTest, FrequenciesComputed) {
  const SampleFrequencies freqs =
      ComputeFrequencies({1, 1, 1, 2, 2, 3}, 100);
  ASSERT_EQ(freqs.freq.size(), 3u);
  EXPECT_EQ(freqs.freq[0], 1);  // one singleton (3)
  EXPECT_EQ(freqs.freq[1], 1);  // one doubleton (2)
  EXPECT_EQ(freqs.freq[2], 1);  // one tripleton (1)
  EXPECT_EQ(freqs.sample_distinct(), 3);
  EXPECT_EQ(freqs.sample_size, 6);
}

// GEE should land within a loose factor on uniform data.
class ClassicNdvTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ClassicNdvTest, UniformColumnEstimates) {
  const int64_t true_ndv = GetParam();
  const int64_t population = 50000;
  Rng rng(41);
  std::vector<int64_t> sample;
  for (int i = 0; i < 2500; ++i) {  // 5% sample
    sample.push_back(rng.UniformInt(0, true_ndv - 1));
  }
  const SampleFrequencies freqs = ComputeFrequencies(sample, population);
  const double est = GeeEstimate(freqs);
  EXPECT_GT(est, static_cast<double>(true_ndv) / 10.0);
  EXPECT_LT(est, static_cast<double>(true_ndv) * 30.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClassicNdvTest,
                         ::testing::Values(100, 1000, 10000));

TEST(NdvClassicTest, DegenerateInputs) {
  const SampleFrequencies empty = ComputeFrequencies({}, 100);
  EXPECT_EQ(GeeEstimate(empty), 0.0);
}

// --- Sketch / sample estimators ------------------------------------------------

class TraditionalEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testutil::BuildToyDatabase(20000);
    statistics_ = SketchStatistics::Build(*db_, 32);
    sketch_ = std::make_unique<SketchEstimator>(statistics_.get());
    sample_ = std::make_unique<SampleEstimator>(*db_, 0.05, 10000, 17);
  }
  std::unique_ptr<minihouse::Database> db_;
  std::unique_ptr<SketchStatistics> statistics_;
  std::unique_ptr<SketchEstimator> sketch_;
  std::unique_ptr<SampleEstimator> sample_;
};

TEST_F(TraditionalEstimatorTest, SingleColumnSelectivityReasonable) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  // True selectivity of value < 10 is 0.2.
  for (minihouse::CardinalityEstimator* est :
       {static_cast<minihouse::CardinalityEstimator*>(sketch_.get()),
        static_cast<minihouse::CardinalityEstimator*>(sample_.get())}) {
    const double sel =
        est->EstimateSelectivity(fact, {Pred(1, CompareOp::kLt, 10)});
    EXPECT_NEAR(sel, 0.2, 0.08) << est->Name();
  }
}

TEST_F(TraditionalEstimatorTest, SketchAssumesIndependence) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  // bucket = value / 10, so (value < 10 AND bucket = 0) has true
  // selectivity 0.2 — but independence predicts 0.2 * 0.2 = 0.04.
  const double sel = sketch_->EstimateSelectivity(
      fact, {Pred(1, CompareOp::kLt, 10), Pred(2, CompareOp::kEq, 0)});
  EXPECT_LT(sel, 0.1);  // the underestimate the paper's Table 1 shows
}

TEST_F(TraditionalEstimatorTest, SampleCapturesCorrelation) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const double sel = sample_->EstimateSelectivity(
      fact, {Pred(1, CompareOp::kLt, 10), Pred(2, CompareOp::kEq, 0)});
  EXPECT_NEAR(sel, 0.2, 0.08);  // sample sees the correlation
}

TEST_F(TraditionalEstimatorTest, JoinCardinalityOrder) {
  auto query = testutil::ToyJoinQuery(*db_);
  for (minihouse::CardinalityEstimator* est :
       {static_cast<minihouse::CardinalityEstimator*>(sketch_.get()),
        static_cast<minihouse::CardinalityEstimator*>(sample_.get())}) {
    const double card = est->EstimateJoinCardinality(query, {0, 1});
    // True join size is 20000 (every fact row matches once).
    EXPECT_GT(card, 2000.0) << est->Name();
    EXPECT_LT(card, 200000.0) << est->Name();
  }
}

TEST_F(TraditionalEstimatorTest, GroupNdvBounds) {
  auto query = testutil::ToyJoinQuery(*db_);
  query.group_by.push_back({1, 1});  // dim.category: 5 values
  for (minihouse::CardinalityEstimator* est :
       {static_cast<minihouse::CardinalityEstimator*>(sketch_.get()),
        static_cast<minihouse::CardinalityEstimator*>(sample_.get())}) {
    const double ndv = est->EstimateGroupNdv(query);
    EXPECT_GE(ndv, 1.0) << est->Name();
    EXPECT_LT(ndv, 100.0) << est->Name();
  }
}

TEST_F(TraditionalEstimatorTest, ZeroSampleMatchesStillPositive) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const double sel = sample_->EstimateSelectivity(
      fact, {Pred(1, CompareOp::kEq, 999999)});  // matches nothing
  EXPECT_GT(sel, 0.0);
  EXPECT_LT(sel, 0.01);
}

}  // namespace
}  // namespace bytecard::stats
