// Bloom filter and sideways information passing (paper §3.1.2).

#include <gtest/gtest.h>

#include "common/bloom.h"
#include "common/rng.h"
#include "minihouse/executor.h"
#include "minihouse/reader.h"
#include "test_util.h"

namespace bytecard {
namespace {

using minihouse::CompareOp;

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int64_t k = 0; k < 1000; ++k) bloom.Add(k * 7919);
  for (int64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(bloom.MayContain(k * 7919)) << k;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(2000);
  for (int64_t k = 0; k < 2000; ++k) bloom.Add(k);
  int64_t false_positives = 0;
  const int64_t probes = 20000;
  for (int64_t k = 0; k < probes; ++k) {
    if (bloom.MayContain(1000000 + k)) ++false_positives;
  }
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.03);
}

TEST(BloomFilterTest, TinyFilterStillWorks) {
  BloomFilter bloom(1);
  bloom.Add(42);
  EXPECT_TRUE(bloom.MayContain(42));
  EXPECT_GT(bloom.MemoryBytes(), 0);
}

class SipScanTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testutil::BuildToyDatabase(20000); }
  std::unique_ptr<minihouse::Database> db_;
};

TEST_F(SipScanTest, SipFiltersRowsInBothReaders) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  // Build side: dim ids < 20 (the popular head).
  BloomFilter bloom(20);
  for (int64_t k = 0; k < 20; ++k) bloom.Add(k);

  minihouse::SemiJoinFilter sip;
  sip.column = 0;  // fact.dim_id
  sip.bloom = &bloom;

  // Reference count.
  int64_t expected = 0;
  for (int64_t r = 0; r < fact.num_rows(); ++r) {
    if (fact.column(0).NumericAt(r) < 20) ++expected;
  }

  for (minihouse::ReaderKind reader :
       {minihouse::ReaderKind::kSingleStage,
        minihouse::ReaderKind::kMultiStage}) {
    minihouse::ScanOptions options;
    options.reader = reader;
    options.sip = sip;
    minihouse::IoStats io;
    const minihouse::ScanResult result =
        ScanTable(fact, {}, {1}, options, &io);
    // Bloom has no false negatives, so at least all matching rows; a few
    // false positives are possible.
    EXPECT_GE(result.rows_matched(), expected);
    EXPECT_LE(result.rows_matched(), expected + expected / 10 + 50);
  }
}

TEST_F(SipScanTest, SipNeverDropsJoiningRows) {
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  Rng rng(3);
  BloomFilter bloom(100);
  std::vector<int64_t> keys;
  for (int i = 0; i < 30; ++i) {
    const int64_t k = rng.UniformInt(0, 99);
    keys.push_back(k);
    bloom.Add(k);
  }
  minihouse::ScanOptions options;
  options.reader = minihouse::ReaderKind::kMultiStage;
  options.sip = {0, &bloom};
  minihouse::IoStats io;
  const minihouse::ScanResult result = ScanTable(fact, {}, {0}, options, &io);
  // Every row whose key was added must appear.
  int64_t expected = 0;
  for (int64_t r = 0; r < fact.num_rows(); ++r) {
    const int64_t v = fact.column(0).NumericAt(r);
    for (int64_t k : keys) {
      if (v == k) {
        ++expected;
        break;
      }
    }
  }
  EXPECT_GE(result.rows_matched(), expected);
}

TEST_F(SipScanTest, ExecutorSipPreservesResultsAndSavesIo) {
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  // Filter dim to the head so the build side is tiny -> SIP kicks in.
  minihouse::ColumnPredicate pred;
  pred.column = 2;  // dim.flag == 1 (ids < 20)
  pred.op = CompareOp::kEq;
  pred.operand = 1;
  query.tables[1].filters.push_back(pred);

  minihouse::PhysicalPlan with_sip;
  with_sip.scans.resize(2);
  with_sip.join_order = {1, 0};  // dim first (small), fact probes
  with_sip.features.sip = true;

  minihouse::PhysicalPlan without_sip = with_sip;
  without_sip.features.sip = false;

  auto a = minihouse::ExecuteQuery(query, with_sip);
  auto b = minihouse::ExecuteQuery(query, without_sip);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ScalarCount(), b.value().ScalarCount());
  // The join output is identical; SIP pre-pruning must shrink the probe
  // side's intermediate volume (fewer rows enter the hash join).
  EXPECT_GT(a.value().ScalarCount(), 0);
}

TEST_F(SipScanTest, OptimizerFlagDisablesSip) {
  minihouse::OptimizerOptions options;
  options.features.sip = false;
  const minihouse::Optimizer optimizer(options);
  minihouse::BoundQuery query = testutil::ToyJoinQuery(*db_);
  // Any estimator works; use a trivial one via the sketch-free default path:
  // plan with nullptr is not allowed, so use a tiny fake.
  struct Trivial : minihouse::CardinalityEstimator {
    std::string Name() const override { return "trivial"; }
    double EstimateSelectivity(const minihouse::Table&,
                               const minihouse::Conjunction&) override {
      return 1.0;
    }
    double EstimateJoinCardinality(const minihouse::BoundQuery&,
                                   const std::vector<int>&) override {
      return 1.0;
    }
    double EstimateGroupNdv(const minihouse::BoundQuery&) override {
      return 1.0;
    }
  } trivial;
  const minihouse::PhysicalPlan plan = optimizer.Plan(query, &trivial);
  EXPECT_FALSE(plan.features.sip);
}

}  // namespace
}  // namespace bytecard
