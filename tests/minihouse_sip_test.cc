// Bloom filter and sideways information passing (paper §3.1.2).

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

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

// The filter's probe arithmetic as it was written first, one 64-bit `%` of
// the bit count per probe: the reference the real filter's division-free
// reduction must match bit for bit.
class ModuloBloomFilter {
 public:
  explicit ModuloBloomFilter(int64_t expected_keys) {
    int64_t bits = expected_keys * 10;
    if (bits < 1024) bits = 1024;
    words_.assign(static_cast<size_t>((bits + 63) / 64), 0);
  }

  void Add(int64_t key) {
    const auto [h1, h2] = Hashes(key);
    for (int i = 0; i < 7; ++i) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % NumBits();
      words_[bit >> 6] |= 1ULL << (bit & 63);
    }
  }

  bool MayContain(int64_t key) const {
    const auto [h1, h2] = Hashes(key);
    for (int i = 0; i < 7; ++i) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % NumBits();
      if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
    }
    return true;
  }

  uint64_t NumBits() const { return words_.size() * 64; }

 private:
  static std::pair<uint64_t, uint64_t> Hashes(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return {x, (x >> 17) | 1ULL};
  }

  std::vector<uint64_t> words_;
};

// Both filters get the same keys, up to their sizing load, so that about
// half their bits are set and a probe that picked any other bit would
// change some answers. They must answer every member and non-member alike:
// at the 1,024-bit floor, at a power-of-two bit count and above 2^24 bits.
TEST(BloomFilterTest, ProbesMatchModuloReference) {
  constexpr int64_t kProbes = 100000;
  for (const int64_t expected_keys : {50, 6550, 1700000}) {
    SCOPED_TRACE(expected_keys);
    BloomFilter bloom(expected_keys);
    ModuloBloomFilter reference(expected_keys);
    Rng rng(static_cast<uint64_t>(expected_keys));
    std::vector<int64_t> members(expected_keys);
    for (int64_t& key : members) {
      key = static_cast<int64_t>(rng.Next());
      bloom.Add(key);
      reference.Add(key);
    }
    int64_t positives = 0;
    for (int64_t k = 0; k < kProbes; ++k) {
      const int64_t member = members[k % expected_keys];
      const int64_t other = static_cast<int64_t>(rng.Next());
      ASSERT_EQ(bloom.MayContain(member), reference.MayContain(member)) << k;
      ASSERT_EQ(bloom.MayContain(other), reference.MayContain(other)) << k;
      positives += reference.MayContain(other) ? 1 : 0;
    }
    EXPECT_GT(positives, 0);  // some non-members reach every probe
  }
  EXPECT_EQ(ModuloBloomFilter(50).NumBits(), 1024u);
  EXPECT_EQ(ModuloBloomFilter(6550).NumBits(), 1u << 16);
  EXPECT_GT(ModuloBloomFilter(1700000).NumBits(), 1u << 24);
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
