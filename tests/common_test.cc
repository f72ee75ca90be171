// Tests for src/common: Status/Result, the RNG, and binary serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"

namespace bytecard {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::NotFound("model missing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "model missing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: model missing");
}

TEST(StatusTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::InvalidModel("").code(), StatusCode::kInvalidModel);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::Internal("boom");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string(1000, 'x');
  ASSERT_TRUE(result.ok());
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 1000u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  BC_ASSIGN_OR_RETURN(int half, Half(x));
  BC_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkIndependent) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfTest, SkewConcentratesMass) {
  Rng rng(31);
  ZipfDistribution zipf(1000, 1.2);
  int64_t head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 10) ++head;
  }
  // With skew 1.2 the top-10 of 1000 values should hold a large share.
  EXPECT_GT(static_cast<double>(head) / n, 0.4);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  Rng rng(37);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

// Every draw equals a binary search of the CDF for the same uniform: the
// first k with cdf[k] >= u, or n - 1 past the end. The CDF is rebuilt here
// term by term as the distribution defines it.
TEST(ZipfTest, MatchesLowerBoundReference) {
  constexpr int kDraws = 1'000'000;
  for (uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL, 99999ULL}) {
    for (double skew : {0.0, 0.8, 1.3}) {
      SCOPED_TRACE("n " + std::to_string(n) + " skew " +
                   std::to_string(skew));
      std::vector<double> cdf(n);
      double total = 0.0;
      for (uint64_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
        cdf[k] = total;
      }
      for (double& c : cdf) c /= total;

      const ZipfDistribution zipf(n, skew);
      Rng sampled(n * 7 + static_cast<uint64_t>(skew * 10));
      Rng reference = sampled;
      int64_t mismatches = 0;
      for (int i = 0; i < kDraws; ++i) {
        const double u = reference.NextDouble();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const uint64_t expected =
            it == cdf.end() ? n - 1 : static_cast<uint64_t>(it - cdf.begin());
        mismatches += zipf.Sample(&sampled) != expected;
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

// --- Serde -------------------------------------------------------------------

TEST(SerdeTest, RoundTripScalars) {
  BufferWriter writer;
  writer.WriteU32(7);
  writer.WriteU64(1ULL << 40);
  writer.WriteI64(-12345);
  writer.WriteDouble(3.25);
  writer.WriteString("hello");

  BufferReader reader(writer.buffer());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  std::string s;
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_EQ(i64, -12345);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerdeTest, RoundTripVectors) {
  BufferWriter writer;
  const std::vector<double> dv = {1.5, -2.5, 0.0};
  const std::vector<int64_t> iv = {9, -9, 1LL << 50};
  writer.WriteDoubleVec(dv);
  writer.WriteI64Vec(iv);

  BufferReader reader(writer.buffer());
  std::vector<double> dv2;
  std::vector<int64_t> iv2;
  ASSERT_TRUE(reader.ReadDoubleVec(&dv2).ok());
  ASSERT_TRUE(reader.ReadI64Vec(&iv2).ok());
  EXPECT_EQ(dv2, dv);
  EXPECT_EQ(iv2, iv);
}

TEST(SerdeTest, TruncatedBufferFailsCleanly) {
  BufferWriter writer;
  writer.WriteU64(100);  // claims 100 elements but provides none
  BufferReader reader(writer.buffer());
  std::vector<double> out;
  const Status status = reader.ReadDoubleVec(&out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, TruncatedStringFailsCleanly) {
  BufferWriter writer;
  writer.WriteU64(1000);
  BufferReader reader(writer.buffer());
  std::string out;
  EXPECT_FALSE(reader.ReadString(&out).ok());
}

TEST(SerdeTest, ReadPastEndFails) {
  BufferReader reader("", 0);
  uint32_t v = 0;
  EXPECT_FALSE(reader.ReadU32(&v).ok());
}

TEST(SerdeTest, HugeClaimedCountRejectedWithoutAllocation) {
  BufferWriter writer;
  writer.WriteU64(~0ULL);  // absurd element count
  BufferReader reader(writer.buffer());
  std::vector<int64_t> out;
  EXPECT_FALSE(reader.ReadI64Vec(&out).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace bytecard
