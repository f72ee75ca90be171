#include "stats/hyperloglog.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace bytecard::stats {

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  BC_CHECK(precision >= 4 && precision <= 18);
  registers_.assign(size_t{1} << precision, 0);
}

uint64_t HyperLogLog::Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool HyperLogLog::AddHash(uint64_t hash) {
  const uint64_t index = hash >> (64 - precision_);
  const uint64_t rest = hash << precision_;
  // Rank = position of the leftmost 1-bit in the remaining bits (1-based).
  const int rank =
      rest == 0 ? (64 - precision_ + 1) : (std::countl_zero(rest) + 1);
  if (static_cast<uint8_t>(rank) <= registers_[index]) return false;
  registers_[index] = static_cast<uint8_t>(rank);
  return true;
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double alpha;
  if (registers_.size() == 16) {
    alpha = 0.673;
  } else if (registers_.size() == 32) {
    alpha = 0.697;
  } else if (registers_.size() == 64) {
    alpha = 0.709;
  } else {
    alpha = 0.7213 / (1.0 + 1.079 / m);
  }

  // 2^-r lookup: ranks are at most 64 - precision + 1 <= 61, and ldexp in
  // the register loop is the hot spot when Estimate runs per ingest batch.
  static const std::array<double, 64> kPow2Neg = [] {
    std::array<double, 64> t{};
    for (int i = 0; i < 64; ++i) t[i] = std::ldexp(1.0, -i);
    return t;
  }();
  double sum = 0.0;
  int64_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += kPow2Neg[r];
    if (r == 0) ++zeros;
  }
  double estimate = alpha * m * m / sum;

  // Small-range correction: linear counting.
  if (estimate <= 2.5 * m && zeros > 0) {
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

bool HyperLogLog::Merge(const HyperLogLog& other) {
  BC_CHECK(precision_ == other.precision_);
  bool changed = false;
  for (size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
      changed = true;
    }
  }
  return changed;
}

void HyperLogLog::Serialize(BufferWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(precision_));
  writer->WriteU64(registers_.size());
  for (uint8_t r : registers_) writer->WriteU32(r);
}

Result<HyperLogLog> HyperLogLog::Deserialize(BufferReader* reader) {
  uint32_t precision = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&precision));
  if (precision < 4 || precision > 18) {
    return Status::InvalidModel("bad HLL precision");
  }
  HyperLogLog hll(static_cast<int>(precision));
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(reader->ReadCount(&n, sizeof(uint32_t)));
  if (n != (uint64_t{1} << precision)) {
    return Status::InvalidModel("HLL register count mismatch");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t r = 0;
    BC_RETURN_IF_ERROR(reader->ReadU32(&r));
    hll.registers_[i] = static_cast<uint8_t>(r);
  }
  return hll;
}

}  // namespace bytecard::stats
