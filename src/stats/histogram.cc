#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bytecard::stats {

EquiHeightHistogram EquiHeightHistogram::Build(
    const minihouse::Column& column, int num_buckets) {
  std::vector<int64_t> values;
  const int64_t n = column.num_rows();
  values.reserve(n);
  for (int64_t i = 0; i < n; ++i) values.push_back(column.NumericAt(i));
  return BuildFromValues(std::move(values), num_buckets);
}

EquiHeightHistogram EquiHeightHistogram::BuildFromValues(
    std::vector<int64_t> values, int num_buckets) {
  EquiHeightHistogram hist;
  if (values.empty() || num_buckets <= 0) return hist;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  hist.total_rows_ = n;

  const int64_t target = std::max<int64_t>(1, (n + num_buckets - 1) / num_buckets);
  int64_t i = 0;
  while (i < n) {
    Bucket bucket;
    bucket.lo = values[i];
    int64_t j = std::min(n, i + target);
    // Extend so equal values never straddle a boundary (equi-height with
    // value-aligned boundaries).
    while (j < n && values[j] == values[j - 1]) ++j;
    bucket.hi = values[j - 1];
    bucket.count = j - i;
    bucket.distinct = 1;
    for (int64_t k = i + 1; k < j; ++k) {
      if (values[k] != values[k - 1]) ++bucket.distinct;
    }
    hist.total_distinct_ += bucket.distinct;
    hist.buckets_.push_back(bucket);
    i = j;
  }
  return hist;
}

double EquiHeightHistogram::EqFraction(int64_t value) const {
  if (total_rows_ == 0) return 0.0;
  for (const Bucket& b : buckets_) {
    if (value < b.lo || value > b.hi) continue;
    // Uniform-frequency assumption within the bucket.
    return static_cast<double>(b.count) /
           (static_cast<double>(std::max<int64_t>(1, b.distinct)) *
            static_cast<double>(total_rows_));
  }
  return 0.0;
}

double EquiHeightHistogram::LeFraction(int64_t value) const {
  if (total_rows_ == 0) return 0.0;
  double rows = 0.0;
  for (const Bucket& b : buckets_) {
    if (value >= b.hi) {
      rows += static_cast<double>(b.count);
    } else if (value >= b.lo) {
      // Linear interpolation within the bucket's value range.
      const double span = static_cast<double>(b.hi - b.lo) + 1.0;
      const double covered = static_cast<double>(value - b.lo) + 1.0;
      rows += static_cast<double>(b.count) * covered / span;
    }
  }
  return rows / static_cast<double>(total_rows_);
}

double EquiHeightHistogram::Selectivity(
    const minihouse::ColumnPredicate& pred) const {
  using minihouse::CompareOp;
  if (total_rows_ == 0) return 0.0;
  double sel = 0.0;
  switch (pred.op) {
    case CompareOp::kEq:
      sel = EqFraction(pred.operand);
      break;
    case CompareOp::kNe:
      sel = 1.0 - EqFraction(pred.operand);
      break;
    case CompareOp::kLe:
      sel = LeFraction(pred.operand);
      break;
    case CompareOp::kLt:
      sel = LeFraction(pred.operand) - EqFraction(pred.operand);
      break;
    case CompareOp::kGe:
      sel = 1.0 - LeFraction(pred.operand) + EqFraction(pred.operand);
      break;
    case CompareOp::kGt:
      sel = 1.0 - LeFraction(pred.operand);
      break;
    case CompareOp::kBetween:
      sel = LeFraction(pred.operand2) - LeFraction(pred.operand) +
            EqFraction(pred.operand);
      break;
    case CompareOp::kIn:
      for (int64_t v : pred.in_list) sel += EqFraction(v);
      break;
  }
  return std::clamp(sel, 0.0, 1.0);
}

void EquiHeightHistogram::Serialize(BufferWriter* writer) const {
  writer->WriteU64(static_cast<uint64_t>(total_rows_));
  writer->WriteU64(static_cast<uint64_t>(total_distinct_));
  writer->WriteU64(buckets_.size());
  for (const Bucket& b : buckets_) {
    writer->WriteI64(b.lo);
    writer->WriteI64(b.hi);
    writer->WriteI64(b.count);
    writer->WriteI64(b.distinct);
  }
}

Result<EquiHeightHistogram> EquiHeightHistogram::Deserialize(
    BufferReader* reader) {
  EquiHeightHistogram hist;
  uint64_t rows = 0;
  uint64_t distinct = 0;
  uint64_t num_buckets = 0;
  BC_RETURN_IF_ERROR(reader->ReadU64(&rows));
  BC_RETURN_IF_ERROR(reader->ReadU64(&distinct));
  BC_RETURN_IF_ERROR(reader->ReadU64(&num_buckets));
  hist.total_rows_ = static_cast<int64_t>(rows);
  hist.total_distinct_ = static_cast<int64_t>(distinct);
  hist.buckets_.resize(num_buckets);
  for (auto& b : hist.buckets_) {
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.lo));
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.hi));
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.count));
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.distinct));
  }
  return hist;
}

}  // namespace bytecard::stats
