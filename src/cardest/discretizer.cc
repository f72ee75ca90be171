#include "cardest/discretizer.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace bytecard::cardest {

namespace {
using minihouse::CompareOp;
}  // namespace

Discretizer Discretizer::Build(const std::vector<int64_t>& values,
                               int max_bins) {
  Discretizer d;
  if (values.empty() || max_bins <= 0) return d;
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  // Count distinct first to pick the mode.
  int64_t ndv = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1]) ++ndv;
  }

  if (ndv <= max_bins) {
    // Value-aligned: one bin per distinct value.
    d.bins_.reserve(ndv);
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || sorted[i] != sorted[i - 1]) {
        d.bins_.push_back(Bin{sorted[i], sorted[i], 1});
      }
    }
    return d;
  }

  // Equi-height ranges with value-aligned boundaries.
  const int64_t n = static_cast<int64_t>(sorted.size());
  const int64_t target = std::max<int64_t>(1, (n + max_bins - 1) / max_bins);
  int64_t i = 0;
  while (i < n) {
    Bin bin;
    bin.lo = sorted[i];
    int64_t j = std::min(n, i + target);
    while (j < n && sorted[j] == sorted[j - 1]) ++j;
    bin.hi = sorted[j - 1];
    bin.distinct = 1;
    for (int64_t k = i + 1; k < j; ++k) {
      if (sorted[k] != sorted[k - 1]) ++bin.distinct;
    }
    d.bins_.push_back(bin);
    i = j;
  }
  return d;
}

Discretizer Discretizer::BuildFromColumn(const minihouse::Column& column,
                                         int max_bins) {
  std::vector<int64_t> values;
  values.reserve(column.num_rows());
  for (int64_t i = 0; i < column.num_rows(); ++i) {
    values.push_back(column.NumericAt(i));
  }
  return Build(values, max_bins);
}

Discretizer Discretizer::BuildWithBoundaries(
    const std::vector<int64_t>& upper_bounds,
    const std::vector<int64_t>& values) {
  Discretizer d;
  if (upper_bounds.empty()) return d;
  int64_t lo = std::numeric_limits<int64_t>::min();
  for (int64_t hi : upper_bounds) {
    d.bins_.push_back(Bin{lo, hi, 1});
    lo = hi == std::numeric_limits<int64_t>::max() ? hi : hi + 1;
  }
  // Catch-all top bin so out-of-range values still land somewhere.
  if (upper_bounds.back() != std::numeric_limits<int64_t>::max()) {
    d.bins_.push_back(
        Bin{lo, std::numeric_limits<int64_t>::max(), 1});
  }

  // Fill per-bin distinct counts from the observed values.
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int64_t> distinct(d.bins_.size(), 0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      ++distinct[d.BinOf(sorted[i])];
    }
  }
  for (size_t b = 0; b < d.bins_.size(); ++b) {
    d.bins_[b].distinct = std::max<int64_t>(1, distinct[b]);
  }
  return d;
}

int Discretizer::BinOf(int64_t value) const {
  BC_DCHECK(!bins_.empty());
  // Binary search over inclusive upper bounds.
  int lo = 0;
  int hi = num_bins() - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (value <= bins_[mid].hi) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::vector<double> Discretizer::PredicateWeights(
    const minihouse::ColumnPredicate& pred) const {
  std::vector<double> weights(num_bins(), 0.0);

  auto add_eq = [&](int64_t value) {
    if (bins_.empty()) return;
    const int b = BinOf(value);
    const Bin& bin = bins_[b];
    if (value < bin.lo || value > bin.hi) return;  // clamped, no match
    if (bin.lo == bin.hi) {
      weights[b] = 1.0;
    } else {
      weights[b] = std::min(
          1.0, weights[b] + 1.0 / static_cast<double>(bin.distinct));
    }
  };

  auto add_range = [&](int64_t lo, int64_t hi) {
    for (int b = 0; b < num_bins(); ++b) {
      const Bin& bin = bins_[b];
      if (hi < bin.lo || lo > bin.hi) continue;
      if (lo <= bin.lo && hi >= bin.hi) {
        weights[b] = 1.0;
        continue;
      }
      // Partial overlap: interpolate over the bin's value span. Subtract in
      // double: open-ended sentinel bins (lo == INT64_MIN / hi == INT64_MAX)
      // would overflow int64 subtraction.
      const double span =
          static_cast<double>(bin.hi) - static_cast<double>(bin.lo) + 1.0;
      const double covered = static_cast<double>(std::min(hi, bin.hi)) -
                             static_cast<double>(std::max(lo, bin.lo)) + 1.0;
      weights[b] =
          std::max(weights[b], std::clamp(covered / span, 0.0, 1.0));
    }
  };

  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

  switch (pred.op) {
    case CompareOp::kEq:
      add_eq(pred.operand);
      break;
    case CompareOp::kIn:
      for (int64_t v : pred.in_list) add_eq(v);
      break;
    case CompareOp::kNe: {
      // 1 - eq weights.
      std::vector<double> eq(num_bins(), 0.0);
      std::swap(weights, eq);
      add_eq(pred.operand);
      for (int b = 0; b < num_bins(); ++b) weights[b] = 1.0 - weights[b];
      break;
    }
    case CompareOp::kLt:
      if (pred.operand != kMin) add_range(kMin, pred.operand - 1);
      break;
    case CompareOp::kLe:
      add_range(kMin, pred.operand);
      break;
    case CompareOp::kGt:
      if (pred.operand != kMax) add_range(pred.operand + 1, kMax);
      break;
    case CompareOp::kGe:
      add_range(pred.operand, kMax);
      break;
    case CompareOp::kBetween:
      add_range(pred.operand, pred.operand2);
      break;
  }
  return weights;
}

void Discretizer::Serialize(BufferWriter* writer) const {
  writer->WriteU64(bins_.size());
  for (const Bin& b : bins_) {
    writer->WriteI64(b.lo);
    writer->WriteI64(b.hi);
    writer->WriteI64(b.distinct);
  }
}

Result<Discretizer> Discretizer::Deserialize(BufferReader* reader) {
  Discretizer d;
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(reader->ReadCount(&n, 3 * sizeof(int64_t)));
  d.bins_.resize(n);
  for (auto& b : d.bins_) {
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.lo));
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.hi));
    BC_RETURN_IF_ERROR(reader->ReadI64(&b.distinct));
  }
  return d;
}

}  // namespace bytecard::cardest
