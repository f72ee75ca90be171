#ifndef BYTECARD_STATS_SAMPLER_H_
#define BYTECARD_STATS_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "minihouse/predicate.h"
#include "minihouse/table.h"

namespace bytecard::stats {

// A uniform row sample of one table, materialized column-wise in numeric
// domain. Used by the sample-based estimator (which evaluates predicates on
// it at estimation time — the real cost the paper attributes to AnalyticDB-
// style estimation) and by the RBX featurization path (the paper's
// DataFrame-style in-memory sample).
class TableSample {
 public:
  TableSample() = default;

  // Draws floor(rate * rows) rows without replacement (at least 1 if the
  // table is non-empty and rate > 0), capped at `max_rows`.
  static TableSample Build(const minihouse::Table& table, double rate,
                           int64_t max_rows, Rng* rng);

  int64_t num_rows() const { return num_rows_; }
  double rate() const {
    return table_rows_ == 0
               ? 0.0
               : static_cast<double>(num_rows_) / static_cast<double>(table_rows_);
  }

  // Sampled values of schema column `c` (numeric domain).
  const std::vector<int64_t>& column(int c) const { return columns_[c]; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  // Evaluates a conjunction on the sample; returns matching sample-row count.
  int64_t CountMatches(const minihouse::Conjunction& filters) const;

  // Selection vector over sample rows for a conjunction.
  std::vector<uint8_t> Matches(const minihouse::Conjunction& filters) const;

 private:
  int64_t num_rows_ = 0;
  int64_t table_rows_ = 0;
  std::vector<std::vector<int64_t>> columns_;
};

}  // namespace bytecard::stats

#endif  // BYTECARD_STATS_SAMPLER_H_
