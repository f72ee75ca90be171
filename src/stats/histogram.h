#ifndef BYTECARD_STATS_HISTOGRAM_H_
#define BYTECARD_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "minihouse/column.h"
#include "minihouse/predicate.h"

namespace bytecard::stats {

// Equi-height histogram over a column's numeric domain — the Selinger-style
// sketch ByteHouse's original optimizer used, and also the bucket source for
// FactorJoin's join-bucket construction (paper §4.2).
//
// Estimation assumptions (deliberately, these are the weaknesses Table 1
// demonstrates): values are uniform within a bucket, distinct values within a
// bucket are equally frequent, and columns are mutually independent.
class EquiHeightHistogram {
 public:
  struct Bucket {
    int64_t lo = 0;        // inclusive
    int64_t hi = 0;        // inclusive
    int64_t count = 0;     // rows in bucket
    int64_t distinct = 0;  // distinct values in bucket
  };

  EquiHeightHistogram() = default;

  // Builds from every row of `column` (a full-scan sketch, as in the paper's
  // precomputed-statistics setup).
  static EquiHeightHistogram Build(const minihouse::Column& column,
                                   int num_buckets);

  // Builds from an explicit value multiset (used for sampled builds).
  static EquiHeightHistogram BuildFromValues(std::vector<int64_t> values,
                                             int num_buckets);

  // Estimated fraction of rows satisfying `pred`, in [0, 1].
  double Selectivity(const minihouse::ColumnPredicate& pred) const;

  int64_t total_rows() const { return total_rows_; }
  const std::vector<Bucket>& buckets() const { return buckets_; }
  bool empty() const { return buckets_.empty(); }

  void Serialize(BufferWriter* writer) const;
  static Result<EquiHeightHistogram> Deserialize(BufferReader* reader);

 private:
  double EqFraction(int64_t value) const;
  double LeFraction(int64_t value) const;  // fraction with v <= value

  std::vector<Bucket> buckets_;
  int64_t total_rows_ = 0;
  int64_t total_distinct_ = 0;
};

}  // namespace bytecard::stats

#endif  // BYTECARD_STATS_HISTOGRAM_H_
