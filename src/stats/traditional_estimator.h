#ifndef BYTECARD_STATS_TRADITIONAL_ESTIMATOR_H_
#define BYTECARD_STATS_TRADITIONAL_ESTIMATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "minihouse/database.h"
#include "minihouse/optimizer.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/sampler.h"

namespace bytecard::stats {

// Precomputed per-column sketches for a whole catalog: equi-height histogram
// plus an HLL distinct count for every model-visible column. This is the
// statistics store of ByteHouse's original Selinger-style optimizer.
class SketchStatistics {
 public:
  static std::unique_ptr<SketchStatistics> Build(
      const minihouse::Database& db, int histogram_buckets);

  const EquiHeightHistogram* FindHistogram(const std::string& table,
                                           int column) const;
  double ColumnNdv(const std::string& table, int column) const;

 private:
  struct TableStats {
    std::vector<EquiHeightHistogram> histograms;  // per column
    std::vector<double> ndv;                      // per column
  };
  std::map<std::string, TableStats> tables_;
};

// The sketch-based traditional estimator (ByteHouse's inherent method in the
// paper's Figure 5): per-column histograms with attribute independence, and
// the Selinger join-uniformity formula |R||S| / max(ndv_R, ndv_S) per edge.
// Group NDV comes from precomputed HLL counts and is *not* adjusted for
// filter predicates — the structural weakness §5.2 calls out.
class SketchEstimator : public minihouse::CardinalityEstimator {
 public:
  explicit SketchEstimator(const SketchStatistics* statistics)
      : statistics_(statistics) {}

  std::string Name() const override { return "sketch"; }

  double EstimateSelectivity(const minihouse::Table& table,
                             const minihouse::Conjunction& filters) override;
  double EstimateJoinCardinality(const minihouse::BoundQuery& query,
                                 const std::vector<int>& subset) override;
  double EstimateGroupNdv(const minihouse::BoundQuery& query) override;

 private:
  const SketchStatistics* statistics_;
};

// The sample-based estimator (the paper's AnalyticDB-like comparator):
// maintains a uniform row sample per table and evaluates the query's
// predicates on it at estimation time. More adaptive than sketches (captures
// cross-column correlation inside the sample) but pays real per-estimate
// compute — the overhead visible at the low latency quantiles of Figure 5.
class SampleEstimator : public minihouse::CardinalityEstimator {
 public:
  // `rate`: sampling fraction; `max_rows` caps per-table sample size.
  SampleEstimator(const minihouse::Database& db, double rate,
                  int64_t max_rows, uint64_t seed);

  std::string Name() const override { return "sample"; }

  double EstimateSelectivity(const minihouse::Table& table,
                             const minihouse::Conjunction& filters) override;
  double EstimateJoinCardinality(const minihouse::BoundQuery& query,
                                 const std::vector<int>& subset) override;
  double EstimateGroupNdv(const minihouse::BoundQuery& query) override;

  const TableSample* FindSample(const std::string& table) const;

 private:
  std::map<std::string, TableSample> samples_;
};

}  // namespace bytecard::stats

#endif  // BYTECARD_STATS_TRADITIONAL_ESTIMATOR_H_
