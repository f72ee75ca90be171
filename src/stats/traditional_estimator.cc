#include "stats/traditional_estimator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "stats/ndv_classic.h"

namespace bytecard::stats {

namespace {

using minihouse::BoundQuery;
using minihouse::Conjunction;
using minihouse::DataType;
using minihouse::JoinEdge;
using minihouse::Table;

bool InSubset(const std::vector<int>& subset, int t) {
  return std::find(subset.begin(), subset.end(), t) != subset.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// SketchStatistics
// ---------------------------------------------------------------------------

std::unique_ptr<SketchStatistics> SketchStatistics::Build(
    const minihouse::Database& db, int histogram_buckets) {
  auto stats = std::make_unique<SketchStatistics>();
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.FindTable(name).value();
    TableStats ts;
    ts.histograms.resize(table->num_columns());
    ts.ndv.resize(table->num_columns(), 0.0);
    for (int c = 0; c < table->num_columns(); ++c) {
      if (table->schema().column(c).type == DataType::kArray) continue;
      const minihouse::Column& col = table->column(c);
      ts.histograms[c] = EquiHeightHistogram::Build(col, histogram_buckets);
      HyperLogLog hll;
      for (int64_t i = 0; i < col.num_rows(); ++i) hll.Add(col.NumericAt(i));
      ts.ndv[c] = hll.Estimate();
    }
    stats->tables_[name] = std::move(ts);
  }
  return stats;
}

const EquiHeightHistogram* SketchStatistics::FindHistogram(
    const std::string& table, int column) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return nullptr;
  if (column < 0 || column >= static_cast<int>(it->second.histograms.size())) {
    return nullptr;
  }
  return &it->second.histograms[column];
}

double SketchStatistics::ColumnNdv(const std::string& table,
                                   int column) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return 1.0;
  if (column < 0 || column >= static_cast<int>(it->second.ndv.size())) {
    return 1.0;
  }
  return std::max(1.0, it->second.ndv[column]);
}

// ---------------------------------------------------------------------------
// SketchEstimator
// ---------------------------------------------------------------------------

double SketchEstimator::EstimateSelectivity(const Table& table,
                                            const Conjunction& filters) {
  // Attribute-value independence: multiply per-column selectivities.
  double sel = 1.0;
  for (const minihouse::ColumnPredicate& pred : filters) {
    const EquiHeightHistogram* hist =
        statistics_->FindHistogram(table.name(), pred.column);
    sel *= hist == nullptr || hist->empty() ? 1.0 : hist->Selectivity(pred);
  }
  // Zone-map tier (DESIGN.md §12): block min/max stamped at Seal bound the
  // conjunction's selectivity from above at zero estimator cost. On
  // clustered columns this catches exactly the histogram's blind spot —
  // cross-block correlation of physical layout with the predicate range.
  sel = std::min(sel, minihouse::ZoneMapSelectivityBound(table, filters));
  return std::clamp(sel, 0.0, 1.0);
}

double SketchEstimator::EstimateJoinCardinality(
    const BoundQuery& query, const std::vector<int>& subset) {
  double card = 1.0;
  for (int t : subset) {
    const Table& table = *query.tables[t].table;
    card *= static_cast<double>(table.num_rows()) *
            EstimateSelectivity(table, query.tables[t].filters);
  }
  // Join uniformity + key inclusion: each edge divides by max side NDV.
  for (const JoinEdge& e : query.joins) {
    if (!InSubset(subset, e.left_table) || !InSubset(subset, e.right_table)) {
      continue;
    }
    const double ndv_left = statistics_->ColumnNdv(
        query.tables[e.left_table].table->name(), e.left_column);
    const double ndv_right = statistics_->ColumnNdv(
        query.tables[e.right_table].table->name(), e.right_column);
    card /= std::max(1.0, std::max(ndv_left, ndv_right));
  }
  return std::max(card, 0.0);
}

double SketchEstimator::EstimateGroupNdv(const BoundQuery& query) {
  if (query.group_by.empty()) return 1.0;
  // Precomputed full-column NDVs; predicates are ignored (the sketch store
  // has no way to condition on them), capped by the estimated output size.
  double ndv = 1.0;
  for (const minihouse::GroupKeyRef& g : query.group_by) {
    ndv *= statistics_->ColumnNdv(query.tables[g.table].table->name(),
                                  g.column);
  }
  std::vector<int> all(query.num_tables());
  for (int i = 0; i < query.num_tables(); ++i) all[i] = i;
  const double rows = EstimateJoinCardinality(query, all);
  return std::max(1.0, std::min(ndv, rows));
}

// ---------------------------------------------------------------------------
// SampleEstimator
// ---------------------------------------------------------------------------

SampleEstimator::SampleEstimator(const minihouse::Database& db, double rate,
                                 int64_t max_rows, uint64_t seed) {
  Rng rng(seed);
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.FindTable(name).value();
    samples_[name] = TableSample::Build(*table, rate, max_rows, &rng);
  }
}

const TableSample* SampleEstimator::FindSample(
    const std::string& table) const {
  auto it = samples_.find(table);
  return it == samples_.end() ? nullptr : &it->second;
}

double SampleEstimator::EstimateSelectivity(const Table& table,
                                            const Conjunction& filters) {
  const TableSample* sample = FindSample(table.name());
  if (sample == nullptr || sample->num_rows() == 0) return 1.0;
  const int64_t matches = sample->CountMatches(filters);
  if (matches == 0) {
    // Classic small-sample failure: zero matches cannot mean zero rows.
    // Assume half a row matched.
    return 0.5 / static_cast<double>(sample->num_rows());
  }
  return static_cast<double>(matches) /
         static_cast<double>(sample->num_rows());
}

double SampleEstimator::EstimateJoinCardinality(
    const BoundQuery& query, const std::vector<int>& subset) {
  // Selinger shape, but all inputs measured on the samples: selectivities
  // from sample predicate evaluation, join-key NDVs from sample distincts
  // scaled up with GEE.
  double card = 1.0;
  for (int t : subset) {
    const Table& table = *query.tables[t].table;
    card *= static_cast<double>(table.num_rows()) *
            EstimateSelectivity(table, query.tables[t].filters);
  }
  for (const JoinEdge& e : query.joins) {
    if (!InSubset(subset, e.left_table) || !InSubset(subset, e.right_table)) {
      continue;
    }
    auto key_ndv = [&](int t, int c) {
      const TableSample* sample =
          FindSample(query.tables[t].table->name());
      if (sample == nullptr || sample->num_rows() == 0) return 1.0;
      const SampleFrequencies freqs = ComputeFrequencies(
          sample->column(c), query.tables[t].table->num_rows());
      return std::max(1.0, GeeEstimate(freqs));
    };
    const double ndv_left = key_ndv(e.left_table, e.left_column);
    const double ndv_right = key_ndv(e.right_table, e.right_column);
    card /= std::max(1.0, std::max(ndv_left, ndv_right));
  }
  return std::max(card, 0.0);
}

double SampleEstimator::EstimateGroupNdv(const BoundQuery& query) {
  if (query.group_by.empty()) return 1.0;
  double ndv = 1.0;
  for (const minihouse::GroupKeyRef& g : query.group_by) {
    const auto& ref = query.tables[g.table];
    const TableSample* sample = FindSample(ref.table->name());
    if (sample == nullptr || sample->num_rows() == 0) continue;
    // Filter the sample with this table's predicates, then scale the
    // surviving distinct count with GEE over the filtered population.
    const std::vector<uint8_t> sel = sample->Matches(ref.filters);
    std::vector<int64_t> values;
    for (int64_t i = 0; i < sample->num_rows(); ++i) {
      if (sel[i] != 0) values.push_back(sample->column(g.column)[i]);
    }
    if (values.empty()) continue;
    const double match_fraction =
        static_cast<double>(values.size()) /
        static_cast<double>(sample->num_rows());
    const int64_t population = std::max<int64_t>(
        1, static_cast<int64_t>(match_fraction *
                                static_cast<double>(ref.table->num_rows())));
    const SampleFrequencies freqs = ComputeFrequencies(values, population);
    ndv *= std::max(1.0, GeeEstimate(freqs));
  }
  std::vector<int> all(query.num_tables());
  for (int i = 0; i < query.num_tables(); ++i) all[i] = i;
  const double rows = EstimateJoinCardinality(query, all);
  return std::max(1.0, std::min(ndv, rows));
}

}  // namespace bytecard::stats
