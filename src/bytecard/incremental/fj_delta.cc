#include "bytecard/incremental/fj_delta.h"

#include <algorithm>

#include "minihouse/column.h"
#include "minihouse/table.h"

namespace bytecard::incremental {

Result<FjMaintenanceState> FjMaintenanceState::Seed(
    const cardest::FactorJoinModel& model, const minihouse::Database& db,
    int hll_precision) {
  FjMaintenanceState state;
  state.model_ = model;
  state.precision_ = hll_precision;
  for (const cardest::FactorJoinModel::KeyGroup& group : model.groups()) {
    for (const cardest::JoinKeyRef& member : group.members) {
      BC_ASSIGN_OR_RETURN(const minihouse::Table* table,
                          db.FindTable(member.table));
      if (member.column < 0 || member.column >= table->num_columns()) {
        return Status::InvalidArgument("join key column out of range for " +
                                       member.table);
      }
      const minihouse::Column& column = table->column(member.column);
      std::vector<stats::HyperLogLog> sketches(
          group.buckets.num_buckets(), stats::HyperLogLog(hll_precision));
      const int64_t rows = column.num_rows();
      for (int64_t i = 0; i < rows; ++i) {
        const int64_t value = column.NumericAt(i);
        sketches[group.buckets.BucketOf(value)].Add(value);
      }
      state.bucket_hlls_.insert_or_assign({member.table, member.column},
                                          std::move(sketches));
    }
  }
  return state;
}

Result<bool> FjMaintenanceState::ApplyBatch(const IngestDelta& delta) {
  bool touched = false;
  for (const cardest::FactorJoinModel::KeyGroup& group : model_.groups()) {
    for (const cardest::JoinKeyRef& member : group.members) {
      if (member.table != delta.table) continue;
      if (member.column < 0 ||
          member.column >= static_cast<int>(delta.columns.size())) {
        return Status::InvalidArgument("ingest delta lacks join key column " +
                                       std::to_string(member.column));
      }
      const ColumnDelta& cd = delta.columns[member.column];
      if (!cd.has_values) continue;
      cardest::BucketStats* stats =
          model_.FindMutableStats(member.table, member.column);
      auto hlls = bucket_hlls_.find({member.table, member.column});
      if (stats == nullptr || hlls == bucket_hlls_.end()) {
        return Status::Internal("FactorJoin stats missing for " +
                                member.table + "." +
                                std::to_string(member.column));
      }
      const int nb = group.buckets.num_buckets();
      // One pass over the batch's (value, frequency) pairs, adding each value
      // straight into the persistent per-bucket sketch (register-wise max, so
      // this is identical to building a batch sketch and merging it — without
      // allocating nb transient sketches per batch). A bucket only pays the
      // O(2^p) Estimate() rescan when one of its registers actually grew;
      // on the steady-state path most values are re-sightings and the cached
      // distinct count stands.
      std::vector<double> batch_count(nb, 0.0);
      std::vector<double> batch_max_freq(nb, 0.0);
      std::vector<uint8_t> sketch_grew(nb, 0);
      std::vector<stats::HyperLogLog>& sketches = hlls->second;
      for (const auto& [value, freq] : cd.value_counts) {
        const int b = group.buckets.BucketOf(value);
        batch_count[b] += static_cast<double>(freq);
        batch_max_freq[b] =
            std::max(batch_max_freq[b], static_cast<double>(freq));
        if (sketches[b].Add(value)) sketch_grew[b] = 1;
      }
      for (int b = 0; b < nb; ++b) {
        if (batch_count[b] == 0.0) continue;
        stats->count[b] += batch_count[b];
        // Summing the two maxima upper-bounds the merged maximum frequency,
        // so kUpperBound never turns into an underestimate.
        stats->max_freq[b] += batch_max_freq[b];
        if (sketch_grew[b] != 0) {
          stats->distinct[b] = std::max(stats->distinct[b],
                                        sketches[b].Estimate());
        }
        stats->distinct[b] = std::min(stats->count[b], stats->distinct[b]);
      }
      touched = true;
    }
  }
  return touched;
}

void FjMaintenanceState::AdoptModel(const cardest::FactorJoinModel& model) {
  model_ = model;
}

std::string FjMaintenanceState::SerializeModel() const {
  BufferWriter writer;
  model_.Serialize(&writer);
  return writer.Release();
}

}  // namespace bytecard::incremental
