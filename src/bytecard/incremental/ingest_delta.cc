#include "bytecard/incremental/ingest_delta.h"

#include <algorithm>
#include <map>

namespace bytecard::incremental {

IngestDelta IngestDelta::Build(std::string table, uint64_t epoch,
                               int64_t first_row, int64_t total_rows,
                               std::vector<std::vector<int64_t>> batch,
                               int hll_precision) {
  IngestDelta delta;
  delta.table = std::move(table);
  delta.epoch = epoch;
  delta.first_row = first_row;
  delta.total_rows = total_rows;
  delta.batch = std::move(batch);
  delta.rows_added = total_rows - first_row;
  delta.columns.resize(delta.batch.size());
  for (size_t c = 0; c < delta.batch.size(); ++c) {
    ColumnDelta& cd = delta.columns[c];
    cd.column = static_cast<int>(c);
    cd.hll = stats::HyperLogLog(hll_precision);
    const std::vector<int64_t>& values = delta.batch[c];
    if (values.empty()) continue;  // kArray column: no scalar summary
    cd.has_values = true;
    cd.min = *std::min_element(values.begin(), values.end());
    cd.max = *std::max_element(values.begin(), values.end());
    std::map<int64_t, int64_t> counts;
    for (int64_t v : values) {
      ++counts[v];
      cd.hll.Add(v);
    }
    cd.value_counts.assign(counts.begin(), counts.end());
  }
  return delta;
}

}  // namespace bytecard::incremental
