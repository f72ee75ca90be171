#ifndef BYTECARD_BYTECARD_INCREMENTAL_INGEST_DELTA_H_
#define BYTECARD_BYTECARD_INCREMENTAL_INGEST_DELTA_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/hyperloglog.h"

namespace bytecard::incremental {

// Per-column summary of one ingest batch, computed in a single pass over the
// batch's values (never the full table). Values live in the column's numeric
// code space — the same space predicates, discretizers, and join bucketizers
// operate in.
struct ColumnDelta {
  int column = -1;
  bool has_values = false;  // false for kArray columns (no scalar domain)
  int64_t min = 0;
  int64_t max = 0;
  // Distinct batch value -> occurrence count, ascending by value.
  std::vector<std::pair<int64_t, int64_t>> value_counts;
  // Batch-local distinct sketch, ready to merge into the table's NDV sketch.
  stats::HyperLogLog hll;
};

// Everything the incremental maintainer needs from one DataIngestor batch:
// identity (table + epoch), the raw column-major batch values (the BN CPD
// count updates need joint per-row bins, which per-column summaries cannot
// provide), and the per-column summaries for the FactorJoin histogram merges
// and NDV sketch merges. Extracted once per batch by the ingestor; ~O(batch)
// memory, dropped after the observers run.
struct IngestDelta {
  std::string table;
  uint64_t epoch = 0;        // the ingestor's cumulative batch offset
  int64_t first_row = 0;     // batch occupies rows [first_row, first_row+rows_added)
  int64_t rows_added = 0;
  int64_t total_rows = 0;    // table rows after the batch
  // batch[c][i] = column c's numeric code of the i-th appended row; empty for
  // kArray columns.
  std::vector<std::vector<int64_t>> batch;
  std::vector<ColumnDelta> columns;  // one per schema column

  // Builds the per-column summaries from already-collected batch values.
  static IngestDelta Build(std::string table, uint64_t epoch,
                           int64_t first_row, int64_t total_rows,
                           std::vector<std::vector<int64_t>> batch,
                           int hll_precision = stats::kHllPrecision);
};

}  // namespace bytecard::incremental

#endif  // BYTECARD_BYTECARD_INCREMENTAL_INGEST_DELTA_H_
