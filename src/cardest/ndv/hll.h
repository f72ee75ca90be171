#ifndef BYTECARD_CARDEST_NDV_HLL_H_
#define BYTECARD_CARDEST_NDV_HLL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "minihouse/table.h"
#include "stats/hyperloglog.h"

namespace bytecard::cardest {

// Catalog of mergeable HyperLogLog NDV sketches for the
// incremental-maintenance path (DESIGN.md §13), keyed by (table, column
// index). A sketch is seeded once with a full column pass at enable time;
// every ingest batch merges its batch-local sketch in O(2^p), so
// refresh-time NDV no longer needs a full scan. Deletion-free appends only
// ever grow the distinct set, so the estimate is always current for the data
// actually in the table. The incremental maintainer owns a mutable catalog it
// merges batch deltas into; each snapshot publish carries an immutable copy,
// so estimation reads never race maintenance writes.
class NdvSketchCatalog {
 public:
  // Seeds a sketch per scalar column of `table` with one full pass. Array
  // columns have no scalar domain and are skipped.
  void SeedTable(const minihouse::Table& table,
                 int precision = stats::kHllPrecision);

  // The sketch for (table, column), or nullptr when never seeded.
  const stats::HyperLogLog* Find(const std::string& table, int column) const;
  stats::HyperLogLog* FindMutable(const std::string& table, int column);

  // Estimated NDV for (table, column), or a negative value when absent —
  // callers fall through to their non-sketch path.
  double Estimate(const std::string& table, int column) const;

  size_t size() const { return sketches_.size(); }

 private:
  std::map<std::pair<std::string, int>, stats::HyperLogLog> sketches_;
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_NDV_HLL_H_
