#ifndef BYTECARD_CARDEST_NDV_HLL_H_
#define BYTECARD_CARDEST_NDV_HLL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/serde.h"
#include "common/status.h"
#include "minihouse/table.h"
#include "stats/hyperloglog.h"

namespace bytecard::cardest {

// Mergeable HyperLogLog-backed NDV sketch for the incremental-maintenance
// path (DESIGN.md §13). A sketch is seeded once with a full column pass at
// enable time; every ingest batch merges its batch-local sketch in O(2^p),
// so refresh-time NDV no longer needs a full scan. Deletion-free appends
// only ever grow the distinct set, so the estimate is always current for
// the data actually in the table.
class NdvSketch {
 public:
  explicit NdvSketch(int precision = stats::kHllPrecision)
      : hll_(precision) {}

  // Add/Merge return true when the sketch state changed — callers caching
  // derived estimates skip the O(2^p) Estimate() rescan when they return
  // false (the steady-state ingest path, where most values are re-sightings).
  bool Add(int64_t value) { return hll_.Add(value); }
  double Estimate() const { return hll_.Estimate(); }
  int precision() const { return hll_.precision(); }

  // Merges a sketch of the same precision (register-wise max): commutative,
  // associative, idempotent — the property tests pin all three.
  bool Merge(const NdvSketch& other) { return hll_.Merge(other.hll_); }

  void Serialize(BufferWriter* writer) const { hll_.Serialize(writer); }
  static Result<NdvSketch> Deserialize(BufferReader* reader);

 private:
  explicit NdvSketch(stats::HyperLogLog hll) : hll_(std::move(hll)) {}

  stats::HyperLogLog hll_;
};

// Catalog of NDV sketches keyed by (table, column index). The incremental
// maintainer owns a mutable catalog it merges batch deltas into; each
// snapshot publish carries an immutable copy, so estimation reads never race
// maintenance writes.
class NdvSketchCatalog {
 public:
  // Seeds a sketch per scalar column of `table` with one full pass. Array
  // columns have no scalar domain and are skipped.
  void SeedTable(const minihouse::Table& table,
                 int precision = stats::kHllPrecision);

  // The sketch for (table, column), or nullptr when never seeded.
  const NdvSketch* Find(const std::string& table, int column) const;
  NdvSketch* FindMutable(const std::string& table, int column);

  // Estimated NDV for (table, column), or a negative value when absent —
  // callers fall through to their non-sketch path.
  double Estimate(const std::string& table, int column) const;

  size_t size() const { return sketches_.size(); }

 private:
  std::map<std::pair<std::string, int>, NdvSketch> sketches_;
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_NDV_HLL_H_
