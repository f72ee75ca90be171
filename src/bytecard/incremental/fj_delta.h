#ifndef BYTECARD_BYTECARD_INCREMENTAL_FJ_DELTA_H_
#define BYTECARD_BYTECARD_INCREMENTAL_FJ_DELTA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/incremental/ingest_delta.h"
#include "cardest/factorjoin/factor_join.h"
#include "common/status.h"
#include "minihouse/database.h"
#include "stats/hyperloglog.h"

namespace bytecard::incremental {

// Incremental maintenance state for the global FactorJoin model: a private
// mutable copy of the model whose per-bucket histograms absorb ingest deltas,
// plus per-bucket HyperLogLog sketches that track each bucket's distinct key
// count exactly as data grows (bucket boundaries are frozen between full
// retrains, so a batch only ever adds mass to existing buckets).
//
// Merge semantics per bucket b of a key column:
//   count[b]    += batch rows landing in b                 (exact)
//   max_freq[b] += batch's max single-value frequency in b (upper bound:
//                  old-max + batch-max >= true merged max, so the paper's
//                  kUpperBound combiner stays a valid bound)
//   distinct[b]  = min(count[b], max(old, per-bucket HLL estimate))
class FjMaintenanceState {
 public:
  // Copies `model` and seeds the per-bucket distinct sketches with one pass
  // over every member key column in `db` (enable-time cost only; appends
  // from then on merge batch sketches).
  static Result<FjMaintenanceState> Seed(
      const cardest::FactorJoinModel& model, const minihouse::Database& db,
      int hll_precision = stats::kHllPrecision);

  // Merges the batch's value counts into every key column of delta.table.
  // Returns true when the delta touched at least one modelled key column
  // (i.e. a successor FactorJoin artifact is worth publishing).
  Result<bool> ApplyBatch(const IngestDelta& delta);

  // Adopts a freshly retrained model's stats (full retrain via the normal
  // lifecycle). The distinct sketches are kept: they track the data itself,
  // which only grows, independent of which model generation is live.
  void AdoptModel(const cardest::FactorJoinModel& model);

  // Serialized bytes of the maintained model, loadable through the same
  // SnapshotBuilder::LoadFactorJoin path a trained artifact takes.
  std::string SerializeModel() const;

  const cardest::FactorJoinModel& model() const { return model_; }

 private:
  FjMaintenanceState() = default;

  cardest::FactorJoinModel model_;
  // (table, column) -> one sketch per bucket of that key's group.
  std::map<std::pair<std::string, int>, std::vector<stats::HyperLogLog>>
      bucket_hlls_;
  int precision_ = stats::kHllPrecision;
};

}  // namespace bytecard::incremental

#endif  // BYTECARD_BYTECARD_INCREMENTAL_FJ_DELTA_H_
