#ifndef BYTECARD_BYTECARD_INCREMENTAL_INCREMENTAL_MAINTAINER_H_
#define BYTECARD_BYTECARD_INCREMENTAL_INCREMENTAL_MAINTAINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/data_ingestor.h"
#include "bytecard/incremental/bn_delta.h"
#include "bytecard/incremental/fj_delta.h"
#include "bytecard/snapshot.h"
#include "cardest/ndv/hll.h"
#include "common/status.h"
#include "minihouse/database.h"

namespace bytecard {
class ByteCard;
}  // namespace bytecard

namespace bytecard::incremental {

struct IncrementalStats {
  int64_t batches_applied = 0;
  int64_t rows_absorbed = 0;
  int64_t bn_updates = 0;
  int64_t fj_updates = 0;
  int64_t ndv_merges = 0;
  int64_t snapshots_published = 0;
  // Count pages dropped because a full retrain replaced their base model.
  int64_t resets = 0;
  double maintenance_seconds = 0.0;
};

// The model updates one ingest delta produced, ready for the facade to load
// into a SnapshotBuilder. Everything goes through the same validated
// admission paths a trained artifact takes; BN models ride in memory
// (SnapshotBuilder::AdoptBn — one delta publish per batch makes the
// serialize -> deserialize round trip pure overhead), the FactorJoin model
// as bytes (its successor rebuild path is byte-based anyway).
struct IncrementalUpdates {
  std::vector<std::pair<std::string, cardest::BayesNetModel>> bn;
  bool has_fj = false;
  std::string fj_bytes;
  // Immutable copy of the merged NDV catalog; null when no sketch changed.
  std::shared_ptr<const cardest::NdvSketchCatalog> ndv;
};

// The incremental model-maintenance subsystem (DESIGN.md §13): consumes
// IngestDeltas from the DataIngestor's consumption log and keeps every model
// family current between full retrains —
//   * BN COUNT models via copy-on-write CPD count pages (BnCountPage),
//   * the FactorJoin model via per-bucket histogram merges
//     (FjMaintenanceState),
//   * unfiltered column NDV via mergeable HyperLogLog sketches.
// BN count pages renormalize with cardest::kBnLaplaceAlpha and the NDV
// sketches use stats::kHllPrecision, the values training and the ingestor
// use. Each absorbed batch becomes a cheap successor snapshot stamped with
// the batch's ingest epoch, published through the exact SnapshotBuilder path
// full retrains use. The maintainer never decides model quality: the
// OnlineDriftDetector demotes a table whose delta-updated model degrades, and
// the normal demote -> retrain -> RefreshModels loop resets this state
// (OnModelReplaced).
//
// Threading: OnIngest runs on the ingest thread after the table's write
// latch is released; it re-enters the facade (ApplyIngestDelta), which
// serializes on lifecycle_mu_ and calls back into ComputeUpdates /
// RecordPublish. Internal state is guarded by mu_ so stats() and
// OnModelReplaced may race OnIngest safely.
class IncrementalMaintainer : public IngestObserver {
 public:
  // `bytecard` is not owned and must outlive the maintainer.
  explicit IncrementalMaintainer(ByteCard* bytecard);

  // Seeds the FactorJoin maintenance copy and the per-column NDV sketches
  // with one pass over `db` (enable-time cost; batches merge from then on).
  // `snapshot` is the currently-published serving state.
  Status Seed(const minihouse::Database& db,
              const EstimatorSnapshot& snapshot);

  // IngestObserver: routes the batch's delta into the facade's delta-publish
  // path. Failures are logged, never thrown into the ingest path — the batch
  // itself already landed; the drift detector catches a stale model.
  void OnIngest(const IngestionEvent& event) override;

  // Applies one delta to the maintenance state and returns the serialized
  // model updates to publish. Called by ByteCard::ApplyIngestDelta under
  // lifecycle_mu_.
  Result<IncrementalUpdates> ComputeUpdates(const IngestDelta& delta,
                                            const EstimatorSnapshot& snapshot);

  // Lifecycle callback: a full-retrain artifact of (kind, name) was just
  // published. BN -> drop that table's count page (the next delta re-unfolds
  // from the fresh model); FactorJoin -> adopt the new stats (the distinct
  // sketches are kept — they track the data, not the model generation).
  void OnModelReplaced(const std::string& kind, const std::string& name,
                       const EstimatorSnapshot& snapshot);

  // Accounting for one completed delta publish.
  void RecordPublish(double seconds, const IngestDelta& delta);

  IncrementalStats stats() const;

 private:
  ByteCard* bytecard_;

  mutable std::mutex mu_;
  std::map<std::string, BnCountPage> pages_;
  std::optional<FjMaintenanceState> fj_;
  cardest::NdvSketchCatalog ndv_;
  IncrementalStats stats_;
};

}  // namespace bytecard::incremental

#endif  // BYTECARD_BYTECARD_INCREMENTAL_INCREMENTAL_MAINTAINER_H_
