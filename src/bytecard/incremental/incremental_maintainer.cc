#include "bytecard/incremental/incremental_maintainer.h"

#include <utility>

#include "bytecard/bytecard.h"
#include "common/logging.h"
#include "common/serde.h"

namespace bytecard::incremental {

IncrementalMaintainer::IncrementalMaintainer(ByteCard* bytecard)
    : bytecard_(bytecard) {}

Status IncrementalMaintainer::Seed(const minihouse::Database& db,
                                   const EstimatorSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot.fj_engine() != nullptr) {
    BC_ASSIGN_OR_RETURN(
        FjMaintenanceState fj,
        FjMaintenanceState::Seed(snapshot.fj_engine()->model(), db));
    fj_ = std::move(fj);
  }
  for (const std::string& name : db.TableNames()) {
    ndv_.SeedTable(*db.FindTable(name).value());
  }
  return Status::Ok();
}

void IncrementalMaintainer::OnIngest(const IngestionEvent& event) {
  if (event.delta == nullptr) return;
  Result<uint64_t> published = bytecard_->ApplyIngestDelta(*event.delta);
  if (!published.ok()) {
    BC_LOG(Warning) << "incremental maintenance for batch @" << event.offset
                    << " of '" << event.table
                    << "' failed: " << published.status().ToString();
  }
}

Result<IncrementalUpdates> IncrementalMaintainer::ComputeUpdates(
    const IngestDelta& delta, const EstimatorSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  IncrementalUpdates updates;

  // BN: delta-update only a live, healthy model — a demoted table is the
  // drift detector's business, and its retrain resets the page anyway.
  const cardest::BayesNetModel* model = snapshot.bn_model(delta.table);
  if (model != nullptr && snapshot.IsHealthy(delta.table)) {
    auto it = pages_.find(delta.table);
    if (it == pages_.end()) {
      BC_ASSIGN_OR_RETURN(
          BnCountPage page,
          BnCountPage::FromModel(*model, cardest::kBnLaplaceAlpha));
      it = pages_.emplace(delta.table, std::move(page)).first;
    }
    BC_RETURN_IF_ERROR(it->second.ApplyBatch(delta));
    updates.bn.emplace_back(delta.table, it->second.ToModel());
    ++stats_.bn_updates;
  }

  if (fj_.has_value()) {
    BC_ASSIGN_OR_RETURN(bool touched, fj_->ApplyBatch(delta));
    if (touched) {
      updates.has_fj = true;
      updates.fj_bytes = fj_->SerializeModel();
      ++stats_.fj_updates;
    }
  }

  bool merged = false;
  for (const ColumnDelta& cd : delta.columns) {
    if (!cd.has_values) continue;
    stats::HyperLogLog* sketch = ndv_.FindMutable(delta.table, cd.column);
    if (sketch == nullptr || sketch->precision() != cd.hll.precision()) {
      continue;  // never seeded (or precision changed) — skip, don't guess
    }
    sketch->Merge(cd.hll);
    merged = true;
    ++stats_.ndv_merges;
  }
  if (merged) {
    updates.ndv = std::make_shared<cardest::NdvSketchCatalog>(ndv_);
  }

  return updates;
}

void IncrementalMaintainer::OnModelReplaced(const std::string& kind,
                                            const std::string& name,
                                            const EstimatorSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kind == "bn") {
    if (pages_.erase(name) > 0) ++stats_.resets;
  } else if (kind == "factorjoin") {
    if (fj_.has_value() && snapshot.fj_engine() != nullptr) {
      fj_->AdoptModel(snapshot.fj_engine()->model());
    }
  }
}

void IncrementalMaintainer::RecordPublish(double seconds,
                                          const IngestDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.batches_applied;
  stats_.rows_absorbed += delta.rows_added;
  ++stats_.snapshots_published;
  stats_.maintenance_seconds += seconds;
}

IncrementalStats IncrementalMaintainer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace bytecard::incremental
