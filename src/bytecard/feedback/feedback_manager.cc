#include "bytecard/feedback/feedback_manager.h"

#include <algorithm>
#include <utility>

namespace bytecard::feedback {

FeedbackManager::FeedbackManager(FeedbackOptions options)
    : log_(options.log),
      cache_(options.cache),
      drift_(options.drift) {}

bool FeedbackManager::LookupActual(const std::string& fingerprint,
                                   double* actual_rows) {
  if (!serve_from_cache_.load(std::memory_order_relaxed)) return false;
  return cache_.Lookup(fingerprint, actual_rows);
}

void FeedbackManager::RecordQueryFeedback(minihouse::QueryFeedback feedback) {
  for (const minihouse::OperatorFeedback& op : feedback.ops) {
    // Every exact observation is cacheable, whatever answered the estimate.
    cache_.Put(op.fingerprint, op.actual, op.tables);
    // Drift detection sees only model-answered single-table observations:
    // cache-served ones have q-error 1 by construction, and join q-errors
    // compound several tables' models.
    if (op.kind == minihouse::FeedbackKind::kScan && !op.served_from_cache &&
        op.tables.size() == 1) {
      drift_.Observe(op.tables[0], op.qerror);
    }
    // A specialized kernel's guard fired: veto the specialization for this
    // subplan until fresh domain stats arrive (next ingest of its tables).
    if (op.mis_specialized) {
      std::lock_guard<std::mutex> lock(veto_mu_);
      vetoes_[op.fingerprint] = op.tables;
    }
  }
  log_.Append(std::move(feedback));
}

bool FeedbackManager::SpecializationVetoed(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(veto_mu_);
  return vetoes_.count(fingerprint) > 0;
}

void FeedbackManager::OnIngest(const IngestionEvent& event) {
  cache_.InvalidateTable(event.table);
  // The batch's Seal refreshed the table's domain stats, so vetoes taken
  // against the stale bounds no longer apply.
  std::lock_guard<std::mutex> lock(veto_mu_);
  for (auto it = vetoes_.begin(); it != vetoes_.end();) {
    const std::vector<std::string>& tables = it->second;
    const bool touches =
        std::find(tables.begin(), tables.end(), event.table) != tables.end();
    it = touches ? vetoes_.erase(it) : ++it;
  }
}

void FeedbackManager::OnSnapshotPublished() { cache_.InvalidateAll(); }

void FeedbackManager::OnIncrementalPublish(const std::string& table) {
  cache_.InvalidateTable(table);
}

void FeedbackManager::OnTableHealthChanged(const std::string& table) {
  drift_.ResetTable(table);
}

}  // namespace bytecard::feedback
