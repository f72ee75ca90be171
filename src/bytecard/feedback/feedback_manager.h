#ifndef BYTECARD_BYTECARD_FEEDBACK_FEEDBACK_MANAGER_H_
#define BYTECARD_BYTECARD_FEEDBACK_FEEDBACK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bytecard/data_ingestor.h"
#include "bytecard/feedback/drift_detector.h"
#include "bytecard/feedback/feedback_cache.h"
#include "bytecard/feedback/feedback_log.h"
#include "minihouse/feedback.h"

namespace bytecard::feedback {

struct FeedbackOptions {
  FeedbackLog::Options log;
  FeedbackCache::Options cache;
  OnlineDriftDetector::Options drift;
};

// The runtime-feedback subsystem behind the engine's QueryFeedbackHook: wires
// the executor's estimate-vs-actual records into the bounded log, the
// feedback cache, and the drift detector, and subscribes to the two
// staleness signals (batch ingest → per-table invalidation; snapshot publish
// → full invalidation). One instance per ByteCard facade; all entry points
// are thread-safe.
class FeedbackManager : public minihouse::QueryFeedbackHook,
                        public IngestObserver {
 public:
  FeedbackManager() : FeedbackManager(FeedbackOptions{}) {}
  explicit FeedbackManager(FeedbackOptions options);

  // --- QueryFeedbackHook (called by optimizer / executor) -------------------
  bool LookupActual(const std::string& fingerprint,
                    double* actual_rows) override;
  void RecordQueryFeedback(minihouse::QueryFeedback feedback) override;
  // True once an observation for `fingerprint` reported a specialized-kernel
  // guard firing (stale domain stats): the compiler then keeps the generic
  // operator for that subplan. Vetoes clear per table on ingest — the batch
  // ends in a Seal, which refreshes the domain stats the kernel misjudged.
  bool SpecializationVetoed(const std::string& fingerprint) override;

  // --- IngestObserver (called by DataIngestor) ------------------------------
  void OnIngest(const IngestionEvent& event) override;

  // --- Lifecycle signals (called by the ByteCard facade) --------------------
  // Retrained models were published (RefreshModels): all cached actuals
  // refer to plans of a retired regime — flush. Health flips and mined
  // routes publish snapshots too, but change no table's data and keep them.
  void OnSnapshotPublished();
  // A delta-updated snapshot was published by the incremental maintainer for
  // one ingested table. Only that table's cached actuals are stale (its epoch
  // was already bumped by OnIngest; this bumps again in case the publish
  // lagged further batches), and crucially the drift windows are NOT reset:
  // drift must keep accumulating across incremental publishes so the
  // demote→full-retrain safety net still fires when deltas degrade.
  void OnIncrementalPublish(const std::string& table);
  // `table`'s model was demoted or re-promoted: its drift window reflects the
  // previous regime — reset so the verdict restarts clean.
  void OnTableHealthChanged(const std::string& table);

  // Toggles serving cached actuals to the optimizer (on at construction).
  // Off leaves capture, the log, and drift detection running but answers
  // every estimate from the model — the cache-ablation configuration.
  void set_serve_from_cache(bool serve) {
    serve_from_cache_.store(serve, std::memory_order_relaxed);
  }

  FeedbackLog& log() { return log_; }
  FeedbackCache& cache() { return cache_; }
  OnlineDriftDetector& drift() { return drift_; }

 private:
  FeedbackLog log_;
  FeedbackCache cache_;
  OnlineDriftDetector drift_;
  std::atomic<bool> serve_from_cache_{true};
  // Specialization vetoes: fingerprint → base tables the subplan touches
  // (the ingest-invalidation scope, same idea as the cache's table index).
  // Unbounded in principle but keyed by mis-specializations, which stale
  // domain stats make rare and an ingest clears.
  std::mutex veto_mu_;
  std::unordered_map<std::string, std::vector<std::string>> vetoes_;
};

}  // namespace bytecard::feedback

#endif  // BYTECARD_BYTECARD_FEEDBACK_FEEDBACK_MANAGER_H_
