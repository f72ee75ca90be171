#ifndef BYTECARD_BYTECARD_BYTECARD_H_
#define BYTECARD_BYTECARD_BYTECARD_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/feedback/feedback_manager.h"
#include "bytecard/incremental/incremental_maintainer.h"
#include "bytecard/inference_engine.h"
#include "bytecard/model_forge.h"
#include "bytecard/model_loader.h"
#include "bytecard/model_monitor.h"
#include "bytecard/model_validator.h"
#include "bytecard/routing/route_miner.h"
#include "bytecard/routing/routing_table.h"
#include "bytecard/snapshot.h"
#include "cardest/ndv/rbx.h"
#include "common/snapshot.h"
#include "common/status.h"
#include "minihouse/database.h"
#include "minihouse/optimizer.h"
#include "minihouse/scheduler.h"
#include "stats/sampler.h"
#include "stats/traditional_estimator.h"

namespace bytecard {

// Aggregate training cost/size accounting (feeds Tables 3 and 6).
struct ByteCardTrainingStats {
  double bn_seconds = 0.0;
  double factorjoin_seconds = 0.0;
  double rbx_seconds = 0.0;
  int64_t bn_bytes = 0;
  int64_t factorjoin_bytes = 0;
  int64_t rbx_bytes = 0;
  std::vector<ModelArtifact> artifacts;

  double total_seconds() const {
    return bn_seconds + factorjoin_seconds + rbx_seconds;
  }
  int64_t total_bytes() const {
    return bn_bytes + factorjoin_bytes + rbx_bytes;
  }
};

// The ByteCard framework facade, structured as a thin router over an
// atomically-swappable EstimatorSnapshot (see snapshot.h). The snapshot
// bundles everything the read path needs — per-table BN engines + contexts,
// the FactorJoin engine, the RBX engine, RBX samples, model health flags,
// and the traditional fallback — into one immutable unit. Estimation
// acquires the current snapshot (lock-free) and serves from it; model
// lifecycle writers (RefreshModels, RetrainTable pickup, monitor demotion)
// build a successor snapshot off the serving path and publish it with a
// single atomic store, so they are safe to run concurrently with estimation
// from any number of query threads. Queries that pinned the old snapshot
// (via PinSnapshot / EstimationContext) drain naturally.
//
// When the Model Monitor marks a table's model unhealthy, estimates for that
// table transparently fall back to the traditional sketch estimator, exactly
// as §4.4.2 prescribes.
class ByteCard : public minihouse::CardinalityEstimator {
 public:
  struct Options {
    cardest::RbxTrainOptions rbx;
    bool run_monitor = true;
    // Runtime-feedback subsystem settings, used once EnableFeedback() turns
    // it on.
    feedback::FeedbackOptions feedback;
    // Reuse a pre-trained workload-independent RBX artifact instead of
    // training (one offline session serves every dataset — paper §4.3).
    std::string pretrained_rbx_path;
    uint64_t seed = 1234;
  };

  // Runs the full production lifecycle against `db`:
  //   Model Preprocessor (column selection + join patterns from
  //   `workload_hint`) -> ModelForge training -> artifact store under
  //   `storage_dir` -> Model Loader pickup -> Validator admission ->
  //   InitContext -> Model Monitor probing -> snapshot v1 published.
  static Result<std::unique_ptr<ByteCard>> Bootstrap(
      const minihouse::Database& db,
      const std::vector<minihouse::BoundQuery>& workload_hint,
      const std::string& storage_dir, const Options& options);

  // --- CardinalityEstimator ------------------------------------------------
  std::string Name() const override { return "bytecard"; }
  // Canonical entry point: acquires the current snapshot and dispatches the
  // request through it. (Per-query work should pin once via PinSnapshot /
  // EstimationContext instead of paying an acquire per call.)
  double Estimate(const cardest::CardEstRequest& request,
                  cardest::InferenceSession* session) override;
  double EstimateSelectivity(const minihouse::Table& table,
                             const minihouse::Conjunction& filters) override;
  double EstimateJoinCardinality(const minihouse::BoundQuery& query,
                                 const std::vector<int>& subset) override;
  double EstimateGroupNdv(const minihouse::BoundQuery& query) override;

  // Pins the current snapshot and returns a per-query view over it: every
  // estimate through the view is answered by one model version, regardless
  // of concurrent RefreshModels/demotions. The optimizer does this once per
  // plan via EstimationContext.
  std::shared_ptr<minihouse::CardinalityEstimator> PinSnapshot() override;
  uint64_t SnapshotVersion() const override;

  // --- Model lifecycle -------------------------------------------------------
  // One Model Loader cycle: polls the artifact store, builds a successor
  // snapshot containing every newer artifact that passes validation, and
  // publishes it atomically. Candidates that fail to load/validate are
  // skipped (and retried on the next cycle — their high-water marks only
  // advance on a successful publish). Safe to call concurrently with
  // estimation; concurrent lifecycle writers serialize on an internal
  // mutex. Returns how many models were applied.
  Result<int> RefreshModels();

  // Routine retraining of one table's COUNT model via the ModelForge
  // Service, publishing a fresh artifact (pick it up with RefreshModels).
  // Invoked when the Data Ingestor reports enough new data or the Monitor
  // flags the current model. Safe to call concurrently with estimation.
  Status RetrainTable(const minihouse::Table& table);

  // Re-probes one table's model, updates its health flag, and publishes a
  // successor snapshot if the verdict changed; returns the report (paper
  // §4.4.2). Safe to call concurrently with estimation.
  Result<MonitorReport> ProbeTable(const minihouse::Table& table);

  // Monitor demotion/promotion: overrides one table's health flag and
  // publishes a successor snapshot. Safe to call concurrently with
  // estimation.
  void SetTableHealth(const std::string& table, bool healthy);

  // --- Runtime feedback ------------------------------------------------------
  // Turns the feedback subsystem on (off until called; idempotent):
  // subsequent PinSnapshot views expose the manager as their
  // QueryFeedbackHook, so the optimizer serves repeated subplans from the
  // cache and the executor reports estimate-vs-actual observations into the
  // log and the drift detector, which flags drifted tables from real traffic
  // (no synthetic probes).
  void EnableFeedback();

  // The feedback subsystem, or null while disabled. Also the IngestObserver
  // to register on a DataIngestor so batch ingest invalidates cached actuals.
  feedback::FeedbackManager* feedback_manager() {
    return feedback_.load(std::memory_order_acquire);
  }

  minihouse::QueryFeedbackHook* feedback_hook() const override {
    return feedback_.load(std::memory_order_acquire);
  }

  // One action the drift loop took (or declined) for a drifted table.
  struct FeedbackAction {
    feedback::DriftReport report;
    bool demoted = false;          // published a successor with health=false
    bool retrain_started = false;  // forged a replacement artifact
  };

  // The drift-driven health loop: reads the detector's verdicts and, for
  // every drifted table whose model is live and healthy, demotes it to the
  // traditional fallback (SetTableHealth(false) — same publish path the
  // synthetic Model Monitor uses) and, when `db` is given, immediately
  // forges a replacement model (pick it up with RefreshModels). Returns one
  // action per drifted table. Thread-safe; call periodically or after
  // workload bursts.
  std::vector<FeedbackAction> ProcessFeedback(
      const minihouse::Database* db = nullptr);

  // --- Adaptive routing ------------------------------------------------------
  // Mines a routing table from the feedback log's recorded trace (replaying
  // each observation against the current snapshot through every estimator
  // family — see routing/route_miner.h) and publishes a successor snapshot
  // carrying it. Subsequent estimates resolve their route class first and
  // dispatch to the mined family; classes without a route (and every class,
  // when the table is empty or its mined epoch is stale) take the general
  // path unchanged. Requires EnableFeedback and a published snapshot.
  // Cached actuals stay valid across this publish — only the dispatch
  // policy changes, not the models — so the feedback cache is NOT flushed.
  // Thread-safe (lifecycle mutex); safe under concurrent estimation.
  Result<routing::RouteMinerReport> MineRoutes(const minihouse::Database& db);

  // The live snapshot's routing table (null before MineRoutes / after the
  // table is cleared). The epoch-staleness rule lives in
  // EstimatorSnapshot::routing_live().
  std::shared_ptr<const routing::RoutingTable> routing_table() const {
    std::shared_ptr<const EstimatorSnapshot> snap = snapshot_.Acquire();
    return snap == nullptr ? nullptr : snap->routing_table_shared();
  }

  // --- Incremental maintenance ----------------------------------------------
  // Turns the incremental model-maintenance subsystem on (idempotent):
  // seeds the FactorJoin maintenance copy and the per-column NDV sketches
  // from `db`, then registers the maintainer wherever the caller taps it
  // into a DataIngestor (incremental_maintainer() is the IngestObserver).
  // From then on every ingested batch delta-updates the BN/FactorJoin/NDV
  // models and publishes a successor snapshot stamped with the batch's
  // ingest epoch. Requires a published snapshot (Bootstrap first).
  Status EnableIncrementalMaintenance(const minihouse::Database& db);

  // Applies one ingest delta: computes the per-family model updates, builds
  // a successor snapshot through the same validated Load* paths a trained
  // artifact takes, stamps the batch's ingest epoch, and publishes it.
  // Returns the published snapshot version. Serializes on the lifecycle
  // mutex; safe to call concurrently with estimation and other lifecycle
  // writers. Never call while holding a table latch (the maintainer's
  // OnIngest fires after the ingestor releases it).
  Result<uint64_t> ApplyIngestDelta(const incremental::IngestDelta& delta);

  // The maintainer, or null until EnableIncrementalMaintenance. Register it
  // on a DataIngestor via AddObserver to close the ingest -> maintain loop.
  incremental::IncrementalMaintainer* incremental_maintainer() {
    return incremental_.get();
  }

  // --- Concurrent serving ----------------------------------------------------
  // Brings up the query scheduler front-end over this estimator: subsequent
  // Submit/Wait calls plan each query against a pinned snapshot and execute
  // it on the two-lane pool, with admission driven by the query's own
  // estimated intermediate cardinalities (see minihouse/scheduler.h). Call
  // once, before serving threads start; replaces (after draining) any
  // previous scheduler. Model lifecycle calls (RefreshModels, RetrainTable,
  // ProcessFeedback) remain safe to run while queries are in flight.
  void StartServing(minihouse::SchedulerOptions options = {});

  // Drains in-flight queries and tears the scheduler down. Call only when no
  // thread is submitting.
  void StopServing();

  // Forwarders to the scheduler (StartServing must have run).
  std::shared_ptr<minihouse::QueryTicket> Submit(
      const minihouse::BoundQuery& query);
  // SQL front door: analyzes `sql` against `db` on the calling thread and
  // submits the bound query. Analyzer errors come back through Wait on the
  // returned ticket (never a null ticket, never a crash).
  std::shared_ptr<minihouse::QueryTicket> Submit(
      const std::string& sql, const minihouse::Database& db);
  Result<minihouse::ExecResult> Wait(
      const std::shared_ptr<minihouse::QueryTicket>& ticket);

  // Null before StartServing / after StopServing.
  minihouse::QueryScheduler* scheduler() { return scheduler_.get(); }

  // OR-query estimation (paper §5.1.2): COUNT of the union of single-table
  // filter conjunctions via the inclusion-exclusion principle. Disjuncts
  // must all reference `table`; the whole disjunction is answered by one
  // pinned snapshot.
  double EstimateCountDisjunction(
      const minihouse::Table& table,
      const std::vector<minihouse::Conjunction>& disjuncts);

  // --- Direct estimation APIs ----------------------------------------------
  // COUNT(*) of a whole (possibly multi-table) query.
  double EstimateCount(const minihouse::BoundQuery& query);

  // COUNT(DISTINCT column) on one table under filters, via the RBX
  // sample-profile path (§5.2.1).
  double EstimateColumnNdv(const minihouse::Table& table, int column,
                           const minihouse::Conjunction& filters);

  // --- Introspection ---------------------------------------------------------
  // The currently-published snapshot (never null after Bootstrap).
  std::shared_ptr<const EstimatorSnapshot> snapshot() const {
    return snapshot_.Acquire();
  }
  const ByteCardTrainingStats& training_stats() const {
    return training_stats_;
  }
  const ModelMonitor& monitor() const { return monitor_; }
  // Test hook for swapping monitor options; health changes made directly on
  // the monitor reach serving only at the next publish (use SetTableHealth
  // or ProbeTable to demote/promote a live model).
  ModelMonitor* mutable_monitor() { return &monitor_; }
  const ModelValidator& validator() const { return validator_; }

 private:
  explicit ByteCard(Options options) : options_(std::move(options)) {}

  // The one demotion/promotion path behind ProbeTable and SetTableHealth;
  // the caller holds lifecycle_mu_. Publishes a successor carrying `table`'s
  // new health flag unless the live snapshot already serves it. A demotion
  // also retires every mined route over `table` in that same successor:
  // the flag and the retirement land together or not at all.
  Status PublishTableHealth(const std::string& table, bool healthy);

  // Per-table training options as Bootstrap derives them (column selection +
  // join-bucket boundaries from `fj_model`), reused verbatim by
  // RetrainTable.
  cardest::BnTrainOptions DeriveBnOptions(
      const minihouse::Table& table,
      const cardest::FactorJoinModel* fj_model) const;

  Options options_;
  std::string storage_dir_;

  // The serving state: readers Acquire(), lifecycle writers Publish().
  common::VersionedHandle<EstimatorSnapshot> snapshot_;

  // Lifecycle state below is touched only under lifecycle_mu_ (Bootstrap
  // runs before the facade is shared, so it needs no lock).
  std::mutex lifecycle_mu_;
  std::unique_ptr<ModelLoader> loader_;
  ModelMonitor monitor_;
  ModelValidator validator_;

  // The runtime-feedback subsystem (null while disabled). Created at most
  // once (under lifecycle_mu_) and never destroyed while the facade lives,
  // so pinned views and query threads may hold the raw pointer across plan +
  // execution; the atomic lets them read it without the lifecycle lock.
  std::unique_ptr<feedback::FeedbackManager> feedback_owned_;
  std::atomic<feedback::FeedbackManager*> feedback_{nullptr};

  // The incremental maintenance subsystem (null until enabled). Created at
  // most once under lifecycle_mu_ and never destroyed while the facade
  // lives, so the ingest thread may hold the observer pointer.
  std::unique_ptr<incremental::IncrementalMaintainer> incremental_;

  // The serving front-end (null until StartServing). Created/destroyed only
  // from quiescent call sites; serving threads reach it through Submit/Wait.
  std::unique_ptr<minihouse::QueryScheduler> scheduler_;

  // Immutable after Bootstrap; shared into every snapshot.
  std::shared_ptr<const std::map<std::string, stats::TableSample>> samples_;
  std::unique_ptr<stats::SketchStatistics> fallback_statistics_;
  std::shared_ptr<stats::SketchEstimator> fallback_;

  ByteCardTrainingStats training_stats_;
};

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_BYTECARD_H_
