#ifndef BYTECARD_BYTECARD_SNAPSHOT_H_
#define BYTECARD_BYTECARD_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bytecard/inference_engine.h"
#include "bytecard/model_validator.h"
#include "bytecard/routing/routing_table.h"
#include "cardest/ndv/hll.h"
#include "cardest/request.h"
#include "minihouse/optimizer.h"
#include "stats/sampler.h"
#include "stats/traditional_estimator.h"

namespace bytecard {

// Per-query counters the snapshot's estimation methods fill in: the routing
// counters the pinned view reports (all zero while no routing table is live,
// which is also how the byte-identity invariant is asserted in tests) and the
// traditional-fallback count. One instance per pinned view
// (single-threaded); pass nullptr when not accounting.
struct SnapshotCounters : minihouse::RoutingStats {
  int64_t fallback_estimates = 0;
  // The distinct classes with a route; route_classes is its size.
  std::set<std::string> route_classes_seen;
};

// One immutable, atomically-swappable unit of serving state: the per-table
// BN COUNT engines and their inference-context registry, the FactorJoin
// engine (bound to *this snapshot's* registry), the RBX NDV engine, the
// per-table RBX featurization samples, the model health flags, and the
// traditional fallback estimator.
//
// After SnapshotBuilder::Finish, every member is frozen: all estimation
// entry points are const, lock-free, and safe to invoke concurrently from
// every query thread (the paper's §4.2 Inference Engine contract, extended
// from per-engine to the whole serving unit). Model lifecycle events
// (loader refresh, retrain pickup, monitor demotion) never mutate a live
// snapshot — they build a successor off-thread and publish it; queries
// pinning the old snapshot drain naturally.
class EstimatorSnapshot {
 public:
  // Monotonic publication version (1 = bootstrap).
  uint64_t version() const { return version_; }

  // Ingest epoch (the DataIngestor batch offset) this snapshot's models have
  // absorbed, stamped by the incremental maintainer. 0 = trained state with
  // no delta updates; successors inherit their base's epoch unless the
  // builder overrides it, so a full-retrain publish after delta publishes
  // keeps the high-water mark.
  uint64_t ingest_epoch() const { return ingest_epoch_; }

  // --- Estimation (const, lock-free) ---------------------------------------
  // The one estimation entry point: every target kind dispatches through
  // here. It resolves the request's route (kGeneral unless a live routing
  // table names a family for its class), answers with EstimateWithFamily,
  // and falls back to the general chain when the routed family cannot
  // answer. `session` (optional) is a per-query memo for repeated per-family
  // selectivity probes and FactorJoin bucket distributions; it belongs to the
  // calling query thread and must not be shared across threads or outlive
  // the pinned snapshot it first served. Estimates are byte-identical with
  // and without a session — the memo replays cached values, never
  // recomputes differently.
  double Estimate(const cardest::CardEstRequest& request,
                  cardest::InferenceSession* session,
                  SnapshotCounters* counters = nullptr) const;

  // Answers `request` with one estimator family. kGeneral is the tier chain
  // over the other families and always answers: for selectivity a healthy
  // BN, else a counted fallback to traditional; for joins the health gate,
  // then FactorJoin, else a counted fallback; the NDV and disjunction
  // composites on top. `counters` records those fallbacks. Every other
  // family returns false (and leaves *out untouched) when it cannot answer
  // this request shape on this snapshot — missing engine, no sample,
  // unhealthy model, unsupported target; kCachedActual is not an estimator
  // and never answers. The route miner calls this directly to score every
  // family, kGeneral included, on the replayed feedback trace; it never
  // consults the routing table.
  bool EstimateWithFamily(routing::RouteFamily family,
                          const cardest::CardEstRequest& request,
                          cardest::InferenceSession* session, double* out,
                          SnapshotCounters* counters = nullptr) const;

  // The mined routing table (null until a MineRoutes publish).
  const routing::RoutingTable* routing_table() const { return routing_.get(); }
  std::shared_ptr<const routing::RoutingTable> routing_table_shared() const {
    return routing_;
  }
  // True when the routing table is non-empty AND its mined epoch matches
  // this snapshot's ingest epoch. A delta publish that advances the epoch
  // silently disables routing (the trace evidence predates the new data)
  // until routes are re-mined.
  bool routing_live() const { return routing_live_; }

  // --- Introspection --------------------------------------------------------
  const cardest::BnInferenceContext* bn_context(
      const std::string& table) const;
  // The live BN model for `table` (null when absent). The incremental
  // maintainer unfolds this into its copy-on-write count page.
  const cardest::BayesNetModel* bn_model(const std::string& table) const;
  bool IsHealthy(const std::string& table) const;
  // Null when the snapshot carries no model of that kind.
  const FactorJoinEngine* fj_engine() const { return fj_engine_.get(); }
  // The NDV sketch catalog (null until incremental maintenance publishes
  // one). Immutable per snapshot; ColumnNdvImpl consults it for
  // unfiltered NDV questions.
  const cardest::NdvSketchCatalog* ndv_sketches() const {
    return ndv_sketches_.get();
  }

 private:
  friend class SnapshotBuilder;
  EstimatorSnapshot() = default;

  // One family's single-table selectivity and join count, each written once;
  // kGeneral is the tier chain over the others (see EstimateWithFamily). A
  // single-table join subset is that table's selectivity scaled to its rows.
  bool Selectivity(routing::RouteFamily family, const minihouse::Table& table,
                   const minihouse::Conjunction& filters,
                   cardest::InferenceSession* session,
                   SnapshotCounters* counters, double* out) const;
  bool JoinCount(routing::RouteFamily family,
                 const minihouse::BoundQuery& query,
                 const std::vector<int>& subset,
                 cardest::InferenceSession* session,
                 SnapshotCounters* counters, double* out) const;

  // The general answers to the NDV and disjunction targets, composed from
  // the general selectivity and join chains.
  double ColumnNdvImpl(const minihouse::Table& table, int column,
                       const minihouse::Conjunction& filters,
                       cardest::InferenceSession* session,
                       SnapshotCounters* counters) const;
  double GroupNdvImpl(const minihouse::BoundQuery& query,
                      cardest::InferenceSession* session,
                      SnapshotCounters* counters) const;
  double DisjunctionImpl(const minihouse::Table& table,
                         const std::vector<minihouse::Conjunction>& disjuncts,
                         cardest::InferenceSession* session,
                         SnapshotCounters* counters) const;

  uint64_t version_ = 0;
  uint64_t ingest_epoch_ = 0;
  // Engines are shared with predecessor/successor snapshots when unchanged;
  // the registry below points into them, so their addresses are stable for
  // this snapshot's lifetime.
  std::map<std::string, std::shared_ptr<const BnCountEngine>> bn_engines_;
  std::map<std::string, const cardest::BnInferenceContext*> bn_contexts_;
  // Serialized FactorJoin model, kept so successors can rebind a fresh
  // engine to their own BN registry without re-reading the artifact store.
  std::string fj_bytes_;
  std::unique_ptr<FactorJoinEngine> fj_engine_;
  std::shared_ptr<const RbxNdvEngine> rbx_engine_;
  // Monitor verdicts baked in at publish time; absent tables default to
  // healthy (mirrors ModelMonitor::IsHealthy).
  std::map<std::string, bool> health_;
  // Per-table samples for RBX featurization (§5.2.1); shared, immutable.
  std::shared_ptr<const std::map<std::string, stats::TableSample>> samples_;
  // Traditional fallback for unhealthy/missing models. SketchEstimator is
  // stateless over an immutable statistics store, so sharing it across
  // snapshots and query threads is safe.
  std::shared_ptr<stats::SketchEstimator> fallback_;
  // HyperLogLog NDV catalog from the incremental maintainer; shared with
  // neighbors when unchanged, replaced wholesale on merge.
  std::shared_ptr<const cardest::NdvSketchCatalog> ndv_sketches_;
  // Mined routing table (null until MineRoutes publishes one); shared
  // with neighbor snapshots when unchanged. routing_live_ is derived in
  // Finish so the hot path pays one bool test when no routes apply.
  std::shared_ptr<const routing::RoutingTable> routing_;
  bool routing_live_ = false;
};

// Builds an EstimatorSnapshot, either from scratch (bootstrap) or as the
// successor of a live snapshot — unchanged engines are shared, replaced ones
// are loaded/validated/contexted here, off the serving path. Single-threaded;
// used only by lifecycle writers (Bootstrap, RefreshModels, monitor
// demotion).
class SnapshotBuilder {
 public:
  // `base` may be null (first snapshot). `validator` (may be null in tests)
  // admits every model that enters the successor.
  SnapshotBuilder(std::shared_ptr<const EstimatorSnapshot> base,
                  const ModelValidator* validator);

  // Load + admit + InitContext a replacement engine. On error the builder is
  // unchanged (the candidate is discarded; the base model keeps serving).
  Status LoadBn(const std::string& table, const std::string& bytes);
  Status LoadFactorJoin(const std::string& bytes);
  Status LoadRbx(const std::string& bytes);
  // In-memory twin of LoadBn for per-batch incremental publishes: identical
  // admission (validator + InitContext), minus the serialize -> deserialize
  // round trip an already-materialized model does not need.
  Status AdoptBn(const std::string& table, cardest::BayesNetModel model);

  void SetHealth(const std::string& table, bool healthy);
  void SetSamples(
      std::shared_ptr<const std::map<std::string, stats::TableSample>>
          samples);
  void SetFallback(std::shared_ptr<stats::SketchEstimator> fallback);
  // Stamps the successor's ingest epoch (incremental delta publishes).
  // Without a call, the successor inherits its base's epoch.
  void SetIngestEpoch(uint64_t epoch);
  // Installs the successor's NDV sketch catalog (an immutable copy of the
  // maintainer's merged state). Without a call, the base's is inherited.
  void SetNdvSketches(
      std::shared_ptr<const cardest::NdvSketchCatalog> sketches);
  // Installs the successor's mined routing table after validating it (the
  // same admission discipline every model artifact passes through). Null
  // clears routing. Without a call, the base's table is inherited — so
  // ordinary model publishes keep routes, while the epoch-match rule in
  // routing_live() retires them when ingest advances.
  Status SetRoutingTable(std::shared_ptr<const routing::RoutingTable> table);

  // Pending view (new engines first, then base): lets lifecycle code derive
  // training options and probe models before publication.
  const cardest::BnInferenceContext* bn_context(
      const std::string& table) const;
  const cardest::FactorJoinModel* fj_model() const;
  std::vector<std::string> bn_tables() const;

  // Finalizes: merges base + replacements, rebinds the FactorJoin engine to
  // the successor's BN registry (re-running its InitContext, per the paper's
  // requirement), and stamps version = base.version + 1.
  Result<std::shared_ptr<const EstimatorSnapshot>> Finish();

 private:
  std::shared_ptr<const EstimatorSnapshot> base_;
  const ModelValidator* validator_;
  std::map<std::string, std::shared_ptr<BnCountEngine>> new_bns_;
  // Probe engine for the pending FactorJoin model (boundary queries during
  // BN option derivation); the serving engine is built in Finish.
  std::unique_ptr<FactorJoinEngine> fj_probe_;
  bool has_new_fj_ = false;
  std::string new_fj_bytes_;
  std::shared_ptr<RbxNdvEngine> new_rbx_;
  std::map<std::string, bool> health_overrides_;
  std::shared_ptr<const std::map<std::string, stats::TableSample>> samples_;
  std::shared_ptr<stats::SketchEstimator> fallback_;
  bool has_samples_ = false;
  bool has_fallback_ = false;
  uint64_t ingest_epoch_ = 0;
  bool has_ingest_epoch_ = false;
  std::shared_ptr<const cardest::NdvSketchCatalog> ndv_sketches_;
  bool has_ndv_sketches_ = false;
  std::shared_ptr<const routing::RoutingTable> routing_;
  bool has_routing_ = false;
};

// The per-query pinned view handed out by ByteCard::PinSnapshot: implements
// CardinalityEstimator by forwarding to one EstimatorSnapshot, and carries
// the query's fallback accounting. Lives on one query thread.
class SnapshotEstimator : public minihouse::CardinalityEstimator {
 public:
  // `hook` (optional, not owned) is the facade's runtime-feedback surface; it
  // outlives every pinned view because the facade owns both.
  explicit SnapshotEstimator(
      std::shared_ptr<const EstimatorSnapshot> snapshot,
      minihouse::QueryFeedbackHook* hook = nullptr)
      : snapshot_(std::move(snapshot)), hook_(hook) {}

  std::string Name() const override { return "bytecard"; }
  // The canonical entry point (everything below delegates through it).
  double Estimate(const cardest::CardEstRequest& request,
                  cardest::InferenceSession* session) override;
  double EstimateSelectivity(const minihouse::Table& table,
                             const minihouse::Conjunction& filters) override;
  double EstimateJoinCardinality(const minihouse::BoundQuery& query,
                                 const std::vector<int>& subset) override;
  double EstimateGroupNdv(const minihouse::BoundQuery& query) override;

  uint64_t SnapshotVersion() const override {
    return snapshot_ == nullptr ? 0 : snapshot_->version();
  }
  int64_t FallbackEstimates() const override {
    return counters_.fallback_estimates;
  }
  minihouse::RoutingStats routing_stats() const override {
    return counters_;
  }
  minihouse::QueryFeedbackHook* feedback_hook() const override {
    return hook_;
  }

  const EstimatorSnapshot* snapshot() const { return snapshot_.get(); }

 private:
  std::shared_ptr<const EstimatorSnapshot> snapshot_;
  minihouse::QueryFeedbackHook* hook_ = nullptr;
  SnapshotCounters counters_;
};

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_SNAPSHOT_H_
