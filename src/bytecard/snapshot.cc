#include "bytecard/snapshot.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "minihouse/predicate.h"
#include "stats/ndv_classic.h"

namespace bytecard {

namespace {

using routing::RouteFamily;

void CountFallback(SnapshotCounters* counters) {
  if (counters != nullptr) ++counters->fallback_estimates;
}

}  // namespace

// ---------------------------------------------------------------------------
// EstimatorSnapshot
// ---------------------------------------------------------------------------

const cardest::BnInferenceContext* EstimatorSnapshot::bn_context(
    const std::string& table) const {
  auto it = bn_contexts_.find(table);
  return it == bn_contexts_.end() ? nullptr : it->second;
}

const cardest::BayesNetModel* EstimatorSnapshot::bn_model(
    const std::string& table) const {
  auto it = bn_engines_.find(table);
  return it == bn_engines_.end() ? nullptr : &it->second->model();
}

bool EstimatorSnapshot::IsHealthy(const std::string& table) const {
  auto it = health_.find(table);
  return it == health_.end() ? true : it->second;
}

double EstimatorSnapshot::Estimate(const cardest::CardEstRequest& request,
                                   cardest::InferenceSession* session,
                                   SnapshotCounters* counters) const {
  // Adaptive routing: resolve the request's route class against the mined
  // table and dispatch to the empirically-best family. With no live table
  // (bootstrap, empty mine, stale epoch) this is one bool test and every
  // request takes the general chain. kCachedActual routes are answered by the
  // feedback cache upstream (EstimationContext), so the snapshot serves them
  // generally on a cache miss; neither they nor kGeneral routes count as a
  // route fallback — the general chain *is* their mined answer here.
  RouteFamily family = RouteFamily::kGeneral;
  if (routing_live_) {
    const std::string cls = request.RouteClass(session);
    const routing::RouteDecision* route = routing_->Find(cls);
    if (route != nullptr) {
      if (counters != nullptr &&
          counters->route_classes_seen.insert(cls).second) {
        ++counters->route_classes;
      }
      if (route->family != RouteFamily::kCachedActual) family = route->family;
    }
  }
  double value = 1.0;
  if (family != RouteFamily::kGeneral) {
    if (EstimateWithFamily(family, request, session, &value)) {
      if (counters != nullptr) ++counters->routed_estimates;
      return value;
    }
    if (counters != nullptr) ++counters->route_fallbacks;
  }
  EstimateWithFamily(RouteFamily::kGeneral, request, session, &value,
                     counters);
  return value;
}

bool EstimatorSnapshot::EstimateWithFamily(
    RouteFamily family, const cardest::CardEstRequest& request,
    cardest::InferenceSession* session, double* out,
    SnapshotCounters* counters) const {
  using cardest::CardEstTarget;
  const bool general = family == RouteFamily::kGeneral;
  switch (request.target) {
    case CardEstTarget::kSelectivity:
      return Selectivity(family, *request.table, *request.filters, session,
                         counters, out);
    case CardEstTarget::kJoinCount: {
      // All-tables requests resolve through the session's cached iota when
      // one is given — no per-call allocation on the planning hot path.
      std::vector<int> scratch;
      return JoinCount(family, *request.query,
                       request.ResolveTables(session, &scratch), session,
                       counters, out);
    }
    case CardEstTarget::kGroupNdv:
      if (general) {
        *out = GroupNdvImpl(*request.query, session, counters);
        return true;
      }
      if (family != RouteFamily::kTraditional || fallback_ == nullptr) {
        return false;
      }
      *out = fallback_->EstimateGroupNdv(*request.query);
      return true;
    case CardEstTarget::kColumnNdv:
      // No other family implements these targets: the general path's RBX /
      // inclusion-exclusion machinery is the only answer.
      if (!general) return false;
      *out = ColumnNdvImpl(*request.table, request.ndv_column,
                           *request.filters, session, counters);
      return true;
    case CardEstTarget::kDisjunction:
      if (!general) return false;
      *out = DisjunctionImpl(*request.table, *request.disjuncts, session,
                             counters);
      return true;
  }
  return false;
}

bool EstimatorSnapshot::Selectivity(RouteFamily family,
                                    const minihouse::Table& table,
                                    const minihouse::Conjunction& filters,
                                    cardest::InferenceSession* session,
                                    SnapshotCounters* counters,
                                    double* out) const {
  if (family == RouteFamily::kGeneral) {
    // A healthy BN, else a counted fallback to traditional (1.0 with
    // neither). The fallback is counted on every call, memo hit or not.
    if (Selectivity(RouteFamily::kBn, table, filters, session, counters,
                    out)) {
      return true;
    }
    CountFallback(counters);
    if (!Selectivity(RouteFamily::kTraditional, table, filters, session,
                     counters, out)) {
      *out = 1.0;
    }
    return true;
  }

  // One memo entry per (family, table, filters): routed probes and the
  // general chain read the same answer. Only answers a family gave are
  // stored, so applicability is checked before the memo.
  auto memoized = [&](auto compute) {
    std::string key;
    if (session != nullptr) {
      key = "rt" + std::to_string(static_cast<int>(family)) + ":" +
            cardest::TableKey(table, filters);
      if (session->LookupScalar(key, out)) return true;
    }
    *out = compute();
    if (session != nullptr) session->StoreScalar(key, *out);
    return true;
  };
  switch (family) {
    case RouteFamily::kBn: {
      const cardest::BnInferenceContext* context = bn_context(table.name());
      if (context == nullptr || !IsHealthy(table.name())) return false;
      return memoized([&] { return context->EstimateSelectivity(filters); });
    }
    case RouteFamily::kTraditional:
      if (fallback_ == nullptr) return false;
      return memoized(
          [&] { return fallback_->EstimateSelectivity(table, filters); });
    case RouteFamily::kSample: {
      if (samples_ == nullptr) return false;
      auto it = samples_->find(table.name());
      if (it == samples_->end() || it->second.num_rows() == 0) return false;
      const stats::TableSample& sample = it->second;
      return memoized([&] {
        return static_cast<double>(sample.CountMatches(filters)) /
               static_cast<double>(sample.num_rows());
      });
    }
    case RouteFamily::kZoneMap:
      return memoized(
          [&] { return minihouse::ZoneMapSelectivityBound(table, filters); });
    default:
      return false;
  }
}

bool EstimatorSnapshot::JoinCount(RouteFamily family,
                                  const minihouse::BoundQuery& query,
                                  const std::vector<int>& subset,
                                  cardest::InferenceSession* session,
                                  SnapshotCounters* counters,
                                  double* out) const {
  if (subset.size() == 1) {
    // Single-table "join" questions are selectivity questions, scaled to
    // row counts.
    const minihouse::BoundTableRef& ref = query.tables[subset[0]];
    double sel = 1.0;
    if (!Selectivity(family, *ref.table, ref.filters, session, counters,
                     &sel)) {
      return false;
    }
    *out = sel * static_cast<double>(ref.table->num_rows());
    return true;
  }
  switch (family) {
    case RouteFamily::kGeneral:
      // Unhealthy single-table models poison join estimates too; fall back
      // to the traditional estimator for the whole join in that case.
      for (int t : subset) {
        if (!IsHealthy(query.tables[t].table->name())) {
          CountFallback(counters);
          if (JoinCount(RouteFamily::kTraditional, query, subset, session,
                        counters, out)) {
            return true;
          }
          break;
        }
      }
      if (JoinCount(RouteFamily::kFactorJoin, query, subset, session,
                    counters, out)) {
        return true;
      }
      CountFallback(counters);
      if (!JoinCount(RouteFamily::kTraditional, query, subset, session,
                     counters, out)) {
        *out = 1.0;
      }
      return true;
    case RouteFamily::kFactorJoin: {
      if (fj_engine_ == nullptr) return false;
      FeatureVector features;
      features.query = &query;
      features.table_subset = subset;
      features.session = session;
      Result<double> estimate = fj_engine_->Estimate(features);
      if (!estimate.ok()) return false;
      *out = estimate.value();
      return true;
    }
    case RouteFamily::kTraditional:
      if (fallback_ == nullptr) return false;
      *out = fallback_->EstimateJoinCardinality(query, subset);
      return true;
    default:
      return false;
  }
}

double EstimatorSnapshot::ColumnNdvImpl(
    const minihouse::Table& table, int column,
    const minihouse::Conjunction& filters, cardest::InferenceSession* session,
    SnapshotCounters* counters) const {
  // Unfiltered NDV: the maintained HyperLogLog sketch is exact-current for
  // append-only data (merged per ingest batch, no full-scan refresh), so it
  // outranks the sample+RBX path — samples go stale between refreshes.
  // Filtered NDV still needs the sample (a sketch cannot apply predicates).
  if (filters.empty() && ndv_sketches_ != nullptr) {
    const double sketch = ndv_sketches_->Estimate(table.name(), column);
    if (sketch >= 0.0) {
      return std::clamp(sketch, 1.0, static_cast<double>(table.num_rows()));
    }
  }
  if (samples_ == nullptr || rbx_engine_ == nullptr) {
    CountFallback(counters);
    return 1.0;
  }
  auto it = samples_->find(table.name());
  if (it == samples_->end() || it->second.num_rows() == 0) {
    CountFallback(counters);
    return 1.0;
  }
  const stats::TableSample& sample = it->second;

  // Featurization: filter the in-memory sample, then build the
  // sample-profile over the surviving key values.
  const std::vector<uint8_t> selection = sample.Matches(filters);
  std::vector<int64_t> values;
  for (int64_t i = 0; i < sample.num_rows(); ++i) {
    if (selection[i] != 0) values.push_back(sample.column(column)[i]);
  }
  if (values.empty()) return 1.0;

  // Population under the filters comes from the COUNT model.
  double sel = 1.0;
  Selectivity(RouteFamily::kGeneral, table, filters, session, counters, &sel);
  const double filtered_rows = sel * static_cast<double>(table.num_rows());
  stats::SampleFrequencies frequencies = stats::ComputeFrequencies(
      values, std::max<int64_t>(1, static_cast<int64_t>(filtered_rows)));

  const FeatureVector features = rbx_engine_->FeaturizeSample(frequencies);
  Result<double> estimate = rbx_engine_->Estimate(features);
  if (!estimate.ok()) {
    CountFallback(counters);
    return std::max(1.0, stats::GeeEstimate(frequencies));
  }
  return estimate.value();
}

double EstimatorSnapshot::GroupNdvImpl(const minihouse::BoundQuery& query,
                                       cardest::InferenceSession* session,
                                       SnapshotCounters* counters) const {
  if (query.group_by.empty()) return 1.0;
  double ndv = 1.0;
  for (const minihouse::GroupKeyRef& g : query.group_by) {
    const minihouse::BoundTableRef& ref = query.tables[g.table];
    ndv *= std::max(1.0, ColumnNdvImpl(*ref.table, g.column, ref.filters,
                                       session, counters));
  }
  std::vector<int> scratch;
  double rows = 1.0;
  JoinCount(RouteFamily::kGeneral, query,
            cardest::CardEstRequest::Count(query).ResolveTables(session,
                                                                &scratch),
            session, counters, &rows);
  return std::max(1.0, std::min(ndv, rows));
}

double EstimatorSnapshot::DisjunctionImpl(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts,
    cardest::InferenceSession* session, SnapshotCounters* counters) const {
  return cardest::InclusionExclusionCount(
      table, disjuncts, [&](const minihouse::Conjunction& merged) {
        double term = 1.0;
        Selectivity(RouteFamily::kGeneral, table, merged, session, counters,
                    &term);
        return term;
      });
}

// ---------------------------------------------------------------------------
// SnapshotBuilder
// ---------------------------------------------------------------------------

SnapshotBuilder::SnapshotBuilder(
    std::shared_ptr<const EstimatorSnapshot> base,
    const ModelValidator* validator)
    : base_(std::move(base)), validator_(validator) {}

Status SnapshotBuilder::LoadBn(const std::string& table,
                               const std::string& bytes) {
  auto engine = std::make_shared<BnCountEngine>();
  BC_RETURN_IF_ERROR(engine->LoadModel(bytes));
  if (validator_ != nullptr) {
    BC_RETURN_IF_ERROR(validator_->Admit(*engine));
  }
  BC_RETURN_IF_ERROR(engine->InitContext());
  new_bns_[table] = std::move(engine);
  return Status::Ok();
}

Status SnapshotBuilder::AdoptBn(const std::string& table,
                                cardest::BayesNetModel model) {
  auto engine = std::make_shared<BnCountEngine>();
  engine->AdoptModel(std::move(model));
  if (validator_ != nullptr) {
    BC_RETURN_IF_ERROR(validator_->Admit(*engine));
  }
  BC_RETURN_IF_ERROR(engine->InitContext());
  new_bns_[table] = std::move(engine);
  return Status::Ok();
}

Status SnapshotBuilder::LoadFactorJoin(const std::string& bytes) {
  // Probe engine: deserialize + structural validation now, so a bad artifact
  // is rejected before it can poison Finish. The serving engine is built in
  // Finish against the successor's BN registry.
  auto probe = std::make_unique<FactorJoinEngine>(nullptr);
  BC_RETURN_IF_ERROR(probe->LoadModel(bytes));
  BC_RETURN_IF_ERROR(probe->Validate());
  fj_probe_ = std::move(probe);
  new_fj_bytes_ = bytes;
  has_new_fj_ = true;
  return Status::Ok();
}

Status SnapshotBuilder::LoadRbx(const std::string& bytes) {
  auto engine = std::make_shared<RbxNdvEngine>();
  BC_RETURN_IF_ERROR(engine->LoadModel(bytes));
  if (validator_ != nullptr) {
    BC_RETURN_IF_ERROR(validator_->Admit(*engine));
  }
  BC_RETURN_IF_ERROR(engine->InitContext());
  new_rbx_ = std::move(engine);
  return Status::Ok();
}

void SnapshotBuilder::SetHealth(const std::string& table, bool healthy) {
  health_overrides_[table] = healthy;
}

void SnapshotBuilder::SetSamples(
    std::shared_ptr<const std::map<std::string, stats::TableSample>>
        samples) {
  samples_ = std::move(samples);
  has_samples_ = true;
}

void SnapshotBuilder::SetFallback(
    std::shared_ptr<stats::SketchEstimator> fallback) {
  fallback_ = std::move(fallback);
  has_fallback_ = true;
}

void SnapshotBuilder::SetIngestEpoch(uint64_t epoch) {
  ingest_epoch_ = epoch;
  has_ingest_epoch_ = true;
}

void SnapshotBuilder::SetNdvSketches(
    std::shared_ptr<const cardest::NdvSketchCatalog> sketches) {
  ndv_sketches_ = std::move(sketches);
  has_ndv_sketches_ = true;
}

Status SnapshotBuilder::SetRoutingTable(
    std::shared_ptr<const routing::RoutingTable> table) {
  if (table != nullptr) BC_RETURN_IF_ERROR(table->Validate());
  routing_ = std::move(table);
  has_routing_ = true;
  return Status::Ok();
}

const cardest::BnInferenceContext* SnapshotBuilder::bn_context(
    const std::string& table) const {
  auto it = new_bns_.find(table);
  if (it != new_bns_.end()) return it->second->context();
  return base_ == nullptr ? nullptr : base_->bn_context(table);
}

const cardest::FactorJoinModel* SnapshotBuilder::fj_model() const {
  if (fj_probe_ != nullptr) return &fj_probe_->model();
  if (base_ != nullptr && base_->fj_engine() != nullptr) {
    return &base_->fj_engine()->model();
  }
  return nullptr;
}

std::vector<std::string> SnapshotBuilder::bn_tables() const {
  std::map<std::string, bool> names;
  if (base_ != nullptr) {
    for (const auto& [name, engine] : base_->bn_engines_) {
      (void)engine;
      names[name] = true;
    }
  }
  for (const auto& [name, engine] : new_bns_) {
    (void)engine;
    names[name] = true;
  }
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const auto& [name, unused] : names) {
    (void)unused;
    out.push_back(name);
  }
  return out;
}

Result<std::shared_ptr<const EstimatorSnapshot>> SnapshotBuilder::Finish() {
  std::shared_ptr<EstimatorSnapshot> snapshot(new EstimatorSnapshot());
  snapshot->version_ = base_ == nullptr ? 1 : base_->version_ + 1;

  // BN engines: share the base's, override with replacements.
  if (base_ != nullptr) snapshot->bn_engines_ = base_->bn_engines_;
  for (auto& [name, engine] : new_bns_) {
    snapshot->bn_engines_[name] = std::move(engine);
  }
  new_bns_.clear();
  for (const auto& [name, engine] : snapshot->bn_engines_) {
    if (engine->context() == nullptr) {
      return Status::Internal("BN engine '" + name +
                              "' entered a snapshot without a context");
    }
    snapshot->bn_contexts_[name] = engine->context();
  }

  // FactorJoin: even when the model is unchanged, the engine is rebuilt so
  // its estimator binds to *this* snapshot's BN registry (its InitContext
  // re-validates against the exact contexts it will compose).
  snapshot->fj_bytes_ =
      has_new_fj_ ? std::move(new_fj_bytes_)
                  : (base_ != nullptr ? base_->fj_bytes_ : std::string());
  if (!snapshot->fj_bytes_.empty()) {
    auto fj = std::make_unique<FactorJoinEngine>(&snapshot->bn_contexts_);
    BC_RETURN_IF_ERROR(fj->LoadModel(snapshot->fj_bytes_));
    if (validator_ != nullptr) {
      BC_RETURN_IF_ERROR(validator_->Admit(*fj));
    }
    BC_RETURN_IF_ERROR(fj->InitContext());
    snapshot->fj_engine_ = std::move(fj);
  }

  snapshot->rbx_engine_ =
      new_rbx_ != nullptr
          ? std::shared_ptr<const RbxNdvEngine>(std::move(new_rbx_))
          : (base_ != nullptr ? base_->rbx_engine_ : nullptr);

  if (base_ != nullptr) snapshot->health_ = base_->health_;
  for (const auto& [name, healthy] : health_overrides_) {
    snapshot->health_[name] = healthy;
  }

  snapshot->samples_ =
      has_samples_ ? std::move(samples_)
                   : (base_ != nullptr ? base_->samples_ : nullptr);
  snapshot->fallback_ =
      has_fallback_ ? std::move(fallback_)
                    : (base_ != nullptr ? base_->fallback_ : nullptr);
  snapshot->ingest_epoch_ =
      has_ingest_epoch_ ? ingest_epoch_
                        : (base_ != nullptr ? base_->ingest_epoch_ : 0);
  snapshot->ndv_sketches_ =
      has_ndv_sketches_ ? std::move(ndv_sketches_)
                        : (base_ != nullptr ? base_->ndv_sketches_ : nullptr);
  snapshot->routing_ =
      has_routing_ ? std::move(routing_)
                   : (base_ != nullptr ? base_->routing_ : nullptr);
  // Routing serves only while the mined evidence matches the data the models
  // absorbed: a later ingest epoch voids every route until a re-mine.
  snapshot->routing_live_ = snapshot->routing_ != nullptr &&
                            !snapshot->routing_->empty() &&
                            snapshot->routing_->mined_epoch() ==
                                snapshot->ingest_epoch_;

  return std::shared_ptr<const EstimatorSnapshot>(std::move(snapshot));
}

// ---------------------------------------------------------------------------
// SnapshotEstimator
// ---------------------------------------------------------------------------

double SnapshotEstimator::Estimate(const cardest::CardEstRequest& request,
                                   cardest::InferenceSession* session) {
  if (snapshot_ == nullptr) {
    // No serving state: neutral answers (a disjunction "count" degrades to
    // 0 rows, everything else to the multiplicative identity).
    return request.target == cardest::CardEstTarget::kDisjunction ? 0.0 : 1.0;
  }
  return snapshot_->Estimate(request, session, &counters_);
}

double SnapshotEstimator::EstimateSelectivity(
    const minihouse::Table& table, const minihouse::Conjunction& filters) {
  return Estimate(cardest::CardEstRequest::Selectivity(table, filters),
                  nullptr);
}

double SnapshotEstimator::EstimateJoinCardinality(
    const minihouse::BoundQuery& query, const std::vector<int>& subset) {
  return Estimate(cardest::CardEstRequest::JoinCount(query, subset), nullptr);
}

double SnapshotEstimator::EstimateGroupNdv(
    const minihouse::BoundQuery& query) {
  return Estimate(cardest::CardEstRequest::GroupNdv(query), nullptr);
}

}  // namespace bytecard
