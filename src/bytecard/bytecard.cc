#include "bytecard/bytecard.h"

#include <algorithm>
#include <shared_mutex>
#include <utility>

#include "bytecard/model_loader.h"
#include "bytecard/model_preprocessor.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "sql/analyzer.h"

namespace bytecard {

void ByteCard::EnableFeedback() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (feedback_owned_ != nullptr) return;
  feedback_owned_ =
      std::make_unique<feedback::FeedbackManager>(options_.feedback);
  feedback_.store(feedback_owned_.get(), std::memory_order_release);
}

void ByteCard::StartServing(minihouse::SchedulerOptions options) {
  scheduler_.reset();  // drain any previous front-end first
  // Wire the default SQL front door unless the caller injected its own
  // analyzer. The scheduler itself cannot name sql::AnalyzeSql (the engine
  // layer does not link the SQL library); the facade, which does, closes the
  // loop here.
  if (options.sql_analyzer == nullptr) {
    options.sql_analyzer = [](const std::string& sql,
                              const minihouse::Database& db) {
      return sql::AnalyzeSql(sql, db);
    };
  }
  scheduler_ = std::make_unique<minihouse::QueryScheduler>(this,
                                                           std::move(options));
}

void ByteCard::StopServing() { scheduler_.reset(); }

std::shared_ptr<minihouse::QueryTicket> ByteCard::Submit(
    const minihouse::BoundQuery& query) {
  BC_CHECK(scheduler_ != nullptr);  // StartServing first
  return scheduler_->Submit(query);
}

std::shared_ptr<minihouse::QueryTicket> ByteCard::Submit(
    const std::string& sql, const minihouse::Database& db) {
  BC_CHECK(scheduler_ != nullptr);  // StartServing first
  return scheduler_->Submit(sql, db);
}

Result<minihouse::ExecResult> ByteCard::Wait(
    const std::shared_ptr<minihouse::QueryTicket>& ticket) {
  BC_CHECK(scheduler_ != nullptr);
  return scheduler_->Wait(ticket);
}

Result<std::unique_ptr<ByteCard>> ByteCard::Bootstrap(
    const minihouse::Database& db,
    const std::vector<minihouse::BoundQuery>& workload_hint,
    const std::string& storage_dir, const Options& options) {
  std::unique_ptr<ByteCard> bc(new ByteCard(options));
  bc->storage_dir_ = storage_dir;
  bc->loader_ = std::make_unique<ModelLoader>(storage_dir);
  ModelForgeService forge(storage_dir);

  SnapshotBuilder builder(nullptr, &bc->validator_);

  // 1. Model Preprocessor: join-pattern collection from the workload hint.
  const std::vector<std::vector<cardest::JoinKeyRef>> join_patterns =
      ModelPreprocessor::CollectJoinPatterns(workload_hint);

  // 2. FactorJoin bucket construction first — BN training needs its
  // boundaries so join-column bins coincide with join buckets. The paper's
  // setup uses 200 equi-height buckets per join key group.
  constexpr int kJoinBuckets = 200;
  BC_ASSIGN_OR_RETURN(ModelArtifact fj_artifact,
                      forge.TrainFactorJoin(db, join_patterns, kJoinBuckets));
  bc->training_stats_.factorjoin_seconds = fj_artifact.train_seconds;
  bc->training_stats_.factorjoin_bytes = fj_artifact.size_bytes;
  bc->training_stats_.artifacts.push_back(fj_artifact);
  {
    BC_ASSIGN_OR_RETURN(std::string fj_bytes,
                        ReadArtifactBytes(fj_artifact.path));
    BC_RETURN_IF_ERROR(builder.LoadFactorJoin(fj_bytes));
  }

  // 3. Routine per-table BN training through the forge.
  for (const std::string& name : db.TableNames()) {
    const minihouse::Table* table = db.FindTable(name).value();
    if (table->num_rows() == 0) continue;

    const cardest::BnTrainOptions bn_options =
        bc->DeriveBnOptions(*table, builder.fj_model());
    if (bn_options.columns.empty()) continue;
    BC_ASSIGN_OR_RETURN(ModelArtifact artifact,
                        forge.TrainTableBn(*table, bn_options));
    bc->training_stats_.bn_seconds += artifact.train_seconds;
    bc->training_stats_.bn_bytes += artifact.size_bytes;
    bc->training_stats_.artifacts.push_back(artifact);
  }

  // 4. RBX: reuse a pre-trained workload-independent artifact when given,
  // otherwise run the one-off offline training.
  std::string rbx_bytes;
  if (!options.pretrained_rbx_path.empty()) {
    BC_ASSIGN_OR_RETURN(rbx_bytes,
                        ReadArtifactBytes(options.pretrained_rbx_path));
  } else {
    cardest::RbxTrainOptions rbx_options = options.rbx;
    rbx_options.seed = options.seed ^ 0x5bd1e995;
    BC_ASSIGN_OR_RETURN(ModelArtifact artifact, forge.TrainRbx(rbx_options));
    bc->training_stats_.rbx_seconds = artifact.train_seconds;
    bc->training_stats_.artifacts.push_back(artifact);
    BC_ASSIGN_OR_RETURN(rbx_bytes, ReadArtifactBytes(artifact.path));
  }
  BC_RETURN_IF_ERROR(builder.LoadRbx(rbx_bytes));
  bc->training_stats_.rbx_bytes =
      static_cast<int64_t>(rbx_bytes.size());

  // 5. Model Loader pickup + Validator admission + InitContext for BNs. The
  // single poll runs after all training, so it sees every artifact; marks
  // are committed only once the snapshot below is actually published.
  BC_ASSIGN_OR_RETURN(std::vector<LoadedModel> loaded,
                      bc->loader_->PollOnce());
  for (const LoadedModel& model : loaded) {
    if (model.kind != "bn") continue;  // fj/rbx were installed above
    BC_RETURN_IF_ERROR(builder.LoadBn(model.name, model.bytes));
  }

  // 6. Per-table samples for RBX featurization (§5.2.1): 5% of each table,
  // at most 50k rows.
  {
    constexpr double kSampleRate = 0.05;
    constexpr int64_t kSampleMaxRows = 50000;
    auto samples =
        std::make_shared<std::map<std::string, stats::TableSample>>();
    Rng rng(options.seed ^ 0x9e3779b9);
    for (const std::string& name : db.TableNames()) {
      const minihouse::Table* table = db.FindTable(name).value();
      (*samples)[name] = stats::TableSample::Build(*table, kSampleRate,
                                                   kSampleMaxRows, &rng);
    }
    bc->samples_ = std::move(samples);
    builder.SetSamples(bc->samples_);
  }

  // 7. Traditional fallback sketches (ByteHouse keeps these regardless).
  bc->fallback_statistics_ = stats::SketchStatistics::Build(db, 64);
  bc->fallback_ =
      std::make_shared<stats::SketchEstimator>(bc->fallback_statistics_.get());
  builder.SetFallback(bc->fallback_);

  // 8. Model Monitor probing of each single-table model; verdicts are baked
  // into the snapshot.
  if (options.run_monitor) {
    for (const std::string& name : builder.bn_tables()) {
      const cardest::BnInferenceContext* context = builder.bn_context(name);
      const minihouse::Table* table = db.FindTable(name).value();
      Result<MonitorReport> report =
          bc->monitor_.EvaluateBnModel(*table, *context);
      if (!report.ok()) bc->monitor_.SetHealth(name, false);
      builder.SetHealth(name, bc->monitor_.IsHealthy(name));
    }
  }

  // 9. Publish snapshot v1, then commit the loader's high-water marks for
  // everything the poll offered (installed directly or via the poll) so the
  // next RefreshModels only reacts to genuinely newer artifacts.
  BC_ASSIGN_OR_RETURN(std::shared_ptr<const EstimatorSnapshot> snapshot,
                      builder.Finish());
  bc->snapshot_.Publish(std::move(snapshot));
  for (const LoadedModel& model : loaded) {
    bc->loader_->CommitLoaded(model.kind, model.name, model.timestamp);
  }
  return bc;
}

cardest::BnTrainOptions ByteCard::DeriveBnOptions(
    const minihouse::Table& table,
    const cardest::FactorJoinModel* fj_model) const {
  cardest::BnTrainOptions bn_options;
  bn_options.columns = ModelPreprocessor::SelectedColumns(table);
  bn_options.seed = options_.seed;
  if (fj_model != nullptr) {
    for (int c : bn_options.columns) {
      Result<std::vector<int64_t>> boundaries =
          fj_model->BoundariesFor(table.name(), c);
      if (boundaries.ok()) {
        bn_options.join_column_boundaries[c] = std::move(boundaries).value();
      }
    }
  }
  return bn_options;
}

Result<int> ByteCard::RefreshModels() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (loader_ == nullptr) {
    return Status::Internal("ByteCard was not bootstrapped with a store");
  }
  BC_ASSIGN_OR_RETURN(std::vector<LoadedModel> loaded, loader_->PollOnce());
  if (loaded.empty()) return 0;

  // Build the successor off the serving path: unchanged engines are shared,
  // each candidate is loaded/validated/contexted here. A bad candidate is
  // skipped — the incumbent keeps serving and, because its mark is not
  // committed, the loader offers it again next cycle (e.g. after the forge
  // republishes a healthy artifact).
  SnapshotBuilder builder(snapshot_.Acquire(), &validator_);
  std::vector<const LoadedModel*> applied;
  for (const LoadedModel& model : loaded) {
    Status status = Status::Ok();
    if (model.kind == "bn") {
      status = builder.LoadBn(model.name, model.bytes);
    } else if (model.kind == "factorjoin") {
      status = builder.LoadFactorJoin(model.bytes);
    } else if (model.kind == "rbx") {
      status = builder.LoadRbx(model.bytes);
    } else {
      continue;  // unknown kind: leave for a future loader generation
    }
    if (!status.ok()) {
      BC_LOG(Warning) << "skipping model " << model.kind << "/" << model.name
                      << " @" << model.timestamp << ": "
                      << status.ToString();
      continue;
    }
    applied.push_back(&model);
  }
  if (applied.empty()) return 0;

  // A freshly forged BN that passed validation supersedes the old model's
  // health verdict: re-promote it so a post-drift retrain restores learned
  // serving (the monitor — synthetic or drift-driven — can demote it again
  // if the replacement is also bad).
  for (const LoadedModel* model : applied) {
    if (model->kind != "bn") continue;
    builder.SetHealth(model->name, true);
    monitor_.SetHealth(model->name, true);
  }

  BC_ASSIGN_OR_RETURN(std::shared_ptr<const EstimatorSnapshot> snapshot,
                      builder.Finish());
  snapshot_.Publish(std::move(snapshot));
  for (const LoadedModel* model : applied) {
    loader_->CommitLoaded(model->kind, model->name, model->timestamp);
  }
  // A full-retrain pickup supersedes the incremental maintainer's delta
  // state for those models: BN count pages re-unfold from the fresh model
  // on the next batch, the FactorJoin maintenance copy adopts the new stats.
  if (incremental_ != nullptr) {
    std::shared_ptr<const EstimatorSnapshot> fresh = snapshot_.Acquire();
    for (const LoadedModel* model : applied) {
      incremental_->OnModelReplaced(model->kind, model->name, *fresh);
    }
  }
  if (feedback_owned_ != nullptr) {
    feedback_owned_->OnSnapshotPublished();
    for (const LoadedModel* model : applied) {
      if (model->kind == "bn") {
        feedback_owned_->OnTableHealthChanged(model->name);
      }
    }
  }
  return static_cast<int>(applied.size());
}

Status ByteCard::RetrainTable(const minihouse::Table& table) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (storage_dir_.empty()) {
    return Status::Internal("ByteCard was not bootstrapped with a store");
  }
  const cardest::FactorJoinModel* fj_model = nullptr;
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  if (current != nullptr && current->fj_engine() != nullptr) {
    fj_model = &current->fj_engine()->model();
  }
  const cardest::BnTrainOptions bn_options =
      DeriveBnOptions(table, fj_model);
  if (bn_options.columns.empty()) {
    return Status::InvalidArgument("table '" + table.name() +
                                   "' has no trainable columns");
  }
  ModelForgeService forge(storage_dir_);
  Result<ModelArtifact> trained = [&] {
    // Training scans the table's rows; the shared latch keeps a concurrent
    // ingest append from racing the scan. Lock order: lifecycle holders may
    // take table latches, never the reverse (DataIngestor releases its
    // exclusive latch before observers run).
    std::shared_lock<std::shared_mutex> table_latch(table.latch());
    return forge.TrainTableBn(table, bn_options);
  }();
  BC_ASSIGN_OR_RETURN(ModelArtifact artifact, std::move(trained));
  training_stats_.bn_seconds += artifact.train_seconds;
  training_stats_.artifacts.push_back(std::move(artifact));
  return Status::Ok();
}

Status ByteCard::EnableIncrementalMaintenance(const minihouse::Database& db) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (incremental_ != nullptr) return Status::Ok();
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  if (current == nullptr) {
    return Status::Internal(
        "EnableIncrementalMaintenance requires a published snapshot");
  }
  auto maintainer = std::make_unique<incremental::IncrementalMaintainer>(this);
  {
    // Seeding scans every table once; shared latches (sorted, like
    // TableReadGuard) keep concurrent ingest appends from racing the scans.
    std::vector<const minihouse::Table*> tables;
    for (const std::string& name : db.TableNames()) {
      tables.push_back(db.FindTable(name).value());
    }
    std::sort(tables.begin(), tables.end());
    std::vector<std::shared_lock<std::shared_mutex>> latches;
    latches.reserve(tables.size());
    for (const minihouse::Table* t : tables) latches.emplace_back(t->latch());
    BC_RETURN_IF_ERROR(maintainer->Seed(db, *current));
  }
  incremental_ = std::move(maintainer);
  return Status::Ok();
}

Result<uint64_t> ByteCard::ApplyIngestDelta(
    const incremental::IngestDelta& delta) {
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (incremental_ == nullptr) {
    return Status::Internal("incremental maintenance is not enabled");
  }
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  if (current == nullptr) {
    return Status::Internal("no published snapshot to delta-update");
  }
  BC_ASSIGN_OR_RETURN(incremental::IncrementalUpdates updates,
                      incremental_->ComputeUpdates(delta, *current));

  // Delta-updated models enter through the same validated admission paths a
  // trained artifact takes; a failure leaves the incumbent serving. BN models
  // ride in memory (AdoptBn), which keeps the per-batch publish flat.
  SnapshotBuilder builder(current, &validator_);
  for (auto& [table, model] : updates.bn) {
    BC_RETURN_IF_ERROR(builder.AdoptBn(table, std::move(model)));
  }
  if (updates.has_fj) {
    BC_RETURN_IF_ERROR(builder.LoadFactorJoin(updates.fj_bytes));
  }
  if (updates.ndv != nullptr) builder.SetNdvSketches(updates.ndv);
  builder.SetIngestEpoch(delta.epoch);
  BC_ASSIGN_OR_RETURN(std::shared_ptr<const EstimatorSnapshot> snapshot,
                      builder.Finish());
  const uint64_t version = snapshot->version();
  snapshot_.Publish(std::move(snapshot));

  // Only the grown table's cached actuals go stale; drift windows keep
  // accumulating across delta publishes (OnIncrementalPublish, not
  // OnSnapshotPublished).
  if (feedback_owned_ != nullptr) {
    feedback_owned_->OnIncrementalPublish(delta.table);
  }
  incremental_->RecordPublish(timer.ElapsedSeconds(), delta);
  return version;
}

Result<MonitorReport> ByteCard::ProbeTable(const minihouse::Table& table) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  const cardest::BnInferenceContext* context =
      current == nullptr ? nullptr : current->bn_context(table.name());
  if (context == nullptr) {
    return Status::NotFound("no BN model for table '" + table.name() + "'");
  }
  BC_ASSIGN_OR_RETURN(MonitorReport report,
                      monitor_.EvaluateBnModel(table, *context));
  BC_RETURN_IF_ERROR(PublishTableHealth(table.name(), report.healthy));
  return report;
}

void ByteCard::SetTableHealth(const std::string& table, bool healthy) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  monitor_.SetHealth(table, healthy);
  const Status published = PublishTableHealth(table, healthy);
  if (!published.ok()) {
    BC_LOG(Warning) << "health publish for '" << table
                    << "' failed: " << published.ToString();
  }
}

Status ByteCard::PublishTableHealth(const std::string& table, bool healthy) {
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  if (current != nullptr && current->IsHealthy(table) == healthy) {
    return Status::Ok();
  }
  SnapshotBuilder builder(current, &validator_);
  builder.SetHealth(table, healthy);
  // Demotion also retires every mined route that touches the table — those
  // scores were measured against the now-distrusted model. Promotions keep
  // routes as-is.
  if (!healthy && current != nullptr && current->routing_table() != nullptr) {
    BC_RETURN_IF_ERROR(builder.SetRoutingTable(
        current->routing_table()->WithoutTable(table)));
  }
  BC_ASSIGN_OR_RETURN(std::shared_ptr<const EstimatorSnapshot> snapshot,
                      builder.Finish());
  snapshot_.Publish(std::move(snapshot));
  // Only the drift window restarts: a health flip swaps one table's model
  // and changes no table's data, so the cached actuals stay exact (the same
  // reason MineRoutes keeps them).
  if (feedback_owned_ != nullptr) feedback_owned_->OnTableHealthChanged(table);
  return Status::Ok();
}

Result<routing::RouteMinerReport> ByteCard::MineRoutes(
    const minihouse::Database& db) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  feedback::FeedbackManager* manager =
      feedback_.load(std::memory_order_acquire);
  if (manager == nullptr) {
    return Status::InvalidArgument(
        "MineRoutes requires feedback collection (EnableFeedback)");
  }
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  if (current == nullptr) {
    return Status::Internal("MineRoutes requires a published snapshot");
  }

  const std::vector<minihouse::QueryFeedback> trace =
      manager->log().Snapshot();
  routing::RouteMinerReport report;
  BC_ASSIGN_OR_RETURN(
      std::shared_ptr<const routing::RoutingTable> mined,
      routing::MineRoutes(trace, *current, db, &report));

  SnapshotBuilder builder(current, &validator_);
  BC_RETURN_IF_ERROR(builder.SetRoutingTable(std::move(mined)));
  BC_ASSIGN_OR_RETURN(std::shared_ptr<const EstimatorSnapshot> snapshot,
                      builder.Finish());
  snapshot_.Publish(std::move(snapshot));
  // Deliberately no OnSnapshotPublished: only the dispatch policy changed,
  // every model is byte-identical, so the feedback cache's actuals stay
  // valid for the successor.
  return report;
}

std::shared_ptr<minihouse::CardinalityEstimator> ByteCard::PinSnapshot() {
  return std::make_shared<SnapshotEstimator>(
      snapshot_.Acquire(), feedback_.load(std::memory_order_acquire));
}

std::vector<ByteCard::FeedbackAction> ByteCard::ProcessFeedback(
    const minihouse::Database* db) {
  std::vector<FeedbackAction> actions;
  feedback::FeedbackManager* manager =
      feedback_.load(std::memory_order_acquire);
  if (manager == nullptr) return actions;
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  for (const feedback::DriftReport& report : manager->drift().Reports()) {
    if (!report.drifted) continue;
    FeedbackAction action;
    action.report = report;
    // Demote only tables whose learned model is actually live and healthy —
    // a table already on the fallback has nothing left to demote, and a
    // table without a BN never served learned estimates.
    if (current != nullptr && current->bn_context(report.table) != nullptr &&
        current->IsHealthy(report.table)) {
      SetTableHealth(report.table, false);
      action.demoted = true;
      if (db != nullptr) {
        Result<const minihouse::Table*> table = db->FindTable(report.table);
        if (table.ok()) {
          action.retrain_started = RetrainTable(*table.value()).ok();
        }
      }
    }
    actions.push_back(std::move(action));
  }
  return actions;
}

uint64_t ByteCard::SnapshotVersion() const {
  std::shared_ptr<const EstimatorSnapshot> current = snapshot_.Acquire();
  return current == nullptr ? 0 : current->version();
}

double ByteCard::Estimate(const cardest::CardEstRequest& request,
                          cardest::InferenceSession* session) {
  std::shared_ptr<const EstimatorSnapshot> snap = snapshot_.Acquire();
  if (snap == nullptr) {
    return request.target == cardest::CardEstTarget::kDisjunction ? 0.0 : 1.0;
  }
  return snap->Estimate(request, session);
}

double ByteCard::EstimateCountDisjunction(
    const minihouse::Table& table,
    const std::vector<minihouse::Conjunction>& disjuncts) {
  return Estimate(cardest::CardEstRequest::Disjunction(table, disjuncts),
                  nullptr);
}

double ByteCard::EstimateSelectivity(const minihouse::Table& table,
                                     const minihouse::Conjunction& filters) {
  return Estimate(cardest::CardEstRequest::Selectivity(table, filters),
                  nullptr);
}

double ByteCard::EstimateJoinCardinality(const minihouse::BoundQuery& query,
                                         const std::vector<int>& subset) {
  return Estimate(cardest::CardEstRequest::JoinCount(query, subset), nullptr);
}

double ByteCard::EstimateCount(const minihouse::BoundQuery& query) {
  return Estimate(cardest::CardEstRequest::Count(query), nullptr);
}

double ByteCard::EstimateColumnNdv(const minihouse::Table& table, int column,
                                   const minihouse::Conjunction& filters) {
  return Estimate(cardest::CardEstRequest::ColumnNdv(table, column, filters),
                  nullptr);
}

double ByteCard::EstimateGroupNdv(const minihouse::BoundQuery& query) {
  return Estimate(cardest::CardEstRequest::GroupNdv(query), nullptr);
}

}  // namespace bytecard
