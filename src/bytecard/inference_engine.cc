#include "bytecard/inference_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cardest/ndv/freq_profile.h"
#include "common/logging.h"
#include "sql/analyzer.h"

namespace bytecard {

Result<FeatureVector> CardEstInferenceEngine::FeaturizeSqlQuery(
    const std::string& sql, const minihouse::Database& db) const {
  // Default path: parse + bind, then reuse the AST featurizer. Concrete
  // engines may override with a direct SQL featurization for quick PoC
  // integrations of research models. The bound AST is parked on the
  // FeatureVector so the featurizer's borrowed views survive this scope.
  auto ast = std::make_shared<minihouse::BoundQuery>();
  BC_ASSIGN_OR_RETURN(*ast, sql::AnalyzeSql(sql, db));
  BC_ASSIGN_OR_RETURN(FeatureVector features, FeaturizeAst(*ast));
  features.owned_query = std::move(ast);
  return features;
}

// ---------------------------------------------------------------------------
// BnCountEngine
// ---------------------------------------------------------------------------

Status BnCountEngine::LoadModel(const std::string& artifact_bytes) {
  BC_ASSIGN_OR_RETURN(
      model_, DeserializeArtifact<cardest::BayesNetModel>(artifact_bytes));
  context_.reset();  // stale context must not outlive the old model
  return Status::Ok();
}

void BnCountEngine::AdoptModel(cardest::BayesNetModel model) {
  model_ = std::move(model);
  context_.reset();  // stale context must not outlive the old model
}

Status BnCountEngine::Validate() const { return model_.ValidateStructure(); }

Status BnCountEngine::InitContext() {
  BC_RETURN_IF_ERROR(Validate());
  context_ = std::make_unique<cardest::BnInferenceContext>(&model_);
  return Status::Ok();
}

Result<FeatureVector> BnCountEngine::FeaturizeAst(
    const minihouse::BoundQuery& ast) const {
  FeatureVector features;
  // Borrow the conjunction of the table this model was trained for (the
  // FeatureVector lifetime contract ties it to `ast`).
  for (const minihouse::BoundTableRef& ref : ast.tables) {
    if (ref.table->name() == model_.table_name()) {
      features.conjunction = &ref.filters;
      return features;
    }
  }
  return Status::NotFound("query does not reference table '" +
                          model_.table_name() + "'");
}

Result<double> BnCountEngine::Estimate(const FeatureVector& features) const {
  if (context_ == nullptr) {
    return Status::Internal("BnCountEngine: InitContext not called");
  }
  // A null view means "no evidence": the unconditioned COUNT.
  static const minihouse::Conjunction kNoEvidence;
  return context_->EstimateCount(
      features.conjunction != nullptr ? *features.conjunction : kNoEvidence);
}

int64_t BnCountEngine::ModelSizeBytes() const {
  BufferWriter writer;
  model_.Serialize(&writer);
  return static_cast<int64_t>(writer.buffer().size());
}

// ---------------------------------------------------------------------------
// FactorJoinEngine
// ---------------------------------------------------------------------------

Status FactorJoinEngine::LoadModel(const std::string& artifact_bytes) {
  BC_ASSIGN_OR_RETURN(
      model_, DeserializeArtifact<cardest::FactorJoinModel>(artifact_bytes));
  estimator_.reset();
  return Status::Ok();
}

Status FactorJoinEngine::Validate() const {
  for (const auto& group : model_.groups()) {
    if (group.members.empty() || group.buckets.num_buckets() == 0) {
      return Status::InvalidModel("FactorJoin group without members/buckets");
    }
  }
  return Status::Ok();
}

Status FactorJoinEngine::InitContext() {
  BC_RETURN_IF_ERROR(Validate());
  if (bn_contexts_ == nullptr) {
    return Status::Internal("FactorJoinEngine: BN context registry missing");
  }
  estimator_ = std::make_unique<cardest::FactorJoinEstimator>(&model_,
                                                              bn_contexts_);
  return Status::Ok();
}

Result<FeatureVector> FactorJoinEngine::FeaturizeAst(
    const minihouse::BoundQuery& ast) const {
  FeatureVector features;
  features.query = &ast;
  features.table_subset.resize(ast.num_tables());
  std::iota(features.table_subset.begin(), features.table_subset.end(), 0);
  return features;
}

Result<double> FactorJoinEngine::Estimate(
    const FeatureVector& features) const {
  if (estimator_ == nullptr) {
    return Status::Internal("FactorJoinEngine: InitContext not called");
  }
  if (features.query == nullptr) {
    return Status::InvalidArgument(
        "FactorJoin features carry no bound query");
  }
  return estimator_->EstimateJoinCount(*features.query, features.table_subset,
                                       features.session);
}

int64_t FactorJoinEngine::ModelSizeBytes() const {
  BufferWriter writer;
  model_.Serialize(&writer);
  return static_cast<int64_t>(writer.buffer().size());
}

// ---------------------------------------------------------------------------
// RbxNdvEngine
// ---------------------------------------------------------------------------

Status RbxNdvEngine::LoadModel(const std::string& artifact_bytes) {
  BC_ASSIGN_OR_RETURN(model_,
                      DeserializeArtifact<cardest::RbxModel>(artifact_bytes));
  context_ready_ = false;
  return Status::Ok();
}

Status RbxNdvEngine::Validate() const { return model_.Validate(); }

Status RbxNdvEngine::InitContext() {
  BC_RETURN_IF_ERROR(Validate());
  context_ready_ = true;
  return Status::Ok();
}

Result<FeatureVector> RbxNdvEngine::FeaturizeAst(
    const minihouse::BoundQuery& ast) const {
  // NDV featurization needs a data sample, not just the AST; the facade
  // builds the sample-profile via FeaturizeSample. AST-only featurization is
  // therefore not meaningful for RBX.
  (void)ast;
  return Status::Unimplemented(
      "RBX featurizes sample profiles, not bare ASTs; use FeaturizeSample");
}

FeatureVector RbxNdvEngine::FeaturizeSample(
    const stats::SampleFrequencies& frequencies) const {
  FeatureVector features;
  features.dense = cardest::BuildFrequencyProfile(frequencies);
  // Stash (d, N) at the end so Estimate can clamp; keep layout stable.
  features.dense.push_back(
      static_cast<double>(frequencies.sample_distinct()));
  features.dense.push_back(
      static_cast<double>(frequencies.population_size));
  return features;
}

Result<double> RbxNdvEngine::Estimate(const FeatureVector& features) const {
  if (!context_ready_) {
    return Status::Internal("RbxNdvEngine: InitContext not called");
  }
  if (features.dense.size() !=
      static_cast<size_t>(cardest::kFrequencyProfileDim) + 2) {
    return Status::InvalidArgument("RBX feature vector has wrong dimension");
  }
  // Rebuild the clamping stats from the stashed suffix.
  stats::SampleFrequencies frequencies;
  const double d = features.dense[cardest::kFrequencyProfileDim];
  const double population =
      features.dense[cardest::kFrequencyProfileDim + 1];
  frequencies.population_size = static_cast<int64_t>(population);
  // Reconstructing exact frequencies isn't needed: EstimateNdv only reads
  // the profile, d and N. Feed it a minimal equivalent.
  frequencies.sample_size = static_cast<int64_t>(d);
  frequencies.freq = {static_cast<int64_t>(d)};

  const double log_ratio_input_d = std::max(1.0, d);
  // Use the network directly on the true profile prefix.
  std::vector<double> profile(
      features.dense.begin(),
      features.dense.begin() + cardest::kFrequencyProfileDim);
  const double log_ratio = model_.network().Predict(profile);
  const double estimate =
      log_ratio_input_d * std::exp(std::max(0.0, log_ratio));
  return std::clamp(estimate, log_ratio_input_d,
                    std::max(log_ratio_input_d, population));
}

int64_t RbxNdvEngine::ModelSizeBytes() const {
  BufferWriter writer;
  model_.Serialize(&writer);
  return static_cast<int64_t>(writer.buffer().size());
}

}  // namespace bytecard
