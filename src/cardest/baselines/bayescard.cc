#include "cardest/baselines/bayescard.h"

#include <algorithm>

#include "cardest/baselines/denorm.h"
#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kBayesCardFormatVersion = 1;
}  // namespace

Result<BayesCardModel> BayesCardModel::Train(
    const minihouse::BoundQuery& full_join, const TrainOptions& options) {
  BayesCardModel model;

  BC_ASSIGN_OR_RETURN(
      std::unique_ptr<minihouse::Table> denorm,
      BuildDenormalizedSample(full_join, options.max_base_rows,
                              options.max_output_rows, options.seed));

  for (int c = 0; c < denorm->num_columns(); ++c) {
    model.denorm_columns_.push_back(denorm->schema().column(c).name);
  }

  // Full-join population estimate: sampled join rows scaled back by the
  // per-table sampling fractions. Truncation makes this an underestimate on
  // very fat joins — acceptable for a baseline whose role in the evaluation
  // is its training cost profile.
  double inverse_rate = 1.0;
  for (const minihouse::BoundTableRef& ref : full_join.tables) {
    const double rows = static_cast<double>(ref.table->num_rows());
    const double sampled =
        std::min(rows, static_cast<double>(options.max_base_rows));
    if (sampled > 0.0) inverse_rate *= rows / sampled;
  }
  model.population_estimate_ =
      static_cast<double>(denorm->num_rows()) * inverse_rate;

  BnTrainOptions bn_options;
  bn_options.max_bins = options.max_bins;
  bn_options.max_train_rows = 0;  // the denormalized sample is the dataset
  bn_options.seed = options.seed;
  BC_ASSIGN_OR_RETURN(model.bn_, BayesNetModel::Train(*denorm, bn_options));
  return model;
}

double BayesCardModel::EstimateCount(
    const minihouse::BoundQuery& query) const {
  // Re-address each filter onto the denormalized column space.
  minihouse::Conjunction filters;
  for (const minihouse::BoundTableRef& ref : query.tables) {
    const std::string alias =
        ref.alias.empty() ? ref.table->name() : ref.alias;
    for (const minihouse::ColumnPredicate& pred : ref.filters) {
      const std::string denorm_name =
          alias + "_" + ref.table->schema().column(pred.column).name;
      auto it = std::find(denorm_columns_.begin(), denorm_columns_.end(),
                          denorm_name);
      if (it == denorm_columns_.end()) continue;  // column not denormalized
      minihouse::ColumnPredicate mapped = pred;
      mapped.column = static_cast<int>(it - denorm_columns_.begin());
      mapped.column_name = denorm_name;
      filters.push_back(std::move(mapped));
    }
  }
  const BnInferenceContext context(&bn_);
  return context.EstimateSelectivity(filters) * population_estimate_;
}

void BayesCardModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kBayesCardFormatVersion);
  writer->WriteDouble(population_estimate_);
  writer->WriteU64(denorm_columns_.size());
  for (const std::string& name : denorm_columns_) writer->WriteString(name);
  bn_.Serialize(writer);
}

Result<BayesCardModel> BayesCardModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kBayesCardFormatVersion) {
    return Status::InvalidModel("unsupported BayesCard artifact version");
  }
  BayesCardModel model;
  BC_RETURN_IF_ERROR(reader->ReadDouble(&model.population_estimate_));
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(reader->ReadCount(&n, sizeof(uint64_t)));
  model.denorm_columns_.resize(n);
  for (auto& name : model.denorm_columns_) {
    BC_RETURN_IF_ERROR(reader->ReadString(&name));
  }
  BC_ASSIGN_OR_RETURN(model.bn_, BayesNetModel::Deserialize(reader));
  return model;
}

}  // namespace bytecard::cardest
