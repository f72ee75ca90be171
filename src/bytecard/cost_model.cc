#include "bytecard/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace bytecard {

namespace {
double Log1p(double v) { return std::log1p(std::max(0.0, v)); }
}  // namespace

std::vector<double> BuildCostFeatures(
    const minihouse::BoundQuery& query, const minihouse::PhysicalPlan& plan,
    minihouse::CardinalityEstimator* estimator) {
  std::vector<double> features(kCostFeatureDim, 0.0);

  // Plan shape.
  features[0] = static_cast<double>(query.num_tables());
  features[1] = static_cast<double>(query.joins.size());
  features[2] = static_cast<double>(query.group_by.size());
  features[3] = static_cast<double>(query.aggs.size());

  // Scan-side volume: base rows, estimated surviving rows, reader mix.
  double base_rows = 0.0;
  double scanned_rows = 0.0;
  int multi_stage = 0;
  int total_filters = 0;
  for (int t = 0; t < query.num_tables(); ++t) {
    const auto& ref = query.tables[t];
    const double rows = static_cast<double>(ref.table->num_rows());
    base_rows += rows;
    scanned_rows += rows * plan.scans[t].estimated_selectivity;
    if (plan.scans[t].reader == minihouse::ReaderKind::kMultiStage) {
      ++multi_stage;
    }
    total_filters += static_cast<int>(ref.filters.size());
  }
  features[4] = Log1p(base_rows);
  features[5] = Log1p(scanned_rows);
  features[6] = static_cast<double>(multi_stage);
  features[7] = static_cast<double>(total_filters);

  // Estimated output / intermediate volume from the cardinality estimator —
  // the coupling between CardEst and cost the paper emphasizes.
  std::vector<int> all(query.num_tables());
  for (int i = 0; i < query.num_tables(); ++i) all[i] = i;
  features[8] = Log1p(estimator->EstimateJoinCardinality(query, all));
  features[9] =
      query.group_by.empty() ? 0.0 : Log1p(estimator->EstimateGroupNdv(query));
  features[10] = static_cast<double>(plan.group_ndv_hint > 0);
  features[11] = Log1p(static_cast<double>(plan.join_order.size()));
  return features;
}

Result<LearnedCostModel> LearnedCostModel::Train(
    const std::vector<CostTrace>& traces, const TrainOptions& options) {
  if (traces.size() < 4) {
    return Status::InvalidArgument("cost model needs more traces");
  }
  LearnedCostModel model;
  model.network_ = cardest::Mlp::Create({kCostFeatureDim, 32, 16, 1},
                                        options.seed);
  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  for (const CostTrace& trace : traces) {
    if (static_cast<int>(trace.features.size()) != kCostFeatureDim) {
      return Status::InvalidArgument("cost trace feature dim mismatch");
    }
    inputs.push_back(trace.features);
    targets.push_back(Log1p(trace.exec_ms));
  }
  cardest::Mlp::TrainConfig config;
  config.epochs = options.epochs;
  config.learning_rate = options.learning_rate;
  config.seed = options.seed;
  model.network_.Train(inputs, targets, config);
  BC_RETURN_IF_ERROR(model.network_.ValidateWeights());
  return model;
}

double LearnedCostModel::PredictMs(
    const std::vector<double>& features) const {
  const double log_ms = network_.Predict(features);
  return std::max(0.0, std::expm1(std::max(0.0, log_ms)));
}

Result<std::vector<CostTrace>> CollectCostTraces(
    const std::vector<minihouse::BoundQuery>& queries,
    const minihouse::Optimizer& optimizer,
    minihouse::CardinalityEstimator* estimator) {
  std::vector<CostTrace> traces;
  traces.reserve(queries.size());
  for (const minihouse::BoundQuery& query : queries) {
    const minihouse::PhysicalPlan plan = optimizer.Plan(query, estimator);
    Stopwatch timer;
    BC_ASSIGN_OR_RETURN(minihouse::ExecResult result,
                        minihouse::ExecuteQuery(query, plan));
    (void)result;
    CostTrace trace;
    trace.exec_ms = timer.ElapsedMillis();
    trace.features = BuildCostFeatures(query, plan, estimator);
    traces.push_back(std::move(trace));
  }
  return traces;
}

}  // namespace bytecard
