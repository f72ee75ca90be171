#ifndef BYTECARD_BYTECARD_COST_MODEL_H_
#define BYTECARD_BYTECARD_COST_MODEL_H_

#include <vector>

#include "cardest/ndv/mlp.h"
#include "common/status.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "minihouse/query.h"

namespace bytecard {

// The learning-based cost model the paper's "Future Directions" section
// commits to (§7): a query-driven regressor over runtime traces.
//
// Featurization combines plan shape with the cardinality estimates already
// available at planning time — exactly the "runtime traces and query plan
// statistics" recipe the paper describes for XGBoost/Elastic-Net cost
// models, realized with this repository's MLP.

// One training observation: what the planner saw, and what execution cost.
struct CostTrace {
  std::vector<double> features;
  double exec_ms = 0.0;
};

inline constexpr int kCostFeatureDim = 12;

// Builds the plan-time feature vector for a (query, plan) pair. `estimator`
// supplies the same cardinality estimates the optimizer used.
std::vector<double> BuildCostFeatures(
    const minihouse::BoundQuery& query, const minihouse::PhysicalPlan& plan,
    minihouse::CardinalityEstimator* estimator);

// The cost model itself: wraps a small MLP predicting log(1 + exec_ms).
class LearnedCostModel {
 public:
  struct TrainOptions {
    int epochs = 200;
    double learning_rate = 2e-3;
    uint64_t seed = 23;
  };

  LearnedCostModel() = default;

  static Result<LearnedCostModel> Train(const std::vector<CostTrace>& traces,
                                        const TrainOptions& options);

  // Predicted execution milliseconds for the featurized plan.
  double PredictMs(const std::vector<double>& features) const;

 private:
  cardest::Mlp network_;
};

// Trace collection helper: plans and executes every query, recording
// (features, measured ms) pairs — the "runtime traces in system tables" the
// paper's warehouse already gathers.
Result<std::vector<CostTrace>> CollectCostTraces(
    const std::vector<minihouse::BoundQuery>& queries,
    const minihouse::Optimizer& optimizer,
    minihouse::CardinalityEstimator* estimator);

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_COST_MODEL_H_
