#ifndef BYTECARD_CARDEST_BASELINES_BAYESCARD_H_
#define BYTECARD_CARDEST_BASELINES_BAYESCARD_H_

#include <memory>
#include <string>
#include <vector>

#include "cardest/bayes/bayes_net.h"
#include "common/serde.h"
#include "minihouse/query.h"

namespace bytecard::cardest {

// BayesCard-style baseline: one tree-structured Bayesian network trained over
// the *denormalized* join of a schema's tables. This is the design the paper
// contrasts ByteCard against in Table 3 — BN inference is identical to
// ByteCard's single-table model, but the denormalization step multiplies
// training data and model width, and each new join pattern demands new
// denormalized columns.
class BayesCardModel {
 public:
  struct TrainOptions {
    int64_t max_base_rows = 20000;    // per-table sample before joining
    int64_t max_output_rows = 120000; // denormalized training rows cap
    int max_bins = 64;
    uint64_t seed = 17;
  };

  BayesCardModel() = default;

  // `full_join` describes the schema's canonical join of all tables (no
  // filters); the BN is trained over its sampled denormalization.
  static Result<BayesCardModel> Train(const minihouse::BoundQuery& full_join,
                                      const TrainOptions& options);

  // COUNT(*) estimate: P(filters) on the denormalized distribution times the
  // estimated full-join population. Filters are re-addressed onto the
  // denormalized column space ("alias_column").
  double EstimateCount(const minihouse::BoundQuery& query) const;

  const BayesNetModel& network() const { return bn_; }

  void Serialize(BufferWriter* writer) const;
  static Result<BayesCardModel> Deserialize(BufferReader* reader);

 private:
  BayesNetModel bn_;
  // Column names of the denormalized table, aligned with schema indices.
  std::vector<std::string> denorm_columns_;
  double population_estimate_ = 0.0;
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_BASELINES_BAYESCARD_H_
