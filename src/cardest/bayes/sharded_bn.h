#ifndef BYTECARD_CARDEST_BAYES_SHARDED_BN_H_
#define BYTECARD_CARDEST_BAYES_SHARDED_BN_H_

#include <memory>
#include <vector>

#include "cardest/bayes/bayes_net.h"

namespace bytecard::cardest {

// Consumer side of the paper's shard-specialized training (§4.3): when a
// table's data distribution varies notably across shards, ModelForge trains
// one BN per shard ("<table>@shardK" artifacts); this ensemble combines
// their estimates. Selectivity is the row-weighted mixture of per-shard
// selectivities, and counts are the sum of per-shard counts — exact when
// shards partition the table.
class ShardedBnEnsemble {
 public:
  ShardedBnEnsemble() = default;

  // Takes ownership of per-shard models (each trained on one shard's rows).
  static Result<ShardedBnEnsemble> Build(
      std::vector<BayesNetModel> shard_models);

  int num_shards() const { return static_cast<int>(models_.size()); }
  int64_t total_rows() const { return total_rows_; }

  // Mixture probability: sum_s (rows_s / total) * P_s(filters).
  double EstimateSelectivity(const minihouse::Conjunction& filters) const;

  // Sum of per-shard counts: sum_s rows_s * P_s(filters).
  double EstimateCount(const minihouse::Conjunction& filters) const;

 private:
  // unique_ptr keeps model addresses stable for the contexts pointing at them.
  std::vector<std::unique_ptr<BayesNetModel>> models_;
  std::vector<std::unique_ptr<BnInferenceContext>> contexts_;
  int64_t total_rows_ = 0;
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_BAYES_SHARDED_BN_H_
