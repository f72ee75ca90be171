#ifndef BYTECARD_CARDEST_BAYES_BAYES_NET_H_
#define BYTECARD_CARDEST_BAYES_BAYES_NET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cardest/discretizer.h"
#include "common/rng.h"
#include "common/serde.h"
#include "minihouse/query.h"
#include "minihouse/table.h"

namespace bytecard::cardest {

// One variable of a tree-structured Bayesian network. CPDs are exactly the
// paper's representation (§4.1): a 1-D vector for the root, a 2-D matrix
// (row-major [parent_bin][bin]) for non-root nodes.
struct BnNode {
  int column = -1;  // index into the source table's schema
  int parent = -1;  // node index, -1 for the root
  Discretizer discretizer;
  std::vector<double> cpd;

  int num_bins() const { return discretizer.num_bins(); }
};

// Laplace smoothing mass for CPD estimation. Training always uses it, and
// the incremental maintainer's count pages renormalize with the same value,
// so a delta-updated model keeps the smoothing its base was trained with.
inline constexpr double kBnLaplaceAlpha = 0.02;

struct BnTrainOptions {
  // Columns (schema indices) to model. Empty = all supported columns.
  std::vector<int> columns;
  // Bin alphabet cap per column.
  int max_bins = 64;
  // Join columns discretize with externally supplied boundaries so that all
  // tables sharing a join key group agree on bucket identity (FactorJoin).
  std::map<int, std::vector<int64_t>> join_column_boundaries;
  // Training rows are sampled down to this many (0 = use all rows).
  int64_t max_train_rows = 200000;
  uint64_t seed = 1;
};

// The single-table COUNT model (paper §4.1): tree-structured BN trained by
// ModelForge with Chow-Liu structure learning + smoothed maximum-likelihood
// CPD fitting (equivalent to EM on fully observed data).
class BayesNetModel {
 public:
  BayesNetModel() = default;

  static Result<BayesNetModel> Train(const minihouse::Table& table,
                                     const BnTrainOptions& options);

  // Assembles a model from explicit parts. The incremental-maintenance path
  // uses this to publish a successor model with the structure/discretizers
  // of a trained base and CPDs renormalized from delta-updated counts; the
  // result must still pass ValidateStructure.
  static BayesNetModel FromParts(std::string table_name, int64_t row_count,
                                 std::vector<BnNode> nodes);

  const std::string& table_name() const { return table_name_; }
  int64_t row_count() const { return row_count_; }
  const std::vector<BnNode>& nodes() const { return nodes_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Node index modelling schema column `column`, or -1.
  int NodeOfColumn(int column) const;

  // Structural health check used by the Model Validator: every non-root
  // parent index in range, exactly one root, no cycles (paper's DAG check).
  Status ValidateStructure() const;

  // Serialized artifact size in bytes (reported in Tables 3 and 6).
  void Serialize(BufferWriter* writer) const;
  static Result<BayesNetModel> Deserialize(BufferReader* reader);

 private:
  friend class BnInferenceContext;

  std::string table_name_;
  int64_t row_count_ = 0;
  std::vector<BnNode> nodes_;
};

// Immutable inference context produced by initContext (paper §4.1). Freezes
// the two structures the paper calls out: (1) root identification and
// (2) CPD indexing — CPDs flattened into an array in topological order with
// children lists, so estimation never walks the tree via pointers. All
// methods are const and lock-free: one context serves all query threads.
class BnInferenceContext {
 public:
  // The model must outlive the context.
  explicit BnInferenceContext(const BayesNetModel* model);

  // P(filters) under the model, in [0, 1]. Filters on unmodelled columns are
  // treated as selectivity 1 (consistent with how ByteHouse falls back).
  double EstimateSelectivity(const minihouse::Conjunction& filters) const;

  // row_count * P(filters).
  double EstimateCount(const minihouse::Conjunction& filters) const;

  // Joint distribution over `column`'s bins with the evidence applied:
  // out[b] = P(filters AND column-bin = b). Sum equals
  // EstimateSelectivity(filters). This is the per-bucket distribution
  // FactorJoin consumes.
  Result<std::vector<double>> MarginalWithEvidence(
      const minihouse::Conjunction& filters, int column) const;

  int root() const { return root_; }
  const std::vector<int>& topological_order() const { return topo_; }

  // Ablation reference path: same estimate computed by recursive tree
  // walking over the model's node structs (no flat CPD indexing). Used by
  // bench_ablation_cpd_indexing to quantify the paper's InitContext design.
  double EstimateSelectivityTreeWalk(
      const minihouse::Conjunction& filters) const;

 private:
  // Evidence weight vectors per node (1.0 where unconstrained).
  std::vector<std::vector<double>> BuildEvidence(
      const minihouse::Conjunction& filters) const;

  // Upward pass; returns per-node up messages and child-sum caches.
  void UpwardPass(const std::vector<std::vector<double>>& evidence,
                  std::vector<std::vector<double>>* up,
                  std::vector<std::vector<double>>* child_sum) const;

  const BayesNetModel* model_;
  // Unique to this context for the life of the process: the key of its
  // entries in the thread-local selectivity memo, which a context built
  // later at this one's address must not answer from.
  uint64_t id_;
  int root_ = 0;
  std::vector<int> topo_;                  // parents before children
  std::vector<std::vector<int>> children_;
  std::vector<int> col_to_node_;           // schema column -> node index
  int max_column_ = -1;
  // Flat CPD storage in topological order (the paper's CPD index array).
  std::vector<double> flat_cpd_;
  std::vector<int64_t> cpd_offset_;        // per node
};

}  // namespace bytecard::cardest

#endif  // BYTECARD_CARDEST_BAYES_BAYES_NET_H_
