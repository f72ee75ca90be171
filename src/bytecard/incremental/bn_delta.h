#ifndef BYTECARD_BYTECARD_INCREMENTAL_BN_DELTA_H_
#define BYTECARD_BYTECARD_INCREMENTAL_BN_DELTA_H_

#include <cstdint>
#include <vector>

#include "bytecard/incremental/ingest_delta.h"
#include "cardest/bayes/bayes_net.h"
#include "common/status.h"

namespace bytecard::incremental {

// Copy-on-write CPD count page for one table's Bayesian network (the
// BayesCard-style delta update): the Chow-Liu structure and discretizers of
// the base model are frozen, the smoothed-ML probabilities are unfolded back
// into pseudo-counts once, and every ingest batch increments those counts in
// place (binning each batch row through the frozen discretizers, which clamp
// drifted values into the edge bins). ToModel renormalizes with exactly the
// Laplace formulas BayesNetModel::Train uses, so a page that absorbed zero
// batches reproduces the base CPDs up to one extra alpha of smoothing mass.
// Structure drift is deliberately NOT handled here — the OnlineDriftDetector
// demotes the table and a full retrain relearns the tree.
class BnCountPage {
 public:
  // Unfolds `model`'s CPDs into pseudo-counts. Root counts are p[b] * N;
  // non-root joint counts come from a top-down parent-marginal propagation
  // (marginal[child][b] = sum_p marginal[parent][p] * cpd[p][b]), so the
  // reconstruction needs no data pass. `laplace_alpha` must match the value
  // the model was trained with.
  static Result<BnCountPage> FromModel(const cardest::BayesNetModel& model,
                                       double laplace_alpha);

  // Increments the counts with one batch: bins every batch row of every
  // modelled column through the frozen discretizers and bumps root counts /
  // parent-child joint counts. O(batch_rows * nodes).
  Status ApplyBatch(const IngestDelta& delta);

  // Renormalized successor model (frozen structure, updated CPDs, row count
  // advanced by the absorbed rows). Passes ValidateStructure by
  // construction: counts are non-negative and alpha > 0 keeps every cell
  // finite and positive.
  cardest::BayesNetModel ToModel() const;

  int64_t rows_absorbed() const { return rows_absorbed_; }
  double total_rows() const { return total_rows_; }

 private:
  BnCountPage() = default;

  cardest::BayesNetModel base_;  // frozen structure + discretizers
  double alpha_ = cardest::kBnLaplaceAlpha;
  double total_rows_ = 0.0;  // pseudo-count total (base N + absorbed rows)
  // Per node: root -> nb counts; non-root -> pb*nb joint counts (row-major
  // [parent_bin][bin], same layout as the CPD matrix).
  std::vector<std::vector<double>> counts_;
  int64_t rows_absorbed_ = 0;
};

}  // namespace bytecard::incremental

#endif  // BYTECARD_BYTECARD_INCREMENTAL_BN_DELTA_H_
