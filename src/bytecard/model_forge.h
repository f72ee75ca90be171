#ifndef BYTECARD_BYTECARD_MODEL_FORGE_H_
#define BYTECARD_BYTECARD_MODEL_FORGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cardest/bayes/bayes_net.h"
#include "cardest/factorjoin/factor_join.h"
#include "cardest/ndv/rbx.h"
#include "common/status.h"
#include "minihouse/database.h"

namespace bytecard {

// Descriptor of one trained model artifact in the forge's storage directory.
struct ModelArtifact {
  std::string kind;    // "bn", "factorjoin", "rbx"
  std::string name;    // table name, or "global"
  int64_t timestamp = 0;
  std::string path;
  int64_t size_bytes = 0;
  double train_seconds = 0.0;
};

// The ModelForge Service (paper §4.3): a standalone training service that
// samples data, trains models, and publishes timestamped artifacts to a
// storage directory for the Model Loader to pick up. Training runs here so
// that online query processing never pays its cost; in ByteDance it is a
// Python service over cloud storage — here the same lifecycle runs in-process
// over a local directory.
class ModelForgeService {
 public:
  // `storage_dir` is created if absent.
  explicit ModelForgeService(std::string storage_dir);

  const std::string& storage_dir() const { return storage_dir_; }

  // Routine COUNT-model training: Chow-Liu structure learning + smoothed-ML
  // parameter fitting for one table.
  Result<ModelArtifact> TrainTableBn(const minihouse::Table& table,
                                     const cardest::BnTrainOptions& options);

  // FactorJoin bucket construction over the catalog's join patterns.
  Result<ModelArtifact> TrainFactorJoin(
      const minihouse::Database& db,
      const std::vector<std::vector<cardest::JoinKeyRef>>& key_groups,
      int num_buckets);

  // One-off workload-independent RBX training.
  Result<ModelArtifact> TrainRbx(const cardest::RbxTrainOptions& options);

  // Calibration fine-tuning from the checkpoint in `artifact`: reduced LR,
  // asymmetric penalty, high-NDV augmentation (paper §5.2.2). Publishes a
  // new artifact.
  Result<ModelArtifact> FineTuneRbx(
      const ModelArtifact& artifact,
      const std::vector<cardest::NdvTrainingExample>& problematic,
      uint64_t seed);

  // Artifacts currently in the store, newest first within each (kind, name).
  Result<std::vector<ModelArtifact>> ListArtifacts() const;

 private:
  Result<ModelArtifact> Publish(const std::string& kind,
                                const std::string& name,
                                const std::string& bytes,
                                double train_seconds);

  std::string storage_dir_;
  int64_t clock_ = 0;  // monotonic artifact timestamp source
};

// Reads an artifact's bytes from disk.
Result<std::string> ReadArtifactBytes(const std::string& path);

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_MODEL_FORGE_H_
