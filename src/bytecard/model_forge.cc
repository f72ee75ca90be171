#include "bytecard/model_forge.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace bytecard {

namespace fs = std::filesystem;

namespace {

// Artifact filename: <kind>.<name>.<timestamp>.model — name may not contain
// '.' or '/'.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '/') c = '_';
  }
  return out;
}

}  // namespace

Result<std::string> ReadArtifactBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open artifact '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ModelForgeService::ModelForgeService(std::string storage_dir)
    : storage_dir_(std::move(storage_dir)) {
  std::error_code ec;
  fs::create_directories(storage_dir_, ec);
  // Resume the logical clock past any existing artifacts so that restarted
  // services keep publishing strictly newer timestamps.
  if (auto artifacts = ListArtifacts(); artifacts.ok()) {
    for (const ModelArtifact& a : artifacts.value()) {
      clock_ = std::max(clock_, a.timestamp);
    }
  }
}

Result<ModelArtifact> ModelForgeService::Publish(const std::string& kind,
                                                 const std::string& name,
                                                 const std::string& bytes,
                                                 double train_seconds) {
  ModelArtifact artifact;
  artifact.kind = kind;
  artifact.name = name;
  artifact.timestamp = ++clock_;
  artifact.size_bytes = static_cast<int64_t>(bytes.size());
  artifact.train_seconds = train_seconds;
  artifact.path = storage_dir_ + "/" + kind + "." + SanitizeName(name) + "." +
                  std::to_string(artifact.timestamp) + ".model";

  std::ofstream out(artifact.path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot write artifact '" + artifact.path + "'");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return Status::Internal("short write for artifact '" + artifact.path +
                            "'");
  }
  return artifact;
}

Result<ModelArtifact> ModelForgeService::TrainTableBn(
    const minihouse::Table& table, const cardest::BnTrainOptions& options) {
  Stopwatch timer;
  BC_ASSIGN_OR_RETURN(cardest::BayesNetModel model,
                      cardest::BayesNetModel::Train(table, options));
  BufferWriter writer;
  model.Serialize(&writer);
  return Publish("bn", table.name(), writer.buffer(),
                 timer.ElapsedSeconds());
}

Result<ModelArtifact> ModelForgeService::TrainFactorJoin(
    const minihouse::Database& db,
    const std::vector<std::vector<cardest::JoinKeyRef>>& key_groups,
    int num_buckets) {
  Stopwatch timer;
  BC_ASSIGN_OR_RETURN(cardest::FactorJoinModel model,
                      cardest::FactorJoinModel::Train(db, key_groups,
                                                      num_buckets));
  BufferWriter writer;
  model.Serialize(&writer);
  return Publish("factorjoin", "global", writer.buffer(),
                 timer.ElapsedSeconds());
}

Result<ModelArtifact> ModelForgeService::TrainRbx(
    const cardest::RbxTrainOptions& options) {
  Stopwatch timer;
  BC_ASSIGN_OR_RETURN(cardest::RbxModel model,
                      cardest::RbxModel::TrainWorkloadIndependent(options));
  BufferWriter writer;
  model.Serialize(&writer);
  return Publish("rbx", "global", writer.buffer(), timer.ElapsedSeconds());
}

Result<ModelArtifact> ModelForgeService::FineTuneRbx(
    const ModelArtifact& artifact,
    const std::vector<cardest::NdvTrainingExample>& problematic,
    uint64_t seed) {
  BC_ASSIGN_OR_RETURN(std::string bytes, ReadArtifactBytes(artifact.path));
  BC_ASSIGN_OR_RETURN(cardest::RbxModel model,
                      DeserializeArtifact<cardest::RbxModel>(bytes));
  Stopwatch timer;
  BC_RETURN_IF_ERROR(model.FineTune(problematic, seed));
  BufferWriter writer;
  model.Serialize(&writer);
  return Publish("rbx", artifact.name, writer.buffer(),
                 timer.ElapsedSeconds());
}

Result<std::vector<ModelArtifact>> ModelForgeService::ListArtifacts() const {
  std::vector<ModelArtifact> artifacts;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(storage_dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string filename = entry.path().filename().string();
    // Parse <kind>.<name>.<timestamp>.model
    if (filename.size() < 7 ||
        filename.substr(filename.size() - 6) != ".model") {
      continue;
    }
    const std::string stem = filename.substr(0, filename.size() - 6);
    const size_t first_dot = stem.find('.');
    const size_t last_dot = stem.rfind('.');
    if (first_dot == std::string::npos || last_dot <= first_dot) continue;
    ModelArtifact artifact;
    artifact.kind = stem.substr(0, first_dot);
    artifact.name = stem.substr(first_dot + 1, last_dot - first_dot - 1);
    artifact.timestamp =
        std::strtoll(stem.substr(last_dot + 1).c_str(), nullptr, 10);
    artifact.path = entry.path().string();
    artifact.size_bytes = static_cast<int64_t>(entry.file_size(ec));
    artifacts.push_back(std::move(artifact));
  }
  if (ec) return Status::Internal("cannot list artifacts: " + ec.message());
  std::sort(artifacts.begin(), artifacts.end(),
            [](const ModelArtifact& a, const ModelArtifact& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.name != b.name) return a.name < b.name;
              return a.timestamp > b.timestamp;
            });
  return artifacts;
}

}  // namespace bytecard
