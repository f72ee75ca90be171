#include "bytecard/model_validator.h"

#include <string>

#include "bytecard/inference_engine.h"

namespace bytecard {

Status ModelValidator::CheckModelSize(int64_t size_bytes) const {
  if (size_bytes > kMaxModelBytes) {
    return Status::ResourceExhausted(
        "model size " + std::to_string(size_bytes) +
        " exceeds per-model cap " + std::to_string(kMaxModelBytes));
  }
  return Status::Ok();
}

Status ModelValidator::Admit(const CardEstInferenceEngine& engine) const {
  // Health detector first: never admit a structurally broken model.
  BC_RETURN_IF_ERROR(engine.Validate());
  return CheckModelSize(engine.ModelSizeBytes());
}

}  // namespace bytecard
