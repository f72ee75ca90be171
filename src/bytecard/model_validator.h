#ifndef BYTECARD_BYTECARD_MODEL_VALIDATOR_H_
#define BYTECARD_BYTECARD_MODEL_VALIDATOR_H_

#include <cstdint>

#include "common/status.h"

namespace bytecard {

class CardEstInferenceEngine;

// The Model Validator (paper §4.2.1): guards query processing from bad or
// oversized models before they may serve queries. Two checks:
//
//  * size checker — rejects any model above a fixed per-model cap;
//  * health detector — delegates to each engine's Validate() (e.g. the BN
//    DAG/cycle check, finite NN weights).
class ModelValidator {
 public:
  static constexpr int64_t kMaxModelBytes = 16 << 20;  // 16 MiB per model

  // Full admission check for a loaded engine.
  Status Admit(const CardEstInferenceEngine& engine) const;

  // Size-only check, exposed for tests.
  Status CheckModelSize(int64_t size_bytes) const;
};

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_MODEL_VALIDATOR_H_
