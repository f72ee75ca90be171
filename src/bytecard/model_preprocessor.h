#ifndef BYTECARD_BYTECARD_MODEL_PREPROCESSOR_H_
#define BYTECARD_BYTECARD_MODEL_PREPROCESSOR_H_

#include <vector>

#include "cardest/factorjoin/join_bucket.h"
#include "minihouse/database.h"
#include "minihouse/query.h"
#include "minihouse/schema.h"

namespace bytecard {

// The Model Preprocessor (paper §4.4.1): runs in the analyzer/optimizer,
// producing the metadata ModelForge trains from.
//
//  * column selection — exclude complex types (Array/Map) the models cannot
//    process;
//  * preliminary type mapping — database type -> ML type (Categorical /
//    Continuous);
//  * join-pattern collection — joinable-column equivalence classes gathered
//    from analyzed queries (ByteHouse customers do not declare PK-FK
//    constraints, so patterns come from observed queries).
class ModelPreprocessor {
 public:
  // Join-pattern collection: join-key equivalence classes (transitive over
  // all queries' equi-join edges), keyed by table name + column index.
  static std::vector<std::vector<cardest::JoinKeyRef>> CollectJoinPatterns(
      const std::vector<minihouse::BoundQuery>& queries);

  // Selected (modelable) column indices of one table.
  static std::vector<int> SelectedColumns(const minihouse::Table& table);

  static minihouse::MlType MapType(minihouse::DataType type);
};

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_MODEL_PREPROCESSOR_H_
