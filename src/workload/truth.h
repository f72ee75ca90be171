#ifndef BYTECARD_WORKLOAD_TRUTH_H_
#define BYTECARD_WORKLOAD_TRUTH_H_

#include <cstdint>

#include "common/status.h"
#include "minihouse/query.h"

namespace bytecard::workload {

// Exact COUNT(*) of a conjunctive join query whose join graph is acyclic
// (every workload template here is a spanning tree). Computed by bottom-up
// count message passing over the join tree — O(total rows), never
// materializes the join, so true cardinalities in the trillions (Table 5's
// upper range) are exact and cheap.
Result<int64_t> TrueCount(const minihouse::BoundQuery& query);

// Exact COUNT(DISTINCT column) of one table under a filter conjunction.
Result<int64_t> TrueColumnNdv(const minihouse::Table& table, int column,
                              const minihouse::Conjunction& filters);

}  // namespace bytecard::workload

#endif  // BYTECARD_WORKLOAD_TRUTH_H_
