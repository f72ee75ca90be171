#ifndef BYTECARD_MINIHOUSE_AGGREGATE_H_
#define BYTECARD_MINIHOUSE_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "minihouse/hash_table.h"
#include "minihouse/query.h"
#include "minihouse/relation.h"

namespace bytecard::minihouse {

// One aggregate to compute over an input relation. Columns are indices into
// the input relation's column list (-1 for COUNT(*)).
struct AggRequest {
  AggFunc func = AggFunc::kCountStar;
  int input_column = -1;
};

// Specialization request for HashAggregate (DESIGN.md §11): when enabled,
// partitions index groups through a DenseKeyIndex over the assumed key
// domain instead of the aggregation hash table. Only meaningful for
// single-column group keys; the compiler sets it from the group-key column's
// min/max domain stats when the domain width fits kDenseAggBudget (which
// bounds the dense array's memory). A key outside the assumed domain
// despecializes that partition mid-execution (results stay exact; the
// degradation is counted and fed back).
inline constexpr int64_t kDenseAggBudget = int64_t{1} << 16;

struct DenseAggSpec {
  bool enabled = false;
  int64_t domain_min = 0;
  int64_t domain_max = -1;
};

struct AggregateResult {
  int64_t num_groups = 0;
  int64_t resize_count = 0;
  // Kernel specialization: whether the dense-array index was engaged, and
  // how many partitions a runtime domain-guard violation degraded back to
  // the generic hash index.
  bool specialized = false;
  int64_t despecialized_morsels = 0;
  // Partial groups folded into the final table during a parallel merge
  // (0 when the aggregation ran serially — the serial path has no merge).
  int64_t merge_groups = 0;
  // Parallel-execution accounting, mirroring ScanResult.
  int dop_used = 1;
  int64_t parallel_tasks = 0;
  // agg_values[a][g] = value of aggregate a for group g.
  std::vector<std::vector<double>> agg_values;
  // group_keys[k][g] = component k of group g's key.
  std::vector<std::vector<int64_t>> group_keys;
};

// Hash aggregation over a relation. `key_columns` are slot indices into
// `input.columns`; `ndv_hint` pre-sizes the hash table (0 = engine default).
// COUNT(DISTINCT c) is computed per group with a nested distinct table whose
// resizes also count toward resize_count (it is the same mechanism). The row
// count comes from `input.num_rows()`, so a zero-column relation (everything
// projected away before a COUNT(*)) aggregates correctly as long as its
// explicit `rows` field is set.
//
// With dop > 1 the input is split into contiguous row partitions, each
// accumulated into its own hash table (pre-sized from the same ndv_hint),
// then merged into a final table in partition order. Group *values* are
// identical at any dop; group order and resize_count may differ, so parallel
// consumers compare results group-key-sorted. resize_count sums over every
// table involved (partials + final).
// `policy` schedules the partition helper tasks (the owning query's lane and
// morsel budget).
//
// `spec` (optional) swaps the group index for a DenseKeyIndex over the
// assumed key domain — honored only for single-column keys. Group ids, group
// order, accumulator layout, and float summation order are identical to the
// generic path by construction, so results are byte-identical whether the
// dense index engages, never engages, or degrades mid-partition.
AggregateResult HashAggregate(const Relation& input,
                              const std::vector<int>& key_columns,
                              const std::vector<AggRequest>& aggs,
                              int64_t ndv_hint, int dop = 1,
                              const common::MorselPolicy& policy = {},
                              const DenseAggSpec& spec = {});

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_AGGREGATE_H_
