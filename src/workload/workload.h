#ifndef BYTECARD_WORKLOAD_WORKLOAD_H_
#define BYTECARD_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "minihouse/database.h"
#include "workload/query_gen.h"

namespace bytecard::workload {

// A named workload: the unit the evaluation section operates on.
struct Workload {
  std::string name;
  std::string dataset;
  std::vector<WorkloadQuery> queries;
  int num_join_templates = 0;
};

struct WorkloadOptions {
  int num_count_queries = 0;  // cardinality probes (possibly huge true card)
  int num_agg_queries = 0;    // executable aggregation queries
  // Executable queries are rejected and regenerated while their true
  // cardinality exceeds this (keeps Figure 5/6 runs laptop-scale).
  int64_t max_executable_count = 60000;
  uint64_t seed = 2024;
};

// Assembles the paper's workloads on our generated datasets:
//   JOB-Hybrid     (imdb):   100 queries, 23 join templates, 2-5 tables
//   STATS-Hybrid   (stats):  200 queries, 70 join templates, 2-8 tables
//   AEOLUS-Online  (aeolus): 200 queries, 2-5 tables, 2-4 group-by keys
// `name` is one of "JOB-Hybrid" | "STATS-Hybrid" | "AEOLUS-Online";
// option fields left at 0 take the workload's Table 5 defaults.
Result<Workload> BuildWorkload(const minihouse::Database& db,
                               const std::string& name,
                               WorkloadOptions options);

// Table 5's row set, computed from a workload and the true COUNT(*) of each
// of its queries (true_counts[i] = TrueCount(workload.queries[i].query)),
// which the caller has counted once for its own use too.
struct WorkloadStats {
  int num_queries = 0;
  int num_join_templates = 0;
  int min_joined_tables = 0;
  int max_joined_tables = 0;
  int min_group_keys = 0;
  int max_group_keys = 0;
  double min_true_cardinality = 0.0;
  double max_true_cardinality = 0.0;
  int queries_at_max_tables = 0;
  int queries_at_max_group_keys = 0;
};
Result<WorkloadStats> ComputeWorkloadStats(
    const Workload& workload, const std::vector<int64_t>& true_counts);

}  // namespace bytecard::workload

#endif  // BYTECARD_WORKLOAD_WORKLOAD_H_
