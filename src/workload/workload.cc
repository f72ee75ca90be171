#include "workload/workload.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "workload/truth.h"

namespace bytecard::workload {

namespace {

struct WorkloadProfile {
  const char* dataset;
  int count_queries;
  int agg_queries;
  int max_tables;
  int max_templates;
  int min_group_keys;
  int max_group_keys;
};

Result<WorkloadProfile> ProfileOf(const std::string& name) {
  if (name == "JOB-Hybrid") {
    return WorkloadProfile{"imdb", 70, 30, 5, 23, 1, 2};
  }
  if (name == "STATS-Hybrid") {
    return WorkloadProfile{"stats", 140, 60, 8, 70, 1, 2};
  }
  if (name == "AEOLUS-Online") {
    return WorkloadProfile{"aeolus", 130, 70, 5, 15, 2, 4};
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace

Result<std::string> DatasetOf(const std::string& workload_name) {
  BC_ASSIGN_OR_RETURN(WorkloadProfile profile, ProfileOf(workload_name));
  return std::string(profile.dataset);
}

Result<Workload> BuildWorkload(const minihouse::Database& db,
                               const std::string& name,
                               WorkloadOptions options) {
  BC_ASSIGN_OR_RETURN(WorkloadProfile profile, ProfileOf(name));
  if (options.num_count_queries == 0) {
    options.num_count_queries = profile.count_queries;
  }
  if (options.num_agg_queries == 0) {
    options.num_agg_queries = profile.agg_queries;
  }

  Workload workload;
  workload.name = name;
  workload.dataset = profile.dataset;

  const std::vector<JoinTemplate> templates = EnumerateJoinTemplates(
      profile.dataset, profile.max_tables, profile.max_templates);
  if (templates.empty()) {
    return Status::Internal("no join templates for '" + name + "'");
  }
  workload.num_join_templates = static_cast<int>(templates.size());

  QueryGenOptions gen_options;
  gen_options.min_group_keys = profile.min_group_keys;
  gen_options.max_group_keys = profile.max_group_keys;
  gen_options.seed = options.seed;
  Rng rng(options.seed);

  // Cardinality probes: round-robin over templates; ensure the largest
  // template appears (Table 5 counts queries hitting the max joined-table).
  for (int q = 0; q < options.num_count_queries; ++q) {
    const JoinTemplate& tmpl = templates[q % templates.size()];
    BC_ASSIGN_OR_RETURN(WorkloadQuery wq,
                        GenerateCountQuery(db, tmpl, gen_options, &rng));
    workload.queries.push_back(std::move(wq));
  }

  // Executable aggregation queries: reject-and-retry until the true result
  // size fits the executable budget. Prefer small templates (2-3 tables) for
  // most, as real dashboards do.
  std::vector<const JoinTemplate*> small_templates;
  for (const JoinTemplate& tmpl : templates) {
    if (tmpl.tables.size() <= 3) small_templates.push_back(&tmpl);
  }
  if (small_templates.empty()) {
    for (const JoinTemplate& tmpl : templates) {
      small_templates.push_back(&tmpl);
    }
  }
  for (int q = 0; q < options.num_agg_queries; ++q) {
    const JoinTemplate& tmpl =
        *small_templates[q % small_templates.size()];
    WorkloadQuery accepted;
    bool ok = false;
    for (int attempt = 0; attempt < 12 && !ok; ++attempt) {
      BC_ASSIGN_OR_RETURN(WorkloadQuery wq,
                          GenerateAggregateQuery(db, tmpl, gen_options, &rng));
      BC_ASSIGN_OR_RETURN(const int64_t truth, TrueCount(wq.query));
      if (truth > 0 && truth <= options.max_executable_count) {
        accepted = std::move(wq);
        ok = true;
      }
    }
    if (!ok) continue;  // this template resists small outputs; skip slot
    workload.queries.push_back(std::move(accepted));
  }
  return workload;
}

Result<WorkloadStats> ComputeWorkloadStats(
    const Workload& workload, const std::vector<int64_t>& true_counts) {
  if (true_counts.size() != workload.queries.size()) {
    return Status::InvalidArgument("one true count per workload query");
  }
  WorkloadStats stats;
  stats.num_queries = static_cast<int>(workload.queries.size());
  stats.num_join_templates = workload.num_join_templates;
  if (workload.queries.empty()) return stats;

  stats.min_joined_tables = workload.queries[0].num_tables;
  stats.max_joined_tables = workload.queries[0].num_tables;
  bool first_card = true;

  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const WorkloadQuery& wq = workload.queries[q];
    stats.min_joined_tables = std::min(stats.min_joined_tables, wq.num_tables);
    stats.max_joined_tables = std::max(stats.max_joined_tables, wq.num_tables);
    if (wq.aggregate) {
      if (stats.max_group_keys == 0) {
        stats.min_group_keys = wq.num_group_keys;
      }
      stats.min_group_keys = std::min(
          stats.min_group_keys == 0 ? wq.num_group_keys : stats.min_group_keys,
          wq.num_group_keys);
      stats.max_group_keys = std::max(stats.max_group_keys, wq.num_group_keys);
    }
    const double t = static_cast<double>(true_counts[q]);
    if (first_card) {
      stats.min_true_cardinality = stats.max_true_cardinality = t;
      first_card = false;
    } else {
      stats.min_true_cardinality = std::min(stats.min_true_cardinality, t);
      stats.max_true_cardinality = std::max(stats.max_true_cardinality, t);
    }
  }
  for (const WorkloadQuery& wq : workload.queries) {
    if (wq.num_tables == stats.max_joined_tables) {
      ++stats.queries_at_max_tables;
    }
    if (wq.aggregate && wq.num_group_keys == stats.max_group_keys) {
      ++stats.queries_at_max_group_keys;
    }
  }
  return stats;
}

}  // namespace bytecard::workload
