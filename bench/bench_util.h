// Shared setup for the reproduction benches: dataset + workload + estimator
// construction, environment-variable scale override, and table printing.

#ifndef BYTECARD_BENCH_BENCH_UTIL_H_
#define BYTECARD_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "common/logging.h"
#include "minihouse/database.h"
#include "minihouse/executor.h"
#include "stats/traditional_estimator.h"
#include "workload/datagen.h"
#include "workload/qerror.h"
#include "workload/workload.h"

namespace bytecard::bench {

// Dataset scale factor; override with BYTECARD_SCALE. The default keeps the
// full bench suite laptop-friendly on one core.
inline double ScaleFactor(double fallback = 0.1) {
  const char* env = std::getenv("BYTECARD_SCALE");
  if (env == nullptr) return fallback;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : fallback;
}

// Deterministic seed shared by all benches; override with BYTECARD_SEED.
inline uint64_t BenchSeed() {
  const char* env = std::getenv("BYTECARD_SEED");
  if (env == nullptr) return 20240607;
  return static_cast<uint64_t>(std::atoll(env));
}

// --- Result provenance --------------------------------------------------------
// Every BENCH_*.json is stamped with the commit and the wall-clock moment it
// was produced, so result files stay attributable once they leave the tree.

// BYTECARD_GIT_SHA overrides (CI sets it); otherwise ask git; "unknown" when
// neither is available (e.g. running from an exported tarball).
inline std::string GitSha() {
  if (const char* env = std::getenv("BYTECARD_GIT_SHA")) return env;
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[128];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

inline std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

// Emits the shared provenance fields; callers place this immediately after
// the opening brace of the result object.
inline void WriteJsonProvenance(FILE* f) {
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", GitSha().c_str());
  std::fprintf(f, "  \"timestamp_utc\": \"%s\",\n",
               IsoTimestampUtc().c_str());
}

// Everything one dataset's experiments need.
struct BenchContext {
  std::string dataset;
  std::string workload_name;
  std::unique_ptr<minihouse::Database> db;
  workload::Workload workload;
  std::unique_ptr<ByteCard> bytecard;
  std::unique_ptr<stats::SketchStatistics> sketch_statistics;
  std::unique_ptr<stats::SketchEstimator> sketch;
  std::unique_ptr<stats::SampleEstimator> sample;
};

struct BenchContextOptions {
  double scale = 0.0;  // 0 = ScaleFactor()
  int count_queries = 0;  // 0 = workload defaults
  int agg_queries = 0;
  bool build_bytecard = true;
  bool build_traditional = true;
};

inline std::string WorkloadNameOf(const std::string& dataset) {
  if (dataset == "imdb") return "JOB-Hybrid";
  if (dataset == "stats") return "STATS-Hybrid";
  return "AEOLUS-Online";
}

// This process's model store: a fresh directory, removed at exit. Every
// bench reports models trained by the run that prints them, never artifacts
// an earlier run or another bench left behind.
inline const std::string& BenchModelDir() {
  struct Dir {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bytecard_bench_" + std::to_string(::getpid())))
            .string();

    Dir() {
      std::filesystem::remove_all(path);
      std::filesystem::create_directories(path);
    }
    ~Dir() { std::filesystem::remove_all(path); }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
  };
  static const Dir dir;
  return dir.path;
}

// The workload-independent RBX artifact: trained once per process, with
// BenchSeed(), and shared by every context.
inline const ModelArtifact& SharedRbxArtifact() {
  static const ModelArtifact artifact = [] {
    ModelForgeService forge(BenchModelDir());
    cardest::RbxTrainOptions options;
    options.seed = BenchSeed();
    auto trained = forge.TrainRbx(options);
    BC_CHECK_OK(trained.status());
    return trained.value();
  }();
  return artifact;
}

inline BenchContext BuildBenchContext(const std::string& dataset,
                                      BenchContextOptions options = {}) {
  BenchContext ctx;
  ctx.dataset = dataset;
  ctx.workload_name = WorkloadNameOf(dataset);
  const double scale = options.scale > 0.0 ? options.scale : ScaleFactor();

  auto db = workload::GenerateDataset(dataset, scale, BenchSeed());
  BC_CHECK_OK(db.status());
  ctx.db = std::move(db).value();

  workload::WorkloadOptions wl_options;
  wl_options.num_count_queries = options.count_queries;
  wl_options.num_agg_queries = options.agg_queries;
  wl_options.seed = BenchSeed() ^ 0x77;
  auto wl = workload::BuildWorkload(*ctx.db, ctx.workload_name, wl_options);
  BC_CHECK_OK(wl.status());
  ctx.workload = std::move(wl).value();

  if (options.build_bytecard) {
    std::vector<minihouse::BoundQuery> hint;
    for (const auto& wq : ctx.workload.queries) hint.push_back(wq.query);
    ByteCard::Options bc_options;
    bc_options.seed = BenchSeed();
    bc_options.pretrained_rbx_path = SharedRbxArtifact().path;
    auto bc = ByteCard::Bootstrap(*ctx.db, hint,
                                  BenchModelDir() + "/" + dataset, bc_options);
    BC_CHECK_OK(bc.status());
    ctx.bytecard = std::move(bc).value();
  }
  if (options.build_traditional) {
    ctx.sketch_statistics = stats::SketchStatistics::Build(*ctx.db, 64);
    ctx.sketch = std::make_unique<stats::SketchEstimator>(
        ctx.sketch_statistics.get());
    ctx.sample = std::make_unique<stats::SampleEstimator>(
        *ctx.db, 0.02, 50000, BenchSeed() ^ 0x31);
  }
  return ctx;
}

// Accumulated estimation-path counters surfaced from ExecStats: how often
// the planner consulted the estimator, how much the per-query memo saved,
// how many estimates fell back to the traditional path, and which snapshot
// version served the last query. One profile per estimator per bench.
struct EstimationProfile {
  int64_t queries = 0;
  int64_t estimator_calls = 0;
  int64_t memo_hits = 0;
  int64_t fallback_estimates = 0;
  int64_t feedback_hits = 0;      // estimates served by the feedback cache
  int64_t feedback_records = 0;   // estimate-vs-actual observations emitted
  // Per-table probes (BN marginals, FactorJoin bucket vectors) served from
  // the per-query InferenceSession memo instead of recomputed.
  int64_t probe_cache_hits = 0;
  int64_t planning_nanos = 0;     // summed optimizer wall time
  uint64_t snapshot_version = 0;  // last observed
  int threads_used = 1;           // max dop any operator ran at
  int64_t parallel_tasks = 0;     // summed morsels/partitions through the pool

  void Add(const minihouse::ExecStats& stats) {
    ++queries;
    estimator_calls += stats.estimator_calls;
    memo_hits += stats.memo_hits;
    fallback_estimates += stats.fallback_estimates;
    feedback_hits += stats.feedback_hits;
    feedback_records += stats.feedback_records;
    probe_cache_hits += stats.probe_cache_hits;
    planning_nanos += stats.planning_nanos;
    snapshot_version = stats.snapshot_version;
    threads_used = std::max(threads_used, stats.threads_used);
    parallel_tasks += stats.parallel_tasks;
  }
};

// --- Latency percentiles ------------------------------------------------------
// The tail summary every latency bench reports. Delegates to
// workload::Quantile so latency percentiles and the q-error violin summaries
// interpolate identically (the linear method of R / NumPy — a quantile
// falling between observations blends the neighbors).
struct LatencyPercentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

inline LatencyPercentiles ComputePercentiles(const std::vector<double>& values) {
  LatencyPercentiles p;
  p.p50 = workload::Quantile(values, 0.50);
  p.p90 = workload::Quantile(values, 0.90);
  p.p99 = workload::Quantile(values, 0.99);
  return p;
}

// --- Result identity ----------------------------------------------------------
// One aggregate result as (group key, aggregate values) rows sorted by key:
// the form in which runs are compared. The order groups are first seen
// depends on plan shape (SIP flips a join's build side, parallel aggregation
// merges partitions), so comparisons are by key, not by output position.
using GroupRow = std::pair<std::vector<int64_t>, std::vector<double>>;

inline std::vector<GroupRow> SortedGroups(
    const minihouse::AggregateResult& agg) {
  std::vector<GroupRow> rows(agg.num_groups);
  for (int64_t g = 0; g < agg.num_groups; ++g) {
    for (const auto& key_col : agg.group_keys) {
      rows[g].first.push_back(key_col[g]);
    }
    for (const auto& val_col : agg.agg_values) {
      rows[g].second.push_back(val_col[g]);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Group keys must match exactly; double-typed aggregate values may differ
// from the reference run only by floating-point summation order (parallel
// aggregation folds partials in partition order). Aborts on a mismatch,
// naming the run by `where`.
inline void CheckSameGroups(const std::vector<GroupRow>& ref,
                            const std::vector<GroupRow>& got,
                            const std::string& where) {
  BC_CHECK(ref.size() == got.size())
      << where << ": group count " << got.size() << " != " << ref.size();
  for (size_t g = 0; g < ref.size(); ++g) {
    BC_CHECK(ref[g].first == got[g].first) << where << ": group keys diverge";
    for (size_t a = 0; a < ref[g].second.size(); ++a) {
      const double want = ref[g].second[a];
      const double have = got[g].second[a];
      const double tol =
          1e-9 * std::max({1.0, std::fabs(want), std::fabs(have)});
      BC_CHECK(std::fabs(want - have) <= tol)
          << where << ": agg value " << have << " != " << want;
    }
  }
}

// Markdown-ish row printer so bench output diff-compares cleanly.
inline void PrintRow(const std::vector<std::string>& cells) {
  std::printf("|");
  for (const std::string& cell : cells) std::printf(" %s |", cell.c_str());
  std::printf("\n");
}

// Prints one estimation-profile row per method, in the given order.
inline void PrintEstimationProfiles(
    const std::vector<std::pair<std::string, EstimationProfile>>& profiles) {
  PrintRow({"method", "est calls", "memo hits", "fallbacks", "probe hits",
            "snapshot", "max dop", "tasks"});
  for (const auto& [name, p] : profiles) {
    PrintRow({name, std::to_string(p.estimator_calls),
              std::to_string(p.memo_hits),
              std::to_string(p.fallback_estimates),
              std::to_string(p.probe_cache_hits),
              "v" + std::to_string(p.snapshot_version),
              std::to_string(p.threads_used),
              std::to_string(p.parallel_tasks)});
  }
}

inline std::string Fmt(double v) {
  char buffer[64];
  if (v >= 10000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2e", v);
  } else if (v >= 100.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", v);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f", v);
  }
  return buffer;
}

}  // namespace bytecard::bench

#endif  // BYTECARD_BENCH_BENCH_UTIL_H_
