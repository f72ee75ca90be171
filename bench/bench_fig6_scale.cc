// Scale step past the Figure 6 ceiling (DESIGN.md §12). The fig6a sweep tops
// out at scale 0.4; encoded block storage (RLE / frame-of-reference + zone
// maps + the bounded decode cache) is what lets the same machine hold and
// scan 10x that. This bench demonstrates the step with two legs:
//
//  1. Identity: the workload over encoded, zone-map-pruned storage must
//     return the same groups at every dop {1,2,4,8} x SIP {on,off}, and
//     every COUNT(*) probe must equal the exact count (workload::TrueCount)
//     — compression and pruning are invisible to results. The sweep's
//     clustered probes run in every configuration too, at a scale where
//     they prune, and the leg fails unless some block was pruned.
//  2. Scale sweep up to >= 4.0 (10x the 0.4 ceiling): selective BETWEEN
//     scans over clustered columns, run with a deliberately small decode
//     cache, reporting blocks pruned/read, compression ratio, and resident
//     bytes staying bounded while table bytes grow linearly.
//
// Writes BENCH_fig6_scale.json. `--smoke` shrinks the scales for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "minihouse/reader.h"
#include "sql/analyzer.h"
#include "workload/truth.h"

namespace bytecard::bench {
namespace {

using minihouse::Table;

struct IdentityOutcome {
  int configs = 0;        // (dop, sip) combinations checked
  int queries = 0;        // queries compared per combination
  int count_queries = 0;  // of them, COUNT(*) probes checked exactly
  int probes = 0;         // clustered probes checked exactly per combination
  int64_t blocks_pruned = 0;
};

// Selective scans over clustered columns: COUNT(*) over `id` windows at the
// head, middle and tail of the two largest tables, each ~2% of the table.
// `id` is sequential, so zone maps carry essentially perfect block-level
// information — the access pattern the scale step depends on.
std::vector<std::string> ClusteredProbes(const minihouse::Database& db) {
  std::vector<std::string> probes;
  for (const char* table_name : {"posts", "users"}) {
    auto table_or = db.FindTable(table_name);
    if (!table_or.ok()) continue;
    const int64_t rows = table_or.value()->num_rows();
    const int64_t width = std::max<int64_t>(rows / 50, 1);
    for (const int64_t lo : {rows / 10, rows / 2, rows - width - 1}) {
      probes.push_back("SELECT COUNT(*) FROM " + std::string(table_name) +
                       " WHERE id BETWEEN " + std::to_string(lo) + " AND " +
                       std::to_string(lo + width));
    }
  }
  return probes;
}

// Runs the workload at every dop x SIP combination, and the clustered
// probes over a dataset at `probe_scale`. Every combination must return the
// first one's groups, compared in key order, every COUNT(*) probe must equal
// its exact count, and some block must be pruned; a failure aborts the
// bench.
IdentityOutcome RunIdentityLeg(double scale, double probe_scale) {
  std::printf("identity leg: scale %.2f (probes %.2f), dop {1,2,4,8} x sip "
              "{on,off}\n",
              scale, probe_scale);
  BenchContextOptions options;
  options.scale = scale;
  options.count_queries = 6;
  options.agg_queries = 6;
  options.build_bytecard = false;
  BenchContext ctx = BuildBenchContext("stats", options);
  const auto& queries = ctx.workload.queries;

  // Exact COUNT(*) per probe; -1 for aggregation queries.
  std::vector<int64_t> truth;
  IdentityOutcome outcome;
  outcome.queries = static_cast<int>(queries.size());
  for (const auto& wq : queries) {
    if (wq.aggregate) {
      truth.push_back(-1);
      continue;
    }
    auto count = workload::TrueCount(wq.query);
    BC_CHECK_OK(count.status());
    truth.push_back(count.value());
    ++outcome.count_queries;
  }

  auto probe_db = workload::GenerateDataset("stats", probe_scale, BenchSeed());
  BC_CHECK_OK(probe_db.status());
  auto probe_statistics = stats::SketchStatistics::Build(*probe_db.value(), 16);
  stats::SketchEstimator probe_estimator(probe_statistics.get());
  std::vector<minihouse::BoundQuery> probes;
  std::vector<int64_t> probe_truth;
  for (const std::string& sql : ClusteredProbes(*probe_db.value())) {
    auto query = sql::AnalyzeSql(sql, *probe_db.value());
    BC_CHECK_OK(query.status());
    auto count = workload::TrueCount(query.value());
    BC_CHECK_OK(count.status());
    probes.push_back(std::move(query).value());
    probe_truth.push_back(count.value());
  }
  outcome.probes = static_cast<int>(probes.size());

  std::vector<std::vector<GroupRow>> reference;  // [query], first config
  for (const int dop : {1, 2, 4, 8}) {
    for (const bool sip : {true, false}) {
      minihouse::OptimizerOptions opt;
      opt.features.sip = sip;
      opt.max_dop = dop;
      minihouse::Optimizer optimizer(opt);
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string where = "dop " + std::to_string(dop) + " sip " +
                                  std::to_string(sip) + " query " +
                                  std::to_string(q);
        auto result = minihouse::PlanAndExecute(queries[q].query, optimizer,
                                                ctx.sketch.get());
        BC_CHECK_OK(result.status());
        outcome.blocks_pruned += result.value().stats.io.blocks_pruned;
        if (truth[q] >= 0) {
          BC_CHECK(result.value().ScalarCount() == truth[q])
              << where << ": COUNT(*) " << result.value().ScalarCount()
              << " != exact " << truth[q];
        }
        std::vector<GroupRow> groups = SortedGroups(result.value().agg);
        if (outcome.configs == 0) {
          reference.push_back(std::move(groups));
        } else {
          CheckSameGroups(reference[q], groups, where);
        }
      }
      for (size_t p = 0; p < probes.size(); ++p) {
        auto result =
            minihouse::PlanAndExecute(probes[p], optimizer, &probe_estimator);
        BC_CHECK_OK(result.status());
        outcome.blocks_pruned += result.value().stats.io.blocks_pruned;
        BC_CHECK(result.value().ScalarCount() == probe_truth[p])
            << "dop " << dop << " sip " << sip << " probe " << p
            << ": COUNT(*) " << result.value().ScalarCount() << " != exact "
            << probe_truth[p];
      }
      ++outcome.configs;
    }
  }
  std::printf("  %d configs x %d queries: same groups, %d COUNT(*) probes "
              "and %d clustered probes exact (blocks pruned: %lld)\n",
              outcome.configs, outcome.queries, outcome.count_queries,
              outcome.probes, static_cast<long long>(outcome.blocks_pruned));
  BC_CHECK(outcome.blocks_pruned > 0)
      << "the identity leg must prune blocks to check pruning identity";
  return outcome;
}

struct ScalePoint {
  double scale = 0.0;
  int64_t rows = 0;
  int64_t encoded_bytes = 0;
  int64_t raw_bytes = 0;        // what plain vectors would occupy
  double compression = 0.0;     // raw / encoded
  int64_t blocks_total = 0;
  int64_t blocks_pruned = 0;
  int64_t blocks_read = 0;
  int64_t decode_cache_hits = 0;
  int64_t decode_cache_evictions = 0;
  int64_t bytes_resident = 0;   // table bytes + decode cache, max over probes
  double scan_millis = 0.0;
};

// Selective clustered scans at one scale, under a small decode-cache budget.
ScalePoint RunScalePoint(double scale, int64_t cache_budget) {
  auto db_or = workload::GenerateDataset("stats", scale, BenchSeed());
  BC_CHECK_OK(db_or.status());
  std::unique_ptr<minihouse::Database> db = std::move(db_or).value();
  db->SetDecodeCacheBytes(cache_budget);

  ScalePoint point;
  point.scale = scale;
  for (const std::string& name : db->TableNames()) {
    const Table* table = db->FindTable(name).value();
    point.rows += table->num_rows();
    for (int c = 0; c < table->num_columns(); ++c) {
      point.blocks_total += table->column(c).num_encoded_blocks();
      point.raw_bytes += table->column(c).num_rows() * 8;
    }
  }
  point.encoded_bytes = db->EncodedBytes();
  point.compression =
      point.encoded_bytes > 0
          ? static_cast<double>(point.raw_bytes) /
                static_cast<double>(point.encoded_bytes)
          : 1.0;

  minihouse::OptimizerOptions opt;
  minihouse::Optimizer optimizer(opt);
  auto statistics = stats::SketchStatistics::Build(*db, 16);
  stats::SketchEstimator estimator(statistics.get());
  Stopwatch timer;
  for (const std::string& sql : ClusteredProbes(*db)) {
    auto query = sql::AnalyzeSql(sql, *db);
    BC_CHECK_OK(query.status());
    auto result =
        minihouse::PlanAndExecute(query.value(), optimizer, &estimator);
    BC_CHECK_OK(result.status());
    const minihouse::ExecStats& stats = result.value().stats;
    point.blocks_pruned += stats.io.blocks_pruned;
    point.blocks_read += stats.io.blocks_read;
    point.decode_cache_hits += stats.io.decode_cache_hits;
    point.decode_cache_evictions += stats.io.decode_cache_evictions;
    // Resident footprint after the probe: the scanned table's stored bytes
    // plus whatever the decode cache holds.
    const Table& scanned = *query.value().tables[0].table;
    point.bytes_resident =
        std::max(point.bytes_resident,
                 scanned.MemoryBytes() + db->decode_cache()->ResidentBytes());
  }
  point.scan_millis = timer.ElapsedSeconds() * 1e3;
  return point;
}

void Run(bool smoke) {
  std::printf("Figure 6 scale step: encoded storage past the 0.4 ceiling%s\n",
              smoke ? " (smoke)" : "");
  std::printf("seed=%llu\n\n",
              static_cast<unsigned long long>(BenchSeed()));

  // Ceiling of the fig6a sweep is 0.4; the deliverable point is >= 10x that.
  // Smoke still starts at 0.4 — below that the tables fit in one block and
  // there is nothing to prune — but skips the expensive upper points.
  const std::vector<double> scales =
      smoke ? std::vector<double>{0.4, 0.8}
            : std::vector<double>{0.4, 1.0, 2.0, 4.0};
  const double identity_scale = smoke ? 0.05 : 0.2;
  // Small on purpose: bounded resident bytes must come from the cache
  // discipline, not from the cache swallowing the working set.
  const int64_t cache_budget = 4 << 20;

  // The clustered probes run at the sweep's first scale, where they prune.
  const IdentityOutcome identity =
      RunIdentityLeg(identity_scale, scales.front());

  std::vector<ScalePoint> points;
  PrintRow({"scale", "rows", "enc MB", "ratio", "pruned/total", "read",
            "resident MB", "ms"});
  for (const double scale : scales) {
    ScalePoint p = RunScalePoint(scale, cache_budget);
    PrintRow({Fmt(scale), std::to_string(p.rows),
              Fmt(static_cast<double>(p.encoded_bytes) / 1e6),
              Fmt(p.compression),
              std::to_string(p.blocks_pruned) + "/" +
                  std::to_string(p.blocks_total),
              std::to_string(p.blocks_read),
              Fmt(static_cast<double>(p.bytes_resident) / 1e6),
              Fmt(p.scan_millis)});
    BC_CHECK(p.blocks_pruned > 0)
        << "selective scans must prune blocks at scale " << scale;
    points.push_back(p);
  }

  FILE* f = std::fopen("BENCH_fig6_scale.json", "w");
  BC_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"fig6_ceiling_scale\": 0.4,\n");
  std::fprintf(f, "  \"max_scale\": %.2f,\n", scales.back());
  std::fprintf(f, "  \"scale_step_vs_ceiling\": %.1f,\n",
               scales.back() / 0.4);
  std::fprintf(f, "  \"decode_cache_budget_bytes\": %lld,\n",
               static_cast<long long>(cache_budget));
  std::fprintf(f,
               "  \"identity\": {\"scale\": %.2f, \"configs\": %d, "
               "\"queries\": %d, \"count_queries_exact\": %d, "
               "\"probe_scale\": %.2f, \"probes_exact\": %d, "
               "\"blocks_pruned\": %lld},\n",
               identity_scale, identity.configs, identity.queries,
               identity.count_queries, scales.front(), identity.probes,
               static_cast<long long>(identity.blocks_pruned));
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(
        f,
        "    {\"scale\": %.2f, \"rows\": %lld, \"encoded_bytes\": %lld, "
        "\"raw_bytes\": %lld, \"compression\": %.3f, "
        "\"blocks_total\": %lld, \"blocks_pruned\": %lld, "
        "\"blocks_read\": %lld, \"decode_cache_hits\": %lld, "
        "\"decode_cache_evictions\": %lld, \"bytes_resident\": %lld, "
        "\"scan_millis\": %.3f}%s\n",
        p.scale, static_cast<long long>(p.rows),
        static_cast<long long>(p.encoded_bytes),
        static_cast<long long>(p.raw_bytes), p.compression,
        static_cast<long long>(p.blocks_total),
        static_cast<long long>(p.blocks_pruned),
        static_cast<long long>(p.blocks_read),
        static_cast<long long>(p.decode_cache_hits),
        static_cast<long long>(p.decode_cache_evictions),
        static_cast<long long>(p.bytes_resident), p.scan_millis,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_fig6_scale.json\n");
}

}  // namespace
}  // namespace bytecard::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bytecard::bench::Run(smoke);
  return 0;
}
