// Reproduces the paper's accuracy evidence from one context per dataset:
// Table 1 (traditional COUNT and NDV q-errors), Table 2 (ByteCard's learned
// COUNT and NDV q-errors), Figure 7 (each estimator's COUNT q-error
// distribution) and Table 5 (workload statistics). All estimators answer the
// same COUNT queries and NDV probes, each checked against one shared truth.
//
// Writes BENCH_accuracy.json: the P50/P90/P99 q-error of COUNT for sketch,
// sample and bytecard and of NDV for hll and rbx, per workload. q-errors
// repeat exactly for a seed, so ci/check.sh gates these cells against the
// committed file.

#include <cstdio>
#include <map>
#include <numeric>

#include "bench_util.h"
#include "workload/qerror.h"
#include "workload/query_gen.h"
#include "workload/truth.h"
#include "workload/workload.h"

namespace bytecard::bench {
namespace {

struct WorkloadAccuracy {
  std::string name;
  int count_queries = 0;
  int ndv_probes = 0;
  // Q-error summaries by estimator: COUNT by sketch, sample and bytecard;
  // NDV by hll (the sketch store's precomputed, predicate-blind HyperLogLog)
  // and rbx (ByteCard's learned estimator).
  std::map<std::string, workload::QuantileSummary> count;
  std::map<std::string, workload::QuantileSummary> ndv;
  workload::WorkloadStats stats;
};

WorkloadAccuracy EvaluateDataset(const std::string& dataset) {
  BenchContext ctx = BuildBenchContext(dataset);
  WorkloadAccuracy accuracy;
  accuracy.name = ctx.workload_name;

  const std::vector<minihouse::CardinalityEstimator*> estimators = {
      ctx.bytecard.get(), ctx.sketch.get(), ctx.sample.get()};
  std::map<std::string, std::vector<double>> count_qerrors;
  // Every query's truth, counted once: the COUNT queries' q-errors and
  // Table 5's cardinality range both read it.
  std::vector<int64_t> truths;
  truths.reserve(ctx.workload.queries.size());
  for (const auto& wq : ctx.workload.queries) {
    auto truth = workload::TrueCount(wq.query);
    BC_CHECK_OK(truth.status());
    truths.push_back(truth.value());
    if (wq.aggregate) continue;
    const double t = static_cast<double>(truth.value());
    std::vector<int> all(wq.query.num_tables());
    std::iota(all.begin(), all.end(), 0);
    for (minihouse::CardinalityEstimator* estimator : estimators) {
      count_qerrors[estimator->Name()].push_back(workload::QError(
          estimator->EstimateJoinCardinality(wq.query, all), t));
    }
    ++accuracy.count_queries;
  }

  std::map<std::string, std::vector<double>> ndv_qerrors;
  Rng rng(BenchSeed() ^ 0x11);
  workload::QueryGenOptions gen_options;
  for (const std::string& table_name : ctx.db->TableNames()) {
    const minihouse::Table* table = ctx.db->FindTable(table_name).value();
    for (int probe = 0; probe < 12; ++probe) {
      auto ndv_probe = workload::GenerateNdvProbe(*ctx.db, table_name,
                                                  gen_options, &rng);
      if (!ndv_probe.ok()) continue;
      const workload::NdvProbe& p = ndv_probe.value();
      auto truth = workload::TrueColumnNdv(*table, p.column, p.filters);
      BC_CHECK_OK(truth.status());
      if (truth.value() == 0) continue;
      const double t = static_cast<double>(truth.value());
      ndv_qerrors["hll"].push_back(workload::QError(
          ctx.sketch_statistics->ColumnNdv(table_name, p.column), t));
      ndv_qerrors["rbx"].push_back(workload::QError(
          ctx.bytecard->EstimateColumnNdv(*table, p.column, p.filters), t));
      ++accuracy.ndv_probes;
    }
  }

  for (const auto& [method, qerrors] : count_qerrors) {
    accuracy.count[method] = workload::Summarize(qerrors);
  }
  for (const auto& [method, qerrors] : ndv_qerrors) {
    accuracy.ndv[method] = workload::Summarize(qerrors);
  }
  auto stats = workload::ComputeWorkloadStats(ctx.workload, truths);
  BC_CHECK_OK(stats.status());
  accuracy.stats = stats.value();
  return accuracy;
}

void PrintScaleAndSeed() {
  std::printf("scale=%.3f seed=%llu\n", ScaleFactor(),
              static_cast<unsigned long long>(BenchSeed()));
}

// Tables 1 and 2: COUNT and NDV q-error quantiles of one method pair.
void PrintQErrorTable(const char* title, const std::string& count_method,
                      const std::string& ndv_method,
                      const std::vector<WorkloadAccuracy>& workloads) {
  std::printf("%s (Q-Error quantiles)\n", title);
  PrintScaleAndSeed();
  std::printf("\n");
  PrintRow({"CardEst", "IMDB 50%", "IMDB 90%", "IMDB 99%", "STATS 50%",
            "STATS 90%", "STATS 99%", "AEOLUS 50%", "AEOLUS 90%",
            "AEOLUS 99%"});
  std::vector<std::string> count_row = {"COUNT Est."};
  std::vector<std::string> ndv_row = {"NDV Est."};
  for (const WorkloadAccuracy& w : workloads) {
    const workload::QuantileSummary& c = w.count.at(count_method);
    const workload::QuantileSummary& n = w.ndv.at(ndv_method);
    count_row.insert(count_row.end(), {Fmt(c.p50), Fmt(c.p90), Fmt(c.p99)});
    ndv_row.insert(ndv_row.end(), {Fmt(n.p50), Fmt(n.p90), Fmt(n.p99)});
  }
  PrintRow(count_row);
  PrintRow(ndv_row);
}

// Figure 7: the summary statistics a violin communicates, per method.
void PrintFigure7(const std::vector<WorkloadAccuracy>& workloads) {
  std::printf("Figure 7: Algorithm Performance, Q-Error violin statistics\n");
  PrintScaleAndSeed();
  for (const WorkloadAccuracy& w : workloads) {
    std::printf("\nFigure 7 (%s): Q-Error distribution\n", w.name.c_str());
    PrintRow({"method", "min", "P25", "median", "P75", "P90", "P99", "max"});
    for (const char* method : {"sketch", "sample", "bytecard"}) {
      const workload::QuantileSummary& s = w.count.at(method);
      PrintRow({method, Fmt(s.min), Fmt(s.p25), Fmt(s.p50), Fmt(s.p75),
                Fmt(s.p90), Fmt(s.p99), Fmt(s.max)});
    }
  }
}

void PrintTable5(const std::vector<WorkloadAccuracy>& workloads) {
  std::printf("Table 5: Workload Statistics\n");
  PrintScaleAndSeed();
  std::printf("\n");
  std::vector<std::string> header = {""};
  for (const WorkloadAccuracy& w : workloads) header.push_back(w.name);
  PrintRow(header);
  auto row_of = [&](const char* label, auto fmt) {
    std::vector<std::string> row = {label};
    for (const WorkloadAccuracy& w : workloads) row.push_back(fmt(w.stats));
    PrintRow(row);
  };
  row_of("# of queries", [](const workload::WorkloadStats& s) {
    return std::to_string(s.num_queries);
  });
  row_of("# of join templates", [](const workload::WorkloadStats& s) {
    return std::to_string(s.num_join_templates);
  });
  row_of("# of joined tables", [](const workload::WorkloadStats& s) {
    return std::to_string(s.min_joined_tables) + "-" +
           std::to_string(s.max_joined_tables);
  });
  row_of("# of group-by keys", [](const workload::WorkloadStats& s) {
    return std::to_string(s.min_group_keys) + "-" +
           std::to_string(s.max_group_keys);
  });
  row_of("range of true cardinality", [](const workload::WorkloadStats& s) {
    return Fmt(s.min_true_cardinality) + " - " +
           Fmt(s.max_true_cardinality);
  });
  row_of("# queries at max joined-table", [](const workload::WorkloadStats& s) {
    return std::to_string(s.queries_at_max_tables);
  });
  row_of("# queries at max group-by key",
         [](const workload::WorkloadStats& s) {
           return std::to_string(s.queries_at_max_group_keys);
         });
}

void WriteQuantiles(FILE* f, const char* target,
                    const std::map<std::string, workload::QuantileSummary>&
                        by_method) {
  std::fprintf(f, "\"%s\": {", target);
  const char* separator = "";
  for (const auto& [method, s] : by_method) {
    std::fprintf(f, "%s\"%s\": {\"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g}",
                 separator, method.c_str(), s.p50, s.p90, s.p99);
    separator = ", ";
  }
  std::fprintf(f, "}");
}

void WriteJson(const std::vector<WorkloadAccuracy>& workloads) {
  const char* path = "BENCH_accuracy.json";
  FILE* f = std::fopen(path, "w");
  BC_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"figure\": \"accuracy\",\n");
  std::fprintf(f, "  \"scale\": %.4f,\n", ScaleFactor());
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(BenchSeed()));
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadAccuracy& w = workloads[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"count_queries\": %d, "
                 "\"ndv_probes\": %d,\n      ",
                 w.name.c_str(), w.count_queries, w.ndv_probes);
    WriteQuantiles(f, "count", w.count);
    std::fprintf(f, ",\n      ");
    WriteQuantiles(f, "ndv", w.ndv);
    std::fprintf(f, "}%s\n", i + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void Run() {
  std::vector<WorkloadAccuracy> workloads;
  for (const char* dataset : {"imdb", "stats", "aeolus"}) {
    workloads.push_back(EvaluateDataset(dataset));
  }
  PrintQErrorTable("Table 1: Estimation Errors of Traditional CardEst Methods",
                   "sketch", "hll", workloads);
  std::printf("\n");
  PrintQErrorTable(
      "Table 2: Estimation Errors of Learned CardEst Methods in ByteCard",
      "bytecard", "rbx", workloads);
  std::printf("\n");
  PrintFigure7(workloads);
  std::printf("\n");
  PrintTable5(workloads);
  WriteJson(workloads);
}

}  // namespace
}  // namespace bytecard::bench

int main() {
  bytecard::bench::Run();
  return 0;
}
