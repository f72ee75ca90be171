// Concurrent serving bench: N client threads drive a Zipf-skewed mix of the
// STATS-Hybrid executable queries through the ByteCard query scheduler
// (Submit/Wait), sweeping 1/8/32/128 streams and reporting aggregate QPS and
// per-query latency percentiles to BENCH_concurrent_serving.json.
//
// The storage model is latency-bound (per-block waits, no CPU burn), the
// regime where concurrent streams actually overlap: stream counts beyond the
// core count still scale because every in-flight query spends most of its
// life waiting on simulated block latency, not on a core. Every concurrently
// produced result is asserted group-identical to a serial reference run —
// admission control changes *when* a query runs, never what it returns.
//
// Usage: bench_concurrent_serving [--smoke]
//   --smoke (or BYTECARD_SMOKE=1): tiny scale, 1/8 streams only — the CI
//   gate that the scheduler path stays alive and serial-identical.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "minihouse/executor.h"
#include "minihouse/scheduler.h"
#include "workload/qerror.h"
#include "workload/truth.h"

namespace bytecard::bench {
namespace {

// Same latency-bound storage model as the Figure 5 thread sweep: 200us per
// block, overlappable across concurrent drainers and concurrent queries.
constexpr int64_t kBlockLatencyNanos = 200 * 1000;

// Zipf exponent for the query mix: a few hot queries dominate (the serving
// regime admission control exists for — point lookups racing big joins).
constexpr double kZipfExponent = 1.1;

struct ServingPoint {
  int streams = 0;
  int queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  LatencyPercentiles latency;    // per-query Submit->Wait wall time
  double mean_queue_ms = 0.0;    // time between enqueue and execution start
  int64_t fast_admitted = 0;     // admission decisions at this point
  int64_t heavy_admitted = 0;
};

// Runs `total_queries` Zipf-picked queries across `streams` client threads
// through the facade's scheduler, asserting every result against the serial
// reference.
ServingPoint RunStreams(ByteCard* bc, const workload::Workload& workload,
                        const std::vector<int>& executable,
                        const std::vector<std::vector<GroupRow>>& ref_groups,
                        int streams, int total_queries) {
  // Zipf weights over the executable slice by rank.
  std::vector<double> weights(executable.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }

  const minihouse::SchedulerCounters before = bc->scheduler()->counters();
  std::vector<std::vector<double>> latencies(streams);
  std::vector<std::vector<double>> queue_ms(streams);
  std::vector<std::thread> clients;
  clients.reserve(streams);
  Stopwatch wall;
  for (int s = 0; s < streams; ++s) {
    // Fixed total work split across streams, so QPS compares across points.
    const int share = total_queries / streams +
                      (s < total_queries % streams ? 1 : 0);
    clients.emplace_back([&, s, share] {
      std::mt19937_64 rng(BenchSeed() ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
      std::discrete_distribution<int> zipf(weights.begin(), weights.end());
      for (int i = 0; i < share; ++i) {
        const int pick = zipf(rng);
        const auto& wq = workload.queries[executable[pick]];
        Stopwatch timer;
        auto ticket = bc->Submit(wq.query);
        auto result = bc->Wait(ticket);
        latencies[s].push_back(timer.ElapsedMillis());
        BC_CHECK_OK(result.status());
        queue_ms[s].push_back(result.value().stats.queue_ms);
        CheckSameGroups(ref_groups[pick], SortedGroups(result.value().agg),
                        std::to_string(streams) + " streams, query " +
                            std::to_string(executable[pick]));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  ServingPoint point;
  point.streams = streams;
  point.queries = total_queries;
  point.wall_ms = wall.ElapsedMillis();
  point.qps = total_queries / (point.wall_ms / 1000.0);
  std::vector<double> all_latencies;
  double queue_sum = 0.0;
  for (int s = 0; s < streams; ++s) {
    all_latencies.insert(all_latencies.end(), latencies[s].begin(),
                         latencies[s].end());
    for (double q : queue_ms[s]) queue_sum += q;
  }
  point.latency = ComputePercentiles(all_latencies);
  point.mean_queue_ms = queue_sum / total_queries;
  const minihouse::SchedulerCounters after = bc->scheduler()->counters();
  point.fast_admitted = after.fast_admitted - before.fast_admitted;
  point.heavy_admitted = after.heavy_admitted - before.heavy_admitted;
  return point;
}

int Run(bool smoke) {
  const std::string dataset = "stats";
  BenchContextOptions ctx_options;
  ctx_options.build_traditional = false;
  if (smoke) ctx_options.scale = 0.02;
  BenchContext ctx = BuildBenchContext(dataset, ctx_options);

  // The executable slice, as in Figure 5: aggregation queries plus the COUNT
  // probes whose true join output stays bounded.
  std::vector<int> executable;
  for (int qi = 0; qi < static_cast<int>(ctx.workload.queries.size()); ++qi) {
    const auto& wq = ctx.workload.queries[qi];
    if (!wq.aggregate) {
      auto truth = workload::TrueCount(wq.query);
      BC_CHECK_OK(truth.status());
      if (truth.value() > 1000000) continue;
    }
    executable.push_back(qi);
  }
  BC_CHECK(!executable.empty());

  // Latency-bound storage: per-block waits overlap across streams, CPU burn
  // off — concurrency, not per-query speed, is what this bench measures.
  ctx.db->SetStorageCostFactor(0);
  ctx.db->SetStorageBlockLatencyNanos(kBlockLatencyNanos);

  minihouse::OptimizerOptions opt;
  opt.max_dop = common::kDefaultMaxDop;

  // Serial reference pass: one plan + execution per query on one thread,
  // recording group-sorted results (the identity oracle) and each query's
  // estimated peak intermediate (the admission survey).
  minihouse::Optimizer optimizer(opt);
  std::vector<std::vector<GroupRow>> ref_groups(executable.size());
  std::vector<double> peak_rows(executable.size());
  for (size_t i = 0; i < executable.size(); ++i) {
    const auto& wq = ctx.workload.queries[executable[i]];
    minihouse::QueryContext qctx(ctx.bytecard.get());
    const minihouse::PhysicalPlan plan = optimizer.Plan(wq.query, &qctx);
    peak_rows[i] = minihouse::QueryScheduler::EstimatedPeakRows(wq.query, plan);
    auto result = minihouse::ExecuteQuery(wq.query, plan, &qctx);
    BC_CHECK_OK(result.status());
    ref_groups[i] = SortedGroups(result.value().agg);
  }

  // Admission threshold from the workload itself: the heaviest ~20% of the
  // executable slice (by estimated peak intermediate) goes to the heavy
  // lane; under the Zipf mix most traffic stays fast.
  minihouse::SchedulerOptions sched;
  sched.optimizer = opt;
  sched.heavy_rows_threshold =
      std::max(1.0, workload::Quantile(peak_rows, 0.8));
  ctx.bytecard->StartServing(sched);

  const std::vector<int> stream_counts =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 8, 32, 128};
  const int total_queries = smoke ? 32 : 256;

  std::printf("Concurrent serving (%s): %zu executable queries, "
              "heavy threshold %.0f rows, %d queries per point\n",
              ctx.workload_name.c_str(), executable.size(),
              sched.heavy_rows_threshold, total_queries);
  PrintRow({"streams", "QPS", "P50 ms", "P99 ms", "queue ms", "fast", "heavy",
            "scaling"});
  std::vector<ServingPoint> points;
  for (int streams : stream_counts) {
    ServingPoint point = RunStreams(ctx.bytecard.get(), ctx.workload,
                                    executable, ref_groups, streams,
                                    total_queries);
    const double scaling = points.empty() ? 1.0 : point.qps / points[0].qps;
    PrintRow({std::to_string(point.streams), Fmt(point.qps),
              Fmt(point.latency.p50), Fmt(point.latency.p99),
              Fmt(point.mean_queue_ms), std::to_string(point.fast_admitted),
              std::to_string(point.heavy_admitted), Fmt(scaling) + "x"});
    points.push_back(point);
  }
  ctx.bytecard->StopServing();

  // The tentpole claim: concurrent streams must actually overlap. 1 -> 8
  // streams has to better than double aggregate QPS in the latency-bound
  // regime (smoke keeps the assert too — it is the cheapest end-to-end
  // signal that scheduling still overlaps waits).
  BC_CHECK(points.size() >= 2);
  const double scaling_1_to_8 = points[1].qps / points[0].qps;
  BC_CHECK(scaling_1_to_8 > 2.0)
      << "1->8 stream QPS scaling " << scaling_1_to_8 << " <= 2.0";

  FILE* f = std::fopen("BENCH_concurrent_serving.json", "w");
  BC_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  WriteJsonProvenance(f);
  std::fprintf(f, "  \"bench\": \"concurrent_serving\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n", ctx.workload_name.c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"block_latency_us\": %lld,\n",
               static_cast<long long>(kBlockLatencyNanos / 1000));
  std::fprintf(f, "  \"zipf_exponent\": %.2f,\n", kZipfExponent);
  std::fprintf(f, "  \"heavy_rows_threshold\": %.1f,\n",
               sched.heavy_rows_threshold);
  std::fprintf(f, "  \"queries_per_point\": %d,\n", total_queries);
  std::fprintf(f, "  \"qps_scaling_1_to_8\": %.3f,\n", scaling_1_to_8);
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ServingPoint& p = points[i];
    std::fprintf(f,
                 "    {\"streams\": %d, \"queries\": %d, \"qps\": %.3f,"
                 " \"p50_ms\": %.3f, \"p90_ms\": %.3f, \"p99_ms\": %.3f,"
                 " \"mean_queue_ms\": %.3f, \"fast_admitted\": %lld,"
                 " \"heavy_admitted\": %lld}%s\n",
                 p.streams, p.queries, p.qps, p.latency.p50, p.latency.p90,
                 p.latency.p99, p.mean_queue_ms,
                 static_cast<long long>(p.fast_admitted),
                 static_cast<long long>(p.heavy_admitted),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_concurrent_serving.json\n");
  return 0;
}

}  // namespace
}  // namespace bytecard::bench

int main(int argc, char** argv) {
  bool smoke = std::getenv("BYTECARD_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return bytecard::bench::Run(smoke);
}
