// Ablation (paper §3.1.2, sideways information passing): read I/O and probe
// volume with SIP on vs off, across the executable slice of the STATS-Hybrid
// workload. SIP's Bloom filter prunes non-joining probe rows (and whole
// blocks) before materialization.

#include <cstdio>

#include "bench_util.h"
#include "minihouse/executor.h"
#include "workload/truth.h"

namespace bytecard::bench {
namespace {

void Run() {
  std::printf("Ablation: sideways information passing (STATS-Hybrid)\n");
  std::printf("scale=%.3f seed=%llu\n\n", ScaleFactor(),
              static_cast<unsigned long long>(BenchSeed()));

  BenchContext ctx = BuildBenchContext("stats");

  minihouse::OptimizerOptions sip_on;
  minihouse::OptimizerOptions sip_off;
  sip_off.features.sip = false;
  const minihouse::Optimizer with_sip(sip_on);
  const minihouse::Optimizer without_sip(sip_off);

  int64_t io_with = 0;
  int64_t io_without = 0;
  int64_t rows_with = 0;
  int64_t rows_without = 0;
  int executed = 0;
  for (const auto& wq : ctx.workload.queries) {
    if (wq.query.num_tables() < 2) continue;
    if (!wq.aggregate) {
      auto truth = workload::TrueCount(wq.query);
      BC_CHECK_OK(truth.status());
      if (truth.value() > 100000) continue;
    }
    auto a = minihouse::PlanAndExecute(wq.query, with_sip,
                                       ctx.bytecard.get());
    auto b = minihouse::PlanAndExecute(wq.query, without_sip,
                                       ctx.bytecard.get());
    BC_CHECK_OK(a.status());
    BC_CHECK_OK(b.status());
    BC_CHECK(a.value().agg.num_groups == b.value().agg.num_groups);
    io_with += a.value().stats.io.blocks_read;
    io_without += b.value().stats.io.blocks_read;
    rows_with += a.value().stats.probe_rows_materialized;
    rows_without += b.value().stats.probe_rows_materialized;
    ++executed;
  }

  PrintRow({"configuration", "blocks read", "probe rows materialized",
            "queries"});
  PrintRow({"SIP off", std::to_string(io_without),
            std::to_string(rows_without), std::to_string(executed)});
  PrintRow({"SIP on", std::to_string(io_with), std::to_string(rows_with),
            std::to_string(executed)});
}

}  // namespace
}  // namespace bytecard::bench

int main() {
  bytecard::bench::Run();
  return 0;
}
