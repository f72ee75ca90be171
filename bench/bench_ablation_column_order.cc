// Ablation (paper §5.1.1): multi-stage reader column-order selection.
// Compares read I/O under (a) ByteCard's correlation-aware greedy order,
// (b) a naive per-column-selectivity order from the sketch estimator, and
// (c) the worst (reversed-greedy) order, on filtered AEOLUS fact scans.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "minihouse/reader.h"
#include "common/rng.h"

namespace bytecard::bench {
namespace {

void Run() {
  std::printf(
      "Ablation: multi-stage column-order selection (AEOLUS ad_events)\n");
  std::printf("scale=%.3f seed=%llu\n\n", ScaleFactor(),
              static_cast<unsigned long long>(BenchSeed()));

  // Column ordering saves I/O through block skipping, so run at a scale
  // where each column spans many storage blocks.
  BenchContextOptions ctx_options;
  ctx_options.scale = ScaleFactor() * 10.0;
  BenchContext ctx = BuildBenchContext("aeolus", ctx_options);
  const minihouse::Table* events = ctx.db->FindTable("ad_events").value();

  minihouse::Optimizer optimizer;
  Rng rng(BenchSeed() ^ 0xab);

  int64_t learned_io = 0;
  int64_t naive_io = 0;
  int64_t worst_io = 0;
  int scans = 0;

  // The paper's §5.1.1 structure: two strongly correlated filters (platform
  // determines content_type) plus one independent filter (event_date).
  // Individually the correlated pair looks most selective, but once one of
  // them has run the other eliminates nothing; the correlation-aware order
  // interleaves the independent filter earlier.
  const int platform_col = events->FindColumnIndex("platform");
  const int content_col = events->FindColumnIndex("content_type");
  const int date_col = events->FindColumnIndex("event_date");

  for (int trial = 0; trial < 40; ++trial) {
    minihouse::Conjunction filters;
    {
      const int64_t platform = rng.UniformInt(0, 4);
      minihouse::ColumnPredicate p1;
      p1.column = platform_col;
      p1.column_name = "platform";
      p1.op = minihouse::CompareOp::kEq;
      p1.operand = platform;
      minihouse::ColumnPredicate p2;
      p2.column = content_col;
      p2.column_name = "content_type";
      p2.op = minihouse::CompareOp::kIn;
      p2.in_list = {platform * 2, platform * 2 + 1};  // implied by platform
      const int64_t lo = rng.UniformInt(0, 250);
      minihouse::ColumnPredicate p3;
      p3.column = date_col;
      p3.column_name = "event_date";
      p3.op = minihouse::CompareOp::kBetween;
      p3.operand = lo;
      p3.operand2 = lo + rng.UniformInt(80, 140);
      filters = {p1, p2, p3};
    }

    // ByteCard's order, via the optimizer's scan planning.
    minihouse::BoundQuery query;
    minihouse::BoundTableRef ref;
    ref.table = events;
    ref.alias = "ad_events";
    ref.filters = filters;
    query.tables.push_back(ref);
    const minihouse::PhysicalPlan learned_plan =
        optimizer.Plan(query, ctx.bytecard.get());
    if (learned_plan.scans[0].reader != minihouse::ReaderKind::kMultiStage) {
      continue;  // non-selective conjunction; order is moot
    }
    const minihouse::PhysicalPlan naive_plan =
        optimizer.Plan(query, ctx.sketch.get());

    // Unpruned I/O: the ablation measures what filter order alone saves.
    minihouse::ScanOptions learned;
    learned.reader = minihouse::ReaderKind::kMultiStage;
    learned.filter_order = learned_plan.scans[0].filter_order;
    learned.features.prune_blocks = false;

    minihouse::ScanOptions naive = learned;
    naive.filter_order = naive_plan.scans[0].filter_order;

    minihouse::ScanOptions worst = learned;
    std::reverse(worst.filter_order.begin(), worst.filter_order.end());

    // Work metric: rows entering each filter stage (the "per-tuple
    // processing in later stages" §5.1.1 minimizes). Exact, computed from
    // the data.
    auto stage_work = [&](const std::vector<int>& order) {
      int64_t work = 0;
      std::vector<uint8_t> selection(events->num_rows(), 1);
      int64_t alive = events->num_rows();
      for (int f : order) {
        work += alive;
        alive = 0;
        const minihouse::Column& col = events->column(filters[f].column);
        for (int64_t r = 0; r < events->num_rows(); ++r) {
          if (selection[r] != 0 && !filters[f].Matches(col.NumericAt(r))) {
            selection[r] = 0;
          }
          alive += selection[r];
        }
      }
      return work;
    };
    learned_io += stage_work(learned.filter_order);
    naive_io += stage_work(naive.filter_order);
    worst_io += stage_work(worst.filter_order);
    ++scans;
  }

  PrintRow({"order", "rows processed across stages", "scans"});
  PrintRow({"bytecard greedy (correlation-aware)",
            std::to_string(learned_io), std::to_string(scans)});
  PrintRow({"sketch greedy (independence)", std::to_string(naive_io),
            std::to_string(scans)});
  PrintRow({"reversed (worst)", std::to_string(worst_io),
            std::to_string(scans)});
}

}  // namespace
}  // namespace bytecard::bench

int main() {
  bytecard::bench::Run();
  return 0;
}
