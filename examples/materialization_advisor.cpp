// Materialization-strategy scenario (paper §5.1): shows how ByteCard's
// correlation-aware selectivity estimates drive the single- vs multi-stage
// reader decision and the multi-stage column order, and measures the actual
// read I/O of each choice on a STATS-like dataset.
//
//   ./build/examples/materialization_advisor

#include <cstdio>

#include "bytecard/bytecard.h"
#include "minihouse/reader.h"
#include "sql/analyzer.h"
#include "workload/datagen.h"
#include "workload/workload.h"

int main() {
  using namespace bytecard;  // NOLINT: example brevity

  auto db = workload::GenerateStats(0.1, 7).value();
  workload::WorkloadOptions wl_options;
  wl_options.num_count_queries = 10;
  wl_options.num_agg_queries = 3;
  auto wl = workload::BuildWorkload(*db, "STATS-Hybrid", wl_options).value();
  std::vector<minihouse::BoundQuery> hint;
  for (const auto& wq : wl.queries) hint.push_back(wq.query);

  ByteCard::Options options;
  options.rbx.epochs = 20;
  auto bytecard =
      ByteCard::Bootstrap(*db, hint, "advisor_models", options).value();
  minihouse::Optimizer optimizer;

  const struct {
    const char* label;
    const char* sql;
  } cases[] = {
      {"selective, correlated filters",
       "SELECT COUNT(*) FROM posts WHERE score >= 40 AND view_count >= 2500"},
      {"non-selective filter",
       "SELECT COUNT(*) FROM posts WHERE score >= -1"},
      {"selective equality",
       "SELECT COUNT(*) FROM posts WHERE answer_count = 7 AND post_type = 1"},
  };

  for (const auto& c : cases) {
    auto query = sql::AnalyzeSql(c.sql, *db).value();
    const minihouse::PhysicalPlan plan =
        optimizer.Plan(query, bytecard.get());
    const auto& scan = plan.scans[0];

    std::printf("\n%s\n  %s\n", c.label, c.sql);
    std::printf("  estimated selectivity: %.4f -> %s reader\n",
                scan.estimated_selectivity,
                scan.reader == minihouse::ReaderKind::kMultiStage
                    ? "multi-stage"
                    : "single-stage");
    if (!scan.filter_order.empty()) {
      std::printf("  column order:");
      for (int f : scan.filter_order) {
        std::printf(" %s",
                    query.tables[0].filters[f].column_name.c_str());
      }
      std::printf("\n");
    }

    // Execute both readers and report actual I/O.
    for (minihouse::ReaderKind reader :
         {minihouse::ReaderKind::kSingleStage,
          minihouse::ReaderKind::kMultiStage}) {
      minihouse::ScanOptions scan_options;
      scan_options.reader = reader;
      scan_options.filter_order = scan.filter_order;
      // Unpruned I/O, so the comparison isolates the reader choice.
      scan_options.features.prune_blocks = false;
      minihouse::IoStats io;
      const minihouse::ScanResult result =
          ScanTable(*query.tables[0].table, query.tables[0].filters, {0},
                    scan_options, &io);
      std::printf("  %-12s: %6lld blocks read, %lld rows matched\n",
                  reader == minihouse::ReaderKind::kMultiStage
                      ? "multi-stage"
                      : "single-stage",
                  static_cast<long long>(io.blocks_read),
                  static_cast<long long>(result.rows_matched()));
    }
  }
  return 0;
}
