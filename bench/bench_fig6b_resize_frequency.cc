// Reproduces Figure 6b: hash-table resizing frequency during aggregation
// processing on the AEOLUS dataset across scales, with and without ByteCard
// (RBX-driven hash-table pre-sizing). As in the paper, the traditional
// methods are unsuitable here (HLL cannot see predicates, per-aggregation
// sampling is too expensive), so the primary comparison is ByteCard-enabled
// vs disabled; the sketch hint is shown for reference.
//
// The aggregation templates follow the paper's motivating scenario: group
// keys with data-dependent (growing) distinct counts — ad_id under various
// filters — exactly where fixed-size tables resize repeatedly as data grows.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "minihouse/executor.h"
#include "sql/analyzer.h"

namespace bytecard::bench {
namespace {

void Run() {
  std::printf(
      "Figure 6b: Hash-table resizing frequency vs dataset scale (AEOLUS)\n");
  std::printf("seed=%llu\n\n",
              static_cast<unsigned long long>(BenchSeed()));

  const std::vector<double> scales = {0.05, 0.1, 0.2, 0.4};
  std::vector<int64_t> resizes_without;
  std::vector<int64_t> resizes_with;
  std::vector<int64_t> resizes_sketch;
  EstimationProfile bytecard_profile;
  EstimationProfile sketch_profile;

  // Fixed analytical templates whose group NDV grows with the data.
  const std::vector<std::string> sqls = {
      "SELECT ad_id, COUNT(*) FROM ad_events GROUP BY ad_id",
      "SELECT ad_id, COUNT(*) FROM ad_events WHERE platform = 1 "
      "GROUP BY ad_id",
      "SELECT ad_id, COUNT(*) FROM ad_events WHERE platform = 0 "
      "AND content_type <= 1 GROUP BY ad_id",
      "SELECT ad_id, region_id, COUNT(*) FROM ad_events "
      "WHERE event_date BETWEEN 100 AND 250 GROUP BY ad_id, region_id",
      "SELECT ad_id, COUNT(*), AVG(event_date) FROM ad_events "
      "WHERE region_id <= 20 GROUP BY ad_id",
      "SELECT campaign_id, ad_id, COUNT(*) FROM ad_events "
      "GROUP BY campaign_id, ad_id",
      "SELECT e.ad_id, COUNT(*) FROM ad_events e, campaigns c "
      "WHERE e.campaign_id = c.id AND c.budget_tier = 2 GROUP BY e.ad_id",
      "SELECT platform, content_type, COUNT(*) FROM ad_events "
      "GROUP BY platform, content_type",
  };

  for (double scale : scales) {
    BenchContextOptions options;
    options.scale = scale;
    options.count_queries = 4;
    options.agg_queries = 4;
    BenchContext ctx = BuildBenchContext("aeolus", options);

    // Kernel specialization off for every leg: this figure isolates the
    // hash-table sizing mechanism, and the dense-array aggregate (which
    // never resizes) would flatten the signal it measures.
    minihouse::OptimizerOptions hinted;
    hinted.features.specialize_ops = false;
    minihouse::Optimizer with_hint(hinted);
    minihouse::OptimizerOptions no_hint;
    no_hint.use_ndv_hint = false;
    no_hint.features.specialize_ops = false;
    minihouse::Optimizer without_hint(no_hint);

    int64_t with = 0;
    int64_t without = 0;
    int64_t sketch = 0;
    for (const std::string& sql : sqls) {
      auto query = sql::AnalyzeSql(sql, *ctx.db);
      BC_CHECK_OK(query.status());
      auto a = minihouse::PlanAndExecute(query.value(), with_hint,
                                         ctx.bytecard.get());
      auto b = minihouse::PlanAndExecute(query.value(), without_hint,
                                         ctx.bytecard.get());
      auto c = minihouse::PlanAndExecute(query.value(), with_hint,
                                         ctx.sketch.get());
      BC_CHECK_OK(a.status());
      BC_CHECK_OK(b.status());
      BC_CHECK_OK(c.status());
      with += a.value().stats.agg_resize_count;
      without += b.value().stats.agg_resize_count;
      sketch += c.value().stats.agg_resize_count;
      bytecard_profile.Add(a.value().stats);
      sketch_profile.Add(c.value().stats);
    }
    resizes_with.push_back(with);
    resizes_without.push_back(without);
    resizes_sketch.push_back(sketch);
  }

  std::vector<std::string> header = {"configuration"};
  for (double scale : scales) header.push_back("scale " + Fmt(scale));
  PrintRow(header);
  auto print = [&](const char* label, const std::vector<int64_t>& values) {
    std::vector<std::string> row = {label};
    for (int64_t v : values) row.push_back(std::to_string(v));
    PrintRow(row);
  };
  print("without ByteCard (no hint)", resizes_without);
  print("sketch NDV hint", resizes_sketch);
  print("with ByteCard (RBX hint)", resizes_with);

  std::printf("\nestimation profile (all scales, hinted runs):\n");
  PrintEstimationProfiles(
      {{"sketch", sketch_profile}, {"bytecard", bytecard_profile}});
}

}  // namespace
}  // namespace bytecard::bench

int main() {
  bytecard::bench::Run();
  return 0;
}
