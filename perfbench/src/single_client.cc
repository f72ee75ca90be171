// The two single-client workloads. One client sends each request through the
// SQL front door the way an ad-hoc user does: sql::AnalyzeSql, then
// Optimizer::Plan, then ExecuteQuery, all under one QueryContext, at dop 1.
//
//   stats-adhoc  a seeded stream of distinct STATS-Hybrid queries over a small
//                STATS: each reads a few blocks and is analyzed, planned and
//                estimated anew, with no cache carried over between requests.
//   imdb-scan    JOB-Hybrid's executable aggregation queries, cycled over a
//                larger IMDB: hundreds of block reads per request, and a
//                decoded working set larger than the decode cache.

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "harness.h"
#include "minihouse/optimizer.h"
#include "minihouse/query_context.h"
#include "sql/analyzer.h"
#include "workload/datagen.h"
#include "workload/truth.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace wl = bytecard::workload;

// --- stats-adhoc ----------------------------------------------------------------
constexpr double kStatsScale = 0.02;
// Timed requests per second of --seconds (sized so the timed loop takes
// about --seconds on a 4-vCPU x86 host).
constexpr int64_t kStatsRequestsPerSecond = 250;
// Distinct queries run untimed before timing; routes are mined from them.
constexpr int64_t kStatsWarmupQueries = 100;

// --- imdb-scan ------------------------------------------------------------------
constexpr double kImdbScale = 3.0;
constexpr int64_t kImdbRequestsPerSecond = 9;
// Below the decoded working set of the cycled queries, so the decode cache
// evicts on every cycle.
constexpr int64_t kImdbDecodeCacheBytes = 4 << 20;

struct Stream {
  std::unique_ptr<mh::Database> db;
  wl::Workload evaluation;                  // hint + q-error query set
  std::vector<wl::WorkloadQuery> warmup;    // untimed, before MineRoutes
  std::vector<wl::WorkloadQuery> queries;   // distinct timed queries
  std::vector<int> order;                   // timed requests, by query index
};

bc::Result<Stream> StatsStream(const RunConfig& config) {
  Stream s;
  BC_ASSIGN_OR_RETURN(s.db, wl::GenerateStats(kStatsScale, kDatasetSeed));
  BC_ASSIGN_OR_RETURN(s.evaluation, EvaluationWorkload(*s.db, "STATS-Hybrid"));
  const int64_t requests = kStatsRequestsPerSecond * config.seconds;
  const size_t needed = static_cast<size_t>(kStatsWarmupQueries + requests);
  std::unordered_set<std::string> seen;
  std::vector<wl::WorkloadQuery> pool;
  for (uint64_t round = 0; pool.size() < needed; ++round) {
    if (round >= 4096) {
      return bc::Status::Internal("cannot generate enough distinct queries");
    }
    wl::WorkloadOptions options;
    options.seed = Mix(config.seed, round);
    BC_ASSIGN_OR_RETURN(wl::Workload w,
                        wl::BuildWorkload(*s.db, "STATS-Hybrid", options));
    for (wl::WorkloadQuery& wq : w.queries) {
      if (!seen.insert(wq.sql).second) continue;
      if (!wq.aggregate) {
        BC_ASSIGN_OR_RETURN(const int64_t truth, wl::TrueCount(wq.query));
        if (truth > kMaxExecutableCount) continue;
      }
      pool.push_back(std::move(wq));
    }
  }
  std::mt19937_64 rng(Mix(config.seed, 0x5157));
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(needed);
  s.warmup.assign(std::make_move_iterator(pool.begin()),
                  std::make_move_iterator(pool.begin() + kStatsWarmupQueries));
  s.queries.assign(std::make_move_iterator(pool.begin() + kStatsWarmupQueries),
                   std::make_move_iterator(pool.end()));
  s.order.resize(s.queries.size());  // each distinct query once
  std::iota(s.order.begin(), s.order.end(), 0);
  return s;
}

bc::Result<Stream> ImdbStream(const RunConfig& config) {
  Stream s;
  BC_ASSIGN_OR_RETURN(s.db, wl::GenerateImdb(kImdbScale, kDatasetSeed));
  s.db->SetDecodeCacheBytes(kImdbDecodeCacheBytes);
  BC_ASSIGN_OR_RETURN(s.evaluation, EvaluationWorkload(*s.db, "JOB-Hybrid"));
  std::unordered_set<std::string> seen;
  for (const wl::WorkloadQuery& wq : s.evaluation.queries) {
    if (wq.aggregate && seen.insert(wq.sql).second) s.queries.push_back(wq);
  }
  if (s.queries.empty()) return bc::Status::Internal("no aggregation queries");
  s.warmup = s.queries;  // one untimed pass over the catalog
  // The traffic: back-to-back passes over the catalog, each in a seeded
  // order.
  const int64_t requests = kImdbRequestsPerSecond * config.seconds;
  std::mt19937_64 rng(Mix(config.seed, 0x1ad));
  std::vector<int> pass(s.queries.size());
  std::iota(pass.begin(), pass.end(), 0);
  while (static_cast<int64_t>(s.order.size()) < requests) {
    std::shuffle(pass.begin(), pass.end(), rng);
    s.order.insert(s.order.end(), pass.begin(), pass.end());
  }
  s.order.resize(requests);
  return s;
}

struct Outcome {
  enum Kind { kOk, kRefused, kError } kind = kOk;
  bc::Status status;  // why the request was refused
  mh::ExecResult result;
};

// One request: SQL text in, result out. `estimator` is ByteCard behind the
// benchmark's timing decorator.
Outcome Serve(mh::CardinalityEstimator* estimator, const mh::Database& db,
              const mh::Optimizer& optimizer, const std::string& sql,
              Tracer* tracer, uint64_t request) {
  ScopedSpan request_span(tracer, "request", request);
  bc::Result<mh::BoundQuery> bound = [&] {
    ScopedSpan span(tracer, "sql.analyze", request);
    return bc::sql::AnalyzeSql(sql, db);
  }();
  Outcome outcome;
  if (!bound.ok()) {
    outcome.kind = Outcome::kRefused;
    outcome.status = bound.status();
    return outcome;
  }
  mh::QueryContext context(estimator);
  const mh::PhysicalPlan plan = [&] {
    ScopedSpan span(tracer, "optimizer.plan", request);
    return optimizer.Plan(bound.value(), &context);
  }();
  bc::Result<mh::ExecResult> result = [&] {
    ScopedSpan span(tracer, "executor.execute", request);
    return mh::ExecuteQuery(bound.value(), plan, &context);
  }();
  if (!result.ok()) {
    outcome.kind = Outcome::kError;
    return outcome;
  }
  outcome.result = std::move(result).value();
  return outcome;
}

bc::Result<Report> RunSingleClient(const RunConfig& config, Stream stream) {
  Report report;
  const mh::Database& db = *stream.db;
  mh::OptimizerOptions optimizer_options;
  optimizer_options.max_dop = 1;
  const mh::Optimizer optimizer(optimizer_options);

  // Input generation, outside every timer: one reference per distinct query,
  // and for a query with -2 in an IN list, the reference of what the IN (-2)
  // defect answers instead.
  std::vector<Answer> references;
  std::map<int, Answer> defect_references;
  references.reserve(stream.queries.size());
  for (size_t q = 0; q < stream.queries.size(); ++q) {
    const mh::BoundQuery& query = stream.queries[q].query;
    BC_ASSIGN_OR_RETURN(Answer ref, ReferenceAnswer(query));
    references.push_back(std::move(ref));
    if (HasInListWithMinusTwo(query)) {
      BC_ASSIGN_OR_RETURN(defect_references[static_cast<int>(q)],
                          ReferenceAnswer(WithoutMinusTwo(query)));
    }
  }
  std::vector<mh::BoundQuery> hint;
  for (const wl::WorkloadQuery& wq : stream.evaluation.queries) {
    hint.push_back(wq.query);
  }
  ResetPeakRss();

  // Set-up, repeated into fresh artifact directories; the last one serves.
  std::unique_ptr<bc::ByteCard> bytecard;
  std::vector<double> setups;
  double bootstrap_s = 0.0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    bytecard.reset();
    const std::string dir =
        config.work_dir + "/models-" + std::to_string(rep);
    BC_ASSIGN_OR_RETURN(bytecard,
                        BootstrapFresh(db, hint, dir, &bootstrap_s));
    bc::Stopwatch lifecycle;
    bytecard->EnableFeedback();
    setups.push_back(bootstrap_s + lifecycle.ElapsedSeconds());
  }

  // Serve from the remote-storage model (input generation and training read
  // the data directly and are not slowed).
  stream.db->SetStorageCostFactor(0);
  stream.db->SetStorageBlockLatencyNanos(kBlockLatencyNanos);

  // Every request plans through the timing decorator; it counts estimate
  // time only in the traced run.
  int64_t estimate_ns = 0;
  TimedEstimator estimator(bytecard.get(),
                           config.trace ? &estimate_ns : nullptr);

  // Untimed warm pass, then routes mined from its feedback trace.
  for (const wl::WorkloadQuery& wq : stream.warmup) {
    Serve(&estimator, db, optimizer, wq.sql, nullptr, 0);
  }
  estimate_ns = 0;
  bc::Stopwatch mine_timer;
  BC_ASSIGN_OR_RETURN(const bc::routing::RouteMinerReport mined,
                      bytecard->MineRoutes(db));
  const double mine_routes_s = mine_timer.ElapsedSeconds();
  report.Note("routes: " + std::to_string(mined.classes_routed) + " of " +
              std::to_string(mined.classes_seen) + " classes routed");

  // Timed loop: a fixed number of requests, so counts repeat exactly. Each
  // answer is checked as soon as the request's timer stops and then dropped,
  // so the benchmark holds no results (they would count in peak_rss_mb).
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>() : nullptr;
  const size_t requests = stream.order.size();
  std::vector<double> completed_ms;  // latencies of right answers
  double timed_s = 0.0;
  LayerCounters counters;
  FailureCounts& f = report.failures;
  for (size_t i = 0; i < requests; ++i) {
    const int q = stream.order[i];
    const wl::WorkloadQuery& wq = stream.queries[q];
    bc::Stopwatch timer;
    const Outcome o = Serve(&estimator, db, optimizer, wq.sql, tracer.get(),
                            static_cast<uint64_t>(i + 1));
    const double latency_ms = timer.ElapsedMillis();
    timed_s += latency_ms / 1e3;
    if (o.kind == Outcome::kRefused) {
      ++f.refused;
      if (IsCountKeywordRefusal(wq.sql, o.status)) ++f.known_count_keyword;
    } else if (o.kind == Outcome::kError) {
      ++f.errors;
    } else {
      counters.Add(o.result.stats);
      const Answer& ref = references[q];
      const Answer got = AnswerOf(o.result, ref.scalar);
      if (SameAnswer(ref, got)) {
        completed_ms.push_back(latency_ms);
      } else {
        ++f.wrong;
        auto defect = defect_references.find(q);
        if (defect != defect_references.end() &&
            SameAnswer(defect->second, got)) {
          ++f.known_in_minus_two;
        }
      }
    }
  }
  report.attempted = static_cast<int64_t>(requests);

  report.E2e("setup_s", Median(setups) + mine_routes_s);
  report.E2e("query_p50_ms", Percentile(completed_ms, 0.5));
  report.E2e("query_p90_ms", Percentile(completed_ms, 0.9));
  report.E2e("qps", static_cast<double>(completed_ms.size()) / timed_s);
  report.Note("latency samples: " + std::to_string(completed_ms.size()) +
              " completed of " + std::to_string(requests) +
              " requests over " + std::to_string(stream.queries.size()) +
              " distinct queries");

  report.E2e("peak_rss_mb", PeakRssMb());
  BC_RETURN_IF_ERROR(
      ReportQError(bytecard.get(), stream.evaluation, tracer.get(), &report));
  report.E2e("storage_ratio", StorageRatio(db));

  if (tracer != nullptr) {
    const std::vector<double> plan_us = tracer->DurationsMicros("optimizer.plan");
    double plan_call_ms = 0.0;
    for (double us : plan_us) plan_call_ms += us / 1e3;
    report.Layer("sql.analyze_us",
                 Percentile(tracer->DurationsMicros("sql.analyze"), 0.5));
    report.Layer("sql.refused", static_cast<double>(f.refused));
    report.Layer("optimizer.plan_us", Percentile(plan_us, 0.5));
    report.Layer("executor.exec_ms",
                 Percentile(tracer->DurationsMicros("executor.execute"), 0.5) /
                     1e3);
    // Estimator time (the decorator's) over the traced Plan calls.
    report.Layer("optimizer.estimate_share",
                 plan_call_ms > 0.0 ? estimate_ns / 1e6 / plan_call_ms : 0.0);
    counters.Report(&report);
    // Not on this workload's request path: no scheduler, no writer.
    for (const char* name :
         {"scheduler.submit_us", "scheduler.queue_ms_p50",
          "scheduler.queue_ms_p90", "ingest.batch_ms_p50",
          "ingest.batch_ms_p90", "ingest.maintain_ms", "ingest.writer_lag_ms",
          "ingest.snapshots_published"}) {
      report.Layer(name, 0.0);
    }
    ReportLifecycle(*bytecard, bootstrap_s, mine_routes_s * 1e3, &report);
    ReportSpans(*tracer, &report);
    BC_RETURN_IF_ERROR(tracer->Write(config.work_dir + "/spans.jsonl"));
  }
  return report;
}

}  // namespace

bc::Result<Report> RunStatsAdhoc(const RunConfig& config) {
  BC_ASSIGN_OR_RETURN(Stream stream, StatsStream(config));
  return RunSingleClient(config, std::move(stream));
}

bc::Result<Report> RunImdbScan(const RunConfig& config) {
  BC_ASSIGN_OR_RETURN(Stream stream, ImdbStream(config));
  return RunSingleClient(config, std::move(stream));
}

}  // namespace perfbench
