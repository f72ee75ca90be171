// Shared pieces of the benchmark runner: run configuration, the report the
// runner prints, the in-memory span tracer, per-layer counter folding over
// ExecStats, answer references and checks, and process-level measurements.
//
// The runner measures the program from outside: every span wraps a call the
// benchmark itself makes into one layer's public functions, and every counter
// is read from a structure those functions return.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bytecard/bytecard.h"
#include "common/status.h"
#include "minihouse/database.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "minihouse/query.h"
#include "workload/workload.h"

namespace perfbench {

namespace bc = bytecard;
namespace mh = bytecard::minihouse;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Per-process scratch directory (created empty by the caller): model
  // artifact directories and the span file live under it.
  std::string work_dir;
};

// How requests failed. Every failure counts in Report::failed; the two
// "known" fields say how many of them match a documented defect (see
// README.md), and an unexplained wrong answer makes the run incorrect.
struct FailureCounts {
  int64_t refused = 0;  // the SQL front door rejected the text
  int64_t errors = 0;   // planning or execution returned an error Status
  int64_t wrong = 0;    // an answer differed from its reference
  int64_t known_count_keyword = 0;  // refusals: `<table>.count` lexed as COUNT
  int64_t known_in_minus_two = 0;   // wrong answers: IN list holding -2

  int64_t total() const { return refused + errors + wrong; }
};

struct Report {
  int64_t attempted = 0;
  FailureCounts failures;
  // Metric name -> value, in the order they were added. Units live in
  // BENCHMARK.json; run.py attaches them.
  std::vector<std::pair<std::string, double>> end_to_end;
  std::vector<std::pair<std::string, double>> layers;
  // Human-readable lines printed before the result (sample counts etc.).
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value) {
    end_to_end.emplace_back(name, value);
  }
  void Layer(const std::string& name, double value) {
    layers.emplace_back(name, value);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// --- Tracing ------------------------------------------------------------------
// Spans are kept in memory while the run is measured and written once, at
// exit. A span's parent is the span open on the same thread when it began;
// spans of one request share its request id.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // 0 = not part of a request
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  Tracer();

  int64_t NowNanos() const;
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  // Durations / self times (duration minus the time covered by child spans)
  // of every span named `name`, in microseconds.
  std::vector<double> DurationsMicros(const std::string& name) const;
  std::vector<double> SelfMicros(const std::string& name) const;
  // Distinct span names in first-seen order.
  std::vector<std::string> Names() const;

  // Writes one JSON object per span (id, parent, request, name, start_us,
  // dur_us, self_us) to `path`.
  bc::Status Write(const std::string& path) const;

 private:
  std::vector<double> SelfByIndex() const;

  const int64_t origin_ns_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Span span_;
  uint64_t saved_parent_ = 0;
};

// --- Estimator timing ----------------------------------------------------------
// A CardinalityEstimator that forwards every call to another one (ByteCard)
// and, when given a counter, adds the wall time of each estimate to it. Handed
// to a QueryContext, it times the estimator itself from outside: PinSnapshot
// wraps the pinned per-query view the same way, so every estimate the
// optimizer asks for during Plan is counted. With a null counter it only
// forwards (the untraced run).
class TimedEstimator : public mh::CardinalityEstimator {
 public:
  // Wraps `root` (not owned), e.g. the ByteCard facade.
  TimedEstimator(mh::CardinalityEstimator* root, int64_t* nanos)
      : inner_(root), nanos_(nanos) {}
  // Wraps, and keeps alive, a pinned per-query view.
  TimedEstimator(std::shared_ptr<mh::CardinalityEstimator> view,
                 int64_t* nanos)
      : view_(std::move(view)), inner_(view_.get()), nanos_(nanos) {}

  std::string Name() const override { return inner_->Name(); }
  double Estimate(const bc::cardest::CardEstRequest& request,
                  bc::cardest::InferenceSession* session) override;
  double EstimateSelectivity(const mh::Table& table,
                             const mh::Conjunction& filters) override;
  double EstimateJoinCardinality(
      const mh::BoundQuery& query,
      const std::vector<int>& table_subset) override;
  double EstimateGroupNdv(const mh::BoundQuery& query) override;
  std::shared_ptr<mh::CardinalityEstimator> PinSnapshot() override;
  uint64_t SnapshotVersion() const override {
    return inner_->SnapshotVersion();
  }
  int64_t FallbackEstimates() const override {
    return inner_->FallbackEstimates();
  }
  mh::RoutingStats routing_stats() const override {
    return inner_->routing_stats();
  }
  mh::QueryFeedbackHook* feedback_hook() const override {
    return inner_->feedback_hook();
  }

 private:
  std::shared_ptr<mh::CardinalityEstimator> view_;  // null when wrapping root
  mh::CardinalityEstimator* inner_;
  int64_t* nanos_;
};

// --- Per-layer counters ---------------------------------------------------------
// Sums ExecStats fields over completed requests; per-request means are what
// the traced run reports.
struct LayerCounters {
  int64_t requests = 0;
  int64_t estimator_calls = 0;
  int64_t memo_hits = 0;
  int64_t feedback_hits = 0;
  int64_t probe_cache_hits = 0;
  int64_t fallback_estimates = 0;
  int64_t routed_estimates = 0;
  int64_t route_fallbacks = 0;
  int64_t intermediate_rows = 0;
  int64_t agg_resizes = 0;
  int64_t specialized_ops = 0;
  int64_t despecialized_morsels = 0;
  int64_t parallel_tasks = 0;
  int64_t blocks_read = 0;
  int64_t blocks_pruned = 0;
  int64_t rows_scanned = 0;
  int64_t encoded_blocks = 0;
  int64_t decode_hits = 0;
  int64_t decode_evictions = 0;
  int64_t heavy = 0;

  void Add(const mh::ExecStats& stats);
  // Adds the optimizer / bytecard / executor / storage per-layer counters.
  void Report(perfbench::Report* report) const;
};

// --- Answers --------------------------------------------------------------------
// A query's answer as the benchmark compares it: a scalar COUNT(*), or the
// GROUP BY rows sorted by group key and stored flat (row g's keys are
// keys[g * key_width ...], its aggregates values[g * value_width ...]).
struct Answer {
  bool scalar = false;
  int64_t count = 0;
  size_t key_width = 0;
  size_t value_width = 0;
  std::vector<int64_t> keys;
  std::vector<double> values;

  // Bit-exact equality (SameAnswer is the tolerant comparison).
  bool operator==(const Answer& other) const = default;
};

// True when the query is a bare COUNT(*) (answered by the truth oracle).
bool IsScalarCount(const mh::BoundQuery& query);

// The reference answer, built without the SQL front door: the truth oracle
// for COUNT(*), serial execution of the generator's BoundQuery otherwise.
bc::Result<Answer> ReferenceAnswer(const mh::BoundQuery& query);

// The answer a request returned, shaped like `reference`.
Answer AnswerOf(const mh::ExecResult& result, bool scalar);

// Group keys must match exactly; aggregate values to floating-point
// summation-order tolerance.
bool SameAnswer(const Answer& reference, const Answer& got);

// Hash of the exact bits of an answer (for deduplicating equal answers).
uint64_t HashAnswer(const Answer& answer);

// Documented defects (README.md, "Defects the benchmark exposes"), recognised
// by their effect.
//
// True when `status` is the refusal the `.count` lexer defect produces: the
// parser wanted a column name right after a '.' and found `count`, lexed as
// the COUNT keyword.
bool IsCountKeywordRefusal(const std::string& sql, const bc::Status& status);
bool HasInListWithMinusTwo(const mh::BoundQuery& query);
// `query` as the analyzer binds it: -2 dropped from every integer IN list. A
// wrong answer is the IN (-2) defect only when it equals this query's
// reference.
mh::BoundQuery WithoutMinusTwo(mh::BoundQuery query);

// --- Process and storage measurements ---------------------------------------------
double PeakRssMb();  // VmHWM of this process
// Restarts VmHWM from the current RSS, so peak_rss_mb covers what runs after
// input generation: set-up, warm pass and the measured requests.
void ResetPeakRss();
// Encoded bytes over the raw 8-bytes-per-value size of the same rows.
double StorageRatio(const mh::Database& db);

// Median and p90 with the library's own linear-interpolation quantile.
double Percentile(const std::vector<double>& values, double q);

// Trains a fresh ByteCard into `dir` (created empty): BN, FactorJoin and RBX
// are all trained in the call, nothing is reused. `seconds` gets the wall
// time of Bootstrap.
bc::Result<std::unique_ptr<bc::ByteCard>> BootstrapFresh(
    const mh::Database& db, const std::vector<mh::BoundQuery>& hint,
    const std::string& dir, double* seconds);

// Adds the lifecycle per-layer metrics of the kept ByteCard.
void ReportLifecycle(const bc::ByteCard& bytecard, double bootstrap_s,
                     double mine_routes_ms, Report* report);

// The dataset's evaluation workload (Table 5's JOB-Hybrid, STATS-Hybrid or
// AEOLUS-Online), generated with the fixed seed: Bootstrap's workload hint
// and the query set q-error is measured over.
bc::Result<bc::workload::Workload> EvaluationWorkload(const mh::Database& db,
                                                      const std::string& name);

// Adds q-error metrics: ByteCard::EstimateCount on the live snapshot against
// the truth oracle, over each distinct query's COUNT(*). EstimateCount calls
// are traced as "bytecard.estimate_count" spans.
bc::Status ReportQError(bc::ByteCard* bytecard,
                        const bc::workload::Workload& evaluation,
                        Tracer* tracer, Report* report);

// Adds the span-derived per-layer times and the request self time.
void ReportSpans(const Tracer& tracer, Report* report);

// Set-up repetitions per run: setup_s is the median of these.
inline constexpr int kSetupRepeats = 3;

// COUNT(*) probes whose true join size exceeds BuildWorkload's own executable
// bound (WorkloadOptions::max_executable_count) are estimation-only queries;
// the benchmark does not send them.
inline constexpr int64_t kMaxExecutableCount = 60000;

// The datasets are fixed fixtures, like a TPC-H database generated once at a
// given scale: every run measures the same data, and --seed picks the
// traffic (query instances, their order, Zipf draws, ingest batch rows).
// Model training in Bootstrap is seeded with the same constant: it is the
// program's configuration, not an input.
inline constexpr uint64_t kDatasetSeed = 20240607;

// Every workload reads its blocks through the same remote-storage model:
// each block read waits 200us (the waits of concurrent readers overlap).
// Held in memory, the CPU-bound requests moved 15-40% between runs with the
// shared host's memory-system load; the block waits make most of a request's
// time independent of it, while every request still analyzes, plans,
// estimates and executes in full.
inline constexpr int64_t kBlockLatencyNanos = 200 * 1000;

// Deterministic seed derivation for the run's independent input streams.
inline uint64_t Mix(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL + 1;
}

// Median of `values` (a copy is sorted).
double Median(std::vector<double> values);

// --- Workloads (one process runs one) ---------------------------------------------
bc::Result<Report> RunStatsAdhoc(const RunConfig& config);
bc::Result<Report> RunImdbScan(const RunConfig& config);
bc::Result<Report> RunAeolusLive(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
