#include "harness.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <regex>
#include <set>
#include <unordered_map>

#include "common/stopwatch.h"
#include "workload/qerror.h"
#include "workload/truth.h"

namespace perfbench {

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The span open on this thread (parent of the next span it begins).
thread_local uint64_t current_span = 0;

double PerRequest(int64_t total, int64_t requests) {
  return requests == 0 ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(requests);
}

double Share(double part, double whole) {
  return whole <= 0.0 ? 0.0 : part / whole;
}

}  // namespace

// --- Tracer ---------------------------------------------------------------------

Tracer::Tracer() : origin_ns_(SteadyNanos()) { spans_.reserve(1 << 16); }

int64_t Tracer::NowNanos() const { return SteadyNanos() - origin_ns_; }

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<double> Tracer::SelfByIndex() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  // Children close before their parent and never overlap on one thread, so
  // subtracting each child's duration leaves the parent's own time.
  for (const Span& span : spans_) {
    auto it = index.find(span.parent);
    if (it == index.end()) continue;
    self[it->second] -= static_cast<double>(span.end_ns - span.start_ns);
  }
  for (double& v : self) v /= 1e3;
  return self;
}

std::vector<double> Tracer::DurationsMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfMicros(const std::string& name) const {
  const std::vector<double> self = SelfByIndex();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self[i]);
  }
  return out;
}

std::vector<std::string> Tracer::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const Span& span : spans_) {
    if (std::find(names.begin(), names.end(), span.name) == names.end()) {
      names.emplace_back(span.name);
    }
  }
  return names;
}

bc::Status Tracer::Write(const std::string& path) const {
  const std::vector<double> self = SelfByIndex();
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return bc::Status::Internal("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, self[i]);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? bc::Status::Ok() : bc::Status::Internal("cannot close " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NextId();
  span_.parent = current_span;
  span_.request = request;
  span_.name = name;
  saved_parent_ = current_span;
  current_span = span_.id;
  span_.start_ns = tracer_->NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNanos();
  current_span = saved_parent_;
  tracer_->Record(span_);
}

// --- TimedEstimator -----------------------------------------------------------------

namespace {

// Adds the wall time of `call` to `*nanos` (if any) and returns its result.
template <typename Call>
double Timed(int64_t* nanos, Call&& call) {
  if (nanos == nullptr) return call();
  const int64_t start = SteadyNanos();
  const double value = call();
  *nanos += SteadyNanos() - start;
  return value;
}

}  // namespace

double TimedEstimator::Estimate(const bc::cardest::CardEstRequest& request,
                                bc::cardest::InferenceSession* session) {
  return Timed(nanos_, [&] { return inner_->Estimate(request, session); });
}

double TimedEstimator::EstimateSelectivity(const mh::Table& table,
                                           const mh::Conjunction& filters) {
  return Timed(nanos_,
               [&] { return inner_->EstimateSelectivity(table, filters); });
}

double TimedEstimator::EstimateJoinCardinality(
    const mh::BoundQuery& query, const std::vector<int>& table_subset) {
  return Timed(nanos_, [&] {
    return inner_->EstimateJoinCardinality(query, table_subset);
  });
}

double TimedEstimator::EstimateGroupNdv(const mh::BoundQuery& query) {
  return Timed(nanos_, [&] { return inner_->EstimateGroupNdv(query); });
}

std::shared_ptr<mh::CardinalityEstimator> TimedEstimator::PinSnapshot() {
  return std::make_shared<TimedEstimator>(inner_->PinSnapshot(), nanos_);
}

// --- LayerCounters ----------------------------------------------------------------

void LayerCounters::Add(const mh::ExecStats& s) {
  ++requests;
  estimator_calls += s.estimator_calls;
  memo_hits += s.memo_hits;
  feedback_hits += s.feedback_hits;
  probe_cache_hits += s.probe_cache_hits;
  fallback_estimates += s.fallback_estimates;
  routed_estimates += s.routed_estimates;
  route_fallbacks += s.route_fallbacks;
  intermediate_rows += s.intermediate_rows;
  agg_resizes += s.agg_resize_count;
  specialized_ops += s.specialized_ops;
  despecialized_morsels += s.despecialized_morsels;
  parallel_tasks += s.parallel_tasks;
  blocks_read += s.io.blocks_read;
  blocks_pruned += s.io.blocks_pruned;
  rows_scanned += s.io.rows_scanned;
  encoded_blocks += s.io.encoded_blocks;
  decode_hits += s.io.decode_cache_hits;
  decode_evictions += s.io.decode_cache_evictions;
  heavy += s.heavy_lane ? 1 : 0;
}

void LayerCounters::Report(perfbench::Report* r) const {
  const int64_t n = requests;
  r->Layer("optimizer.estimator_calls", PerRequest(estimator_calls, n));
  r->Layer("optimizer.memo_hits", PerRequest(memo_hits, n));
  // Cross-query estimates: those the model answered plus those the feedback
  // cache answered (per-query memo hits are neither).
  r->Layer("bytecard.feedback_hit_share",
           Share(static_cast<double>(feedback_hits),
                 static_cast<double>(feedback_hits + estimator_calls)));
  r->Layer("bytecard.routed_share",
           Share(static_cast<double>(routed_estimates),
                 static_cast<double>(estimator_calls)));
  r->Layer("bytecard.route_fallbacks", PerRequest(route_fallbacks, n));
  r->Layer("bytecard.probe_hits", PerRequest(probe_cache_hits, n));
  r->Layer("bytecard.fallback_estimates", PerRequest(fallback_estimates, n));
  r->Layer("executor.intermediate_rows", PerRequest(intermediate_rows, n));
  r->Layer("executor.agg_resizes", PerRequest(agg_resizes, n));
  r->Layer("executor.specialized_ops", PerRequest(specialized_ops, n));
  r->Layer("executor.despecialized_morsels",
           PerRequest(despecialized_morsels, n));
  r->Layer("executor.parallel_tasks", PerRequest(parallel_tasks, n));
  r->Layer("storage.blocks_read", PerRequest(blocks_read, n));
  r->Layer("storage.blocks_pruned", PerRequest(blocks_pruned, n));
  r->Layer("storage.rows_scanned", PerRequest(rows_scanned, n));
  r->Layer("storage.decode_evictions", PerRequest(decode_evictions, n));
  r->Layer("storage.decode_hit_share",
           Share(static_cast<double>(decode_hits),
                 static_cast<double>(encoded_blocks)));
  r->Layer("scheduler.heavy_share",
           Share(static_cast<double>(heavy), static_cast<double>(n)));
}

// --- Answers --------------------------------------------------------------------------

bool IsScalarCount(const mh::BoundQuery& query) {
  return query.group_by.empty() && query.aggs.size() == 1 &&
         query.aggs[0].func == mh::AggFunc::kCountStar;
}

Answer AnswerOf(const mh::ExecResult& result, bool scalar) {
  Answer answer;
  answer.scalar = scalar;
  if (scalar) {
    answer.count = result.ScalarCount();
    return answer;
  }
  const mh::AggregateResult& agg = result.agg;
  answer.key_width = agg.group_keys.size();
  answer.value_width = agg.agg_values.size();
  std::vector<int64_t> rows(agg.num_groups);
  std::iota(rows.begin(), rows.end(), 0);
  // Group keys are unique per row, so they alone fix the order.
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const auto& keys : agg.group_keys) {
      if (keys[a] != keys[b]) return keys[a] < keys[b];
    }
    return false;
  });
  answer.keys.reserve(rows.size() * answer.key_width);
  answer.values.reserve(rows.size() * answer.value_width);
  for (int64_t g : rows) {
    for (const auto& keys : agg.group_keys) answer.keys.push_back(keys[g]);
    for (const auto& values : agg.agg_values) {
      answer.values.push_back(values[g]);
    }
  }
  return answer;
}

bc::Result<Answer> ReferenceAnswer(const mh::BoundQuery& query) {
  if (IsScalarCount(query)) {
    BC_ASSIGN_OR_RETURN(const int64_t truth, bc::workload::TrueCount(query));
    Answer answer;
    answer.scalar = true;
    answer.count = truth;
    return answer;
  }
  // Default plan: serial scans, no estimator, no specialization decisions
  // taken from estimates.
  mh::PhysicalPlan plan;
  plan.scans.resize(query.tables.size());
  BC_ASSIGN_OR_RETURN(mh::ExecResult result, mh::ExecuteQuery(query, plan));
  return AnswerOf(result, false);
}

bool SameAnswer(const Answer& ref, const Answer& got) {
  if (ref.scalar != got.scalar) return false;
  if (ref.scalar) return ref.count == got.count;
  if (ref.key_width != got.key_width || ref.value_width != got.value_width ||
      ref.keys != got.keys || ref.values.size() != got.values.size()) {
    return false;
  }
  for (size_t i = 0; i < ref.values.size(); ++i) {
    const double want = ref.values[i];
    const double have = got.values[i];
    const double tol = 1e-9 * std::max({1.0, std::fabs(want), std::fabs(have)});
    if (std::fabs(want - have) > tol) return false;
  }
  return true;
}

uint64_t HashAnswer(const Answer& answer) {
  uint64_t h = answer.scalar ? 0x9e3779b97f4a7c15ULL : 0;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(answer.count));
  for (int64_t k : answer.keys) mix(static_cast<uint64_t>(k));
  for (double v : answer.values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

bool IsCountKeywordRefusal(const std::string& sql, const bc::Status& status) {
  static const std::regex refusal(
      R"(parse error at position ([0-9]+): expected identifier)");
  std::smatch match;
  const std::string message = status.message();
  if (status.code() != bc::StatusCode::kInvalidArgument ||
      !std::regex_match(message, match, refusal)) {
    return false;
  }
  // The offending token is `count` right after a '.', ending the word.
  const size_t at = std::stoul(match[1].str());
  if (at == 0 || at + 5 > sql.size() || sql[at - 1] != '.') return false;
  std::string word = sql.substr(at, 5);
  for (char& c : word) c = static_cast<char>(std::tolower(c));
  const bool ends = at + 5 == sql.size() ||
                    !(std::isalnum(static_cast<unsigned char>(sql[at + 5])) ||
                      sql[at + 5] == '_');
  return word == "count" && ends;
}

bool HasInListWithMinusTwo(const mh::BoundQuery& query) {
  for (const mh::BoundTableRef& ref : query.tables) {
    for (const mh::ColumnPredicate& pred : ref.filters) {
      if (pred.op != mh::CompareOp::kIn) continue;
      if (std::find(pred.in_list.begin(), pred.in_list.end(), -2) !=
          pred.in_list.end()) {
        return true;
      }
    }
  }
  return false;
}

mh::BoundQuery WithoutMinusTwo(mh::BoundQuery query) {
  for (mh::BoundTableRef& ref : query.tables) {
    for (mh::ColumnPredicate& pred : ref.filters) {
      if (pred.op != mh::CompareOp::kIn) continue;
      pred.in_list.erase(
          std::remove(pred.in_list.begin(), pred.in_list.end(), -2),
          pred.in_list.end());
    }
  }
  return query;
}

// --- Measurements -------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double StorageRatio(const mh::Database& db) {
  double raw = 0.0;
  for (const std::string& name : db.TableNames()) {
    const mh::Table* table = db.FindTable(name).value();
    raw += 8.0 * static_cast<double>(table->num_rows()) * table->num_columns();
  }
  return Share(static_cast<double>(db.EncodedBytes()), raw);
}

double Percentile(const std::vector<double>& values, double q) {
  return bc::workload::Quantile(values, q);
}

double Median(std::vector<double> values) {
  return bc::workload::Quantile(std::move(values), 0.5);
}

bc::Result<std::unique_ptr<bc::ByteCard>> BootstrapFresh(
    const mh::Database& db, const std::vector<mh::BoundQuery>& hint,
    const std::string& dir, double* seconds) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return bc::Status::Internal("cannot create " + dir);
  bc::ByteCard::Options options;
  options.seed = kDatasetSeed;
  bc::Stopwatch timer;
  auto bytecard = bc::ByteCard::Bootstrap(db, hint, dir, options);
  *seconds = timer.ElapsedSeconds();
  return bytecard;
}

void ReportLifecycle(const bc::ByteCard& bytecard, double bootstrap_s,
                     double mine_routes_ms, Report* report) {
  const bc::ByteCardTrainingStats& t = bytecard.training_stats();
  report->Layer("lifecycle.bootstrap_s", bootstrap_s);
  report->Layer("lifecycle.train_bn_s", t.bn_seconds);
  report->Layer("lifecycle.train_fj_s", t.factorjoin_seconds);
  report->Layer("lifecycle.train_rbx_s", t.rbx_seconds);
  report->Layer("lifecycle.mine_routes_ms", mine_routes_ms);
}

bc::Result<bc::workload::Workload> EvaluationWorkload(const mh::Database& db,
                                                      const std::string& name) {
  bc::workload::WorkloadOptions options;
  options.seed = kDatasetSeed;
  return bc::workload::BuildWorkload(db, name, options);
}

bc::Status ReportQError(bc::ByteCard* bytecard,
                        const bc::workload::Workload& evaluation,
                        Tracer* tracer, Report* report) {
  std::vector<double> qerrors;
  std::set<std::string> seen;
  for (const bc::workload::WorkloadQuery& wq : evaluation.queries) {
    if (!seen.insert(wq.sql).second) continue;
    const mh::BoundQuery* query = &wq.query;
    double estimate = 0.0;
    {
      ScopedSpan span(tracer, "bytecard.estimate_count", 0);
      estimate = bytecard->EstimateCount(*query);
    }
    BC_ASSIGN_OR_RETURN(const int64_t truth, bc::workload::TrueCount(*query));
    qerrors.push_back(
        bc::workload::QError(estimate, static_cast<double>(truth)));
  }
  report->E2e("qerror_p50", Percentile(qerrors, 0.5));
  report->E2e("qerror_p90", Percentile(qerrors, 0.9));
  report->Note("q-error over " + std::to_string(qerrors.size()) +
               " distinct " + evaluation.name + " queries");
  if (tracer != nullptr) {
    report->Layer(
        "bytecard.estimate_count_us",
        Percentile(tracer->DurationsMicros("bytecard.estimate_count"), 0.5));
  }
  return bc::Status::Ok();
}

void ReportSpans(const Tracer& tracer, Report* report) {
  for (const std::string& name : tracer.Names()) {
    const std::vector<double> dur = tracer.DurationsMicros(name);
    const std::vector<double> self = tracer.SelfMicros(name);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span %-26s n=%-6zu p50=%10.1f us  p90=%10.1f us  "
                  "self p50=%10.1f us",
                  name.c_str(), dur.size(), Percentile(dur, 0.5),
                  Percentile(dur, 0.9), Percentile(self, 0.5));
    report->Note(line);
  }
  // What the request span holds beyond its child calls: the benchmark's own
  // bookkeeping plus program work no child span covers (QueryContext pinning
  // on single-client workloads).
  report->Layer("trace.request_self_us",
                Percentile(tracer.SelfMicros("request"), 0.5));
}

}  // namespace perfbench
