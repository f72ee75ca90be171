// aeolus-live: three closed-loop clients, each thinking between requests,
// send a Zipf-skewed mix of AEOLUS-Online's executable queries through
// ByteCard::Submit(sql) / Wait while a fourth thread appends seeded ad_events
// batches on a fixed schedule. Storage is latency-bound, so admission,
// overlapped I/O and the feedback cache do the work; the writer exposes the
// ingest path (table latch, incremental maintenance, snapshot publish) next
// to live reads.
//
// Answers are checked against a replica that replays the same seeded
// batches outside timing: a request is right if it matches the reference of
// some data version it could have seen.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bytecard/data_ingestor.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "harness.h"
#include "minihouse/scheduler.h"
#include "sql/analyzer.h"
#include "workload/datagen.h"
#include "workload/truth.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace wl = bytecard::workload;

constexpr double kAeolusScale = 1.0;
constexpr const char* kFactTable = "ad_events";
constexpr int kClients = 3;
constexpr int kMaxDop = 2;  // per-query dop cap
constexpr double kZipfExponent = 1.1;
// Timed requests (all clients) per second of --seconds.
constexpr int64_t kRequestsPerSecond = 200;
// Each client thinks between requests, for seeded exponential times of this
// mean, like a dashboard user. Without think time the three clients keep
// the fact table's read latch held almost without a break, and the writer
// (which needs it exclusively) started its median batch seconds late, so how
// many batches landed among the reads differed from run to run.
constexpr double kThinkMeanMs = 5.0;
// Ingest: 200-row batches, 4 per second of --seconds, one due every 200 ms,
// so every batch is due while the clients still run.
constexpr int64_t kBatchRows = 200;
constexpr int64_t kBatchesPerSecond = 4;
constexpr auto kBatchPace = std::chrono::milliseconds(200);

struct Inputs {
  std::unique_ptr<mh::Database> db;
  wl::Workload evaluation;  // AEOLUS-Online: hint + q-error query set
  // Its executable slice in the generator's order, which is the Zipf rank
  // order (rank 0 is hottest), as in bench/bench_concurrent_serving.cc: the
  // fixed catalog of queries the clients draw from.
  std::vector<wl::WorkloadQuery> queries;
  // Per catalog query: whether it reads the fact table, and whether an IN
  // list of it holds -2 (the analyzer defect).
  std::vector<bool> reads_fact;
  std::vector<bool> minus_two;
};

// Generates the dataset and the query catalog. Deterministic, so a second
// call builds an identical replica.
bc::Result<Inputs> MakeInputs() {
  Inputs in;
  BC_ASSIGN_OR_RETURN(in.db, wl::GenerateAeolus(kAeolusScale, kDatasetSeed));
  BC_ASSIGN_OR_RETURN(in.evaluation,
                      EvaluationWorkload(*in.db, "AEOLUS-Online"));
  std::set<std::string> seen;
  for (const wl::WorkloadQuery& wq : in.evaluation.queries) {
    if (!seen.insert(wq.sql).second) continue;
    BC_ASSIGN_OR_RETURN(const int64_t truth, wl::TrueCount(wq.query));
    if (truth > kMaxExecutableCount) continue;
    in.queries.push_back(wq);
  }
  if (in.queries.empty()) return bc::Status::Internal("no executable queries");
  for (const wl::WorkloadQuery& wq : in.queries) {
    bool reads_fact = false;
    for (const mh::BoundTableRef& ref : wq.query.tables) {
      reads_fact = reads_fact || ref.table->name() == kFactTable;
    }
    in.reads_fact.push_back(reads_fact);
    in.minus_two.push_back(HasInListWithMinusTwo(wq.query));
  }
  return in;
}

struct Request {
  int query = 0;
  int64_t lo = 0;  // batches complete before Submit
  int64_t hi = 0;  // batches started before Wait returned
  double latency_ms = 0.0;
  bc::Status status;   // what Wait returned, when not a result
  int answer = -1;     // id in ClientLog::answers
  // Set by the replica check: no reference in the window matched, and
  // whether the IN (-2) defect's reference did.
  bool wrong = false;
  bool in_minus_two = false;
};

// A client's distinct answers, kept in a file under the run's work
// directory: a query's answer changes only when a batch lands, so each is
// written once, and the file's pages (unlike heap copies) do not count in
// peak_rss_mb. Memory holds one offset per distinct answer.
class AnswerStore {
 public:
  explicit AnswerStore(const std::string& path)
      : file_(std::fopen(path.c_str(), "w+b")) {}
  ~AnswerStore() {
    if (file_ != nullptr) std::fclose(file_);
  }
  AnswerStore(const AnswerStore&) = delete;
  AnswerStore& operator=(const AnswerStore&) = delete;

  // The id of `answer` for `query`, writing it if it is new; -1 on a write
  // error. Equal answers are recognised by their exact-bits hash.
  int Keep(int query, const Answer& answer) {
    const auto key = std::make_pair(query, HashAnswer(answer));
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    if (file_ == nullptr || std::fseek(file_, 0, SEEK_END) != 0) return -1;
    const long offset = std::ftell(file_);
    const uint64_t header[5] = {answer.scalar ? 1u : 0u,
                                static_cast<uint64_t>(answer.count),
                                answer.key_width, answer.keys.size(),
                                answer.values.size()};
    const uint64_t value_width = answer.value_width;
    if (!Write(header, sizeof(header)) ||
        !Write(&value_width, sizeof(value_width)) ||
        !Write(answer.keys.data(), answer.keys.size() * sizeof(int64_t)) ||
        !Write(answer.values.data(), answer.values.size() * sizeof(double))) {
      return -1;
    }
    offsets_.push_back(offset);
    return ids_[key] = static_cast<int>(offsets_.size()) - 1;
  }

  bc::Result<Answer> Load(int id) {
    uint64_t header[5] = {};
    uint64_t value_width = 0;
    if (std::fseek(file_, offsets_[id], SEEK_SET) != 0 ||
        !Read(header, sizeof(header)) ||
        !Read(&value_width, sizeof(value_width))) {
      return bc::Status::Internal("cannot read a stored answer");
    }
    Answer answer;
    answer.scalar = header[0] != 0;
    answer.count = static_cast<int64_t>(header[1]);
    answer.key_width = header[2];
    answer.value_width = value_width;
    answer.keys.resize(header[3]);
    answer.values.resize(header[4]);
    if (!Read(answer.keys.data(), answer.keys.size() * sizeof(int64_t)) ||
        !Read(answer.values.data(), answer.values.size() * sizeof(double))) {
      return bc::Status::Internal("cannot read a stored answer");
    }
    return answer;
  }

 private:
  bool Write(const void* data, size_t bytes) {
    return bytes == 0 || std::fwrite(data, 1, bytes, file_) == bytes;
  }
  bool Read(void* data, size_t bytes) {
    return bytes == 0 || std::fread(data, 1, bytes, file_) == bytes;
  }

  std::FILE* file_;
  std::vector<long> offsets_;
  std::map<std::pair<int, uint64_t>, int> ids_;
};

struct ClientLog {
  std::vector<Request> requests;
  std::unique_ptr<AnswerStore> answers;
  bool store_failed = false;
  std::vector<double> queue_ms, plan_us, exec_ms;
  double finish_s = 0.0;
};

struct WriterLog {
  std::vector<double> batch_ms;
  std::vector<double> lag_ms;
  bool failed = false;
};

// Replays the batches on the replica and checks each completed request
// against the references of the versions in its window; marks the wrong ones,
// and among them those that equal the IN (-2) defect's reference.
bc::Status CheckAgainstReplica(uint64_t seed, int64_t batches,
                               std::vector<ClientLog>* clients,
                               const std::vector<wl::WorkloadQuery>& live) {
  BC_ASSIGN_OR_RETURN(Inputs replica, MakeInputs());
  if (replica.queries.size() != live.size()) {
    return bc::Status::Internal("replica generated a different query set");
  }
  for (size_t q = 0; q < live.size(); ++q) {
    if (replica.queries[q].sql != live[q].sql) {
      return bc::Status::Internal("replica generated a different query set");
    }
  }
  for (ClientLog& log : *clients) {
    for (Request& r : log.requests) {
      r.wrong = r.answer >= 0;  // until a version in its window matches
    }
  }
  bc::DataIngestor ingestor(replica.db.get());
  bc::Rng rng(Mix(seed, 0xba7c));
  // References keyed by (query, defect): those of queries that do not read
  // the fact table hold across versions.
  using Key = std::pair<int, bool>;
  std::map<Key, Answer> fixed;
  for (int64_t v = 0; v <= batches; ++v) {
    if (v > 0) {
      BC_RETURN_IF_ERROR(
          ingestor.IngestStationaryBatch(kFactTable, kBatchRows, &rng)
              .status());
    }
    std::map<Key, Answer> at_version;
    for (ClientLog& log : *clients) {
      // (answer id, defect) -> equals this version's reference.
      std::map<Key, bool> matches;
      auto matches_reference = [&](const Request& r,
                                   bool defect) -> bc::Result<bool> {
        auto match = matches.find({r.answer, defect});
        if (match != matches.end()) return match->second;
        std::map<Key, Answer>& memo =
            replica.reads_fact[r.query] ? at_version : fixed;
        auto ref = memo.find({r.query, defect});
        if (ref == memo.end()) {
          const mh::BoundQuery& query = replica.queries[r.query].query;
          BC_ASSIGN_OR_RETURN(Answer answer,
                              ReferenceAnswer(defect ? WithoutMinusTwo(query)
                                                     : query));
          ref = memo.emplace(Key{r.query, defect}, std::move(answer)).first;
        }
        BC_ASSIGN_OR_RETURN(const Answer got, log.answers->Load(r.answer));
        const bool same = SameAnswer(ref->second, got);
        matches.emplace(Key{r.answer, defect}, same);
        return same;
      };
      for (Request& r : log.requests) {
        if (!r.wrong || r.lo > v || r.hi < v) continue;
        BC_ASSIGN_OR_RETURN(const bool right, matches_reference(r, false));
        r.wrong = !right;
        if (r.wrong && replica.minus_two[r.query] && !r.in_minus_two) {
          BC_ASSIGN_OR_RETURN(r.in_minus_two, matches_reference(r, true));
        }
      }
    }
  }
  return bc::Status::Ok();
}

}  // namespace

bc::Result<Report> RunAeolusLive(const RunConfig& config) {
  Report report;
  BC_ASSIGN_OR_RETURN(Inputs in, MakeInputs());
  mh::Database& db = *in.db;
  const int num_queries = static_cast<int>(in.queries.size());
  const int64_t total_requests = kRequestsPerSecond * config.seconds;
  const int64_t batches = kBatchesPerSecond * config.seconds;

  // Each client's Zipf draws and think times, fixed before timing.
  std::vector<double> weights(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  std::vector<bool> scalar(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    scalar[q] = IsScalarCount(in.queries[q].query);
  }
  std::vector<std::vector<int>> picks(kClients);
  std::vector<std::vector<std::chrono::microseconds>> think(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::mt19937_64 rng(Mix(config.seed, 0xc11e + c));
    std::discrete_distribution<int> zipf(weights.begin(), weights.end());
    std::mt19937_64 think_rng(Mix(config.seed, 0x7417 + c));
    std::exponential_distribution<double> think_ms(1.0 / kThinkMeanMs);
    const int64_t share =
        total_requests / kClients + (c < total_requests % kClients ? 1 : 0);
    for (int64_t i = 0; i < share; ++i) {
      picks[c].push_back(zipf(rng));
      think[c].emplace_back(
          static_cast<int64_t>(std::llround(think_ms(think_rng) * 1e3)));
    }
  }

  std::vector<mh::BoundQuery> hint;
  for (const wl::WorkloadQuery& wq : in.evaluation.queries) {
    hint.push_back(wq.query);
  }
  mh::SchedulerOptions scheduler_options;
  scheduler_options.optimizer.max_dop = kMaxDop;
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
    BC_RETURN_IF_ERROR(bytecard->EnableIncrementalMaintenance(db));
    double lifecycle_s = lifecycle.ElapsedSeconds();
    if (rep == 0) {
      // Admission threshold from the workload itself (input preparation,
      // untimed): the heaviest ~20% of the slice by estimated peak
      // intermediate goes to the heavy lane.
      const mh::Optimizer optimizer(scheduler_options.optimizer);
      std::vector<double> peak_rows;
      for (const wl::WorkloadQuery& wq : in.queries) {
        mh::QueryContext context(bytecard.get());
        const mh::PhysicalPlan plan = optimizer.Plan(wq.query, &context);
        peak_rows.push_back(
            mh::QueryScheduler::EstimatedPeakRows(wq.query, plan));
      }
      scheduler_options.heavy_rows_threshold =
          std::max(1.0, Percentile(peak_rows, 0.8));
    }
    lifecycle.Restart();
    bytecard->StartServing(scheduler_options);
    lifecycle_s += lifecycle.ElapsedSeconds();
    setups.push_back(bootstrap_s + lifecycle_s);
  }
  db.SetStorageCostFactor(0);
  db.SetStorageBlockLatencyNanos(kBlockLatencyNanos);

  // Untimed warm pass over every query, then routes mined from its trace
  // (the first ingest epoch retires them).
  for (const wl::WorkloadQuery& wq : in.queries) {
    bytecard->Wait(bytecard->Submit(wq.sql, db));
  }
  bc::Stopwatch mine_timer;
  BC_RETURN_IF_ERROR(bytecard->MineRoutes(db).status());
  const double mine_routes_s = mine_timer.ElapsedSeconds();

  bc::DataIngestor ingestor(&db);
  ingestor.AddObserver(bytecard->feedback_manager());
  ingestor.AddObserver(bytecard->incremental_maintainer());
  const bc::incremental::IncrementalStats maintained_before =
      bytecard->incremental_maintainer()->stats();

  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>() : nullptr;
  std::atomic<int64_t> batches_started{0};
  std::atomic<int64_t> batches_done{0};
  std::vector<ClientLog> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[c].answers = std::make_unique<AnswerStore>(
        config.work_dir + "/answers-" + std::to_string(c) + ".bin");
  }
  WriterLog writer_log;
  std::atomic<uint64_t> next_request{1};
  std::mutex counters_mu;
  LayerCounters counters;  // guarded by counters_mu

  const auto t0 = std::chrono::steady_clock::now();
  bc::Stopwatch wall;
  std::thread writer([&] {
    bc::Rng rng(Mix(config.seed, 0xba7c));
    for (int64_t b = 0; b < batches; ++b) {
      const auto due = t0 + b * kBatchPace;
      std::this_thread::sleep_until(due);
      writer_log.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - due)
              .count());
      batches_started.fetch_add(1, std::memory_order_acq_rel);
      bc::Stopwatch timer;
      bool ok = false;
      {
        ScopedSpan span(tracer.get(), "ingest.batch", 0);
        ok = ingestor.IngestStationaryBatch(kFactTable, kBatchRows, &rng).ok();
      }
      writer_log.batch_ms.push_back(timer.ElapsedMillis());
      batches_done.fetch_add(1, std::memory_order_acq_rel);
      if (!ok) {
        writer_log.failed = true;
        return;
      }
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = clients[c];
      log.requests.reserve(picks[c].size());
      for (size_t i = 0; i < picks[c].size(); ++i) {
        if (i > 0) std::this_thread::sleep_for(think[c][i]);
        const int q = picks[c][i];
        Request r;
        r.query = q;
        const std::string& sql = in.queries[q].sql;
        const uint64_t id = next_request.fetch_add(1);
        r.lo = batches_done.load(std::memory_order_acquire);
        bc::Stopwatch timer;
        // Submit(sql) analyzes on this thread, then plans and enqueues.
        bc::Result<mh::ExecResult> result = [&] {
          ScopedSpan span(tracer.get(), "request", id);
          std::shared_ptr<mh::QueryTicket> ticket;
          {
            ScopedSpan s(tracer.get(), "scheduler.submit", id);
            ticket = bytecard->Submit(sql, db);
          }
          ScopedSpan s(tracer.get(), "scheduler.wait", id);
          return bytecard->Wait(ticket);
        }();
        r.latency_ms = timer.ElapsedMillis();
        r.hi = batches_started.load(std::memory_order_acquire);
        if (!result.ok()) {
          r.status = result.status();  // classified after the run
        } else {
          const mh::ExecStats& stats = result.value().stats;
          {
            std::lock_guard<std::mutex> lock(counters_mu);
            counters.Add(stats);
          }
          log.queue_ms.push_back(stats.queue_ms);
          log.plan_us.push_back(stats.plan_ms * 1e3);
          log.exec_ms.push_back(stats.exec_ms);
          r.answer = log.answers->Keep(q, AnswerOf(result.value(), scalar[q]));
          log.store_failed = log.store_failed || r.answer < 0;
        }
        log.requests.push_back(r);
      }
      log.finish_s = wall.ElapsedSeconds();
    });
  }
  for (std::thread& t : threads) t.join();
  writer.join();
  if (writer_log.failed) return bc::Status::Internal("ingest batch failed");
  double client_wall_s = 0.0;
  for (const ClientLog& log : clients) {
    if (log.store_failed) return bc::Status::Internal("cannot store answers");
    client_wall_s = std::max(client_wall_s, log.finish_s);
  }

  const double peak_rss_mb = PeakRssMb();  // before the replica exists

  // Outside timing: answers against the replica, then failures.
  BC_RETURN_IF_ERROR(
      CheckAgainstReplica(config.seed, batches, &clients, in.queries));
  FailureCounts& f = report.failures;
  std::vector<double> completed_ms, queue_ms, plan_us, exec_ms;
  for (const ClientLog& log : clients) {
    queue_ms.insert(queue_ms.end(), log.queue_ms.begin(), log.queue_ms.end());
    plan_us.insert(plan_us.end(), log.plan_us.begin(), log.plan_us.end());
    exec_ms.insert(exec_ms.end(), log.exec_ms.begin(), log.exec_ms.end());
    for (const Request& r : log.requests) {
      ++report.attempted;
      const std::string& sql = in.queries[r.query].sql;
      if (!r.status.ok()) {
        // A refusal is exactly the analyzer's own verdict on the text;
        // anything else is an error.
        const bc::Result<mh::BoundQuery> analyzed = bc::sql::AnalyzeSql(sql, db);
        if (!analyzed.ok() && analyzed.status().code() == r.status.code() &&
            analyzed.status().message() == r.status.message()) {
          ++f.refused;
          if (IsCountKeywordRefusal(sql, r.status)) ++f.known_count_keyword;
        } else {
          ++f.errors;
        }
      } else if (r.wrong) {
        ++f.wrong;
        if (r.in_minus_two) ++f.known_in_minus_two;
      } else {
        // Latency covers requests that completed with a right answer.
        completed_ms.push_back(r.latency_ms);
      }
    }
  }

  report.E2e("setup_s", Median(setups) + mine_routes_s);
  report.E2e("query_p50_ms", Percentile(completed_ms, 0.5));
  report.E2e("query_p90_ms", Percentile(completed_ms, 0.9));
  report.E2e("qps", static_cast<double>(completed_ms.size()) / client_wall_s);
  report.Note("latency samples: " + std::to_string(completed_ms.size()) +
              " of " + std::to_string(report.attempted) + " requests over " +
              std::to_string(num_queries) + " queries, " +
              std::to_string(batches) + " batches of " +
              std::to_string(kBatchRows) + " rows");
  report.Note("ingest batch p50 " +
              std::to_string(Percentile(writer_log.batch_ms, 0.5)) +
              " ms over " + std::to_string(writer_log.batch_ms.size()) +
              " batches");

  report.E2e("peak_rss_mb", peak_rss_mb);
  BC_RETURN_IF_ERROR(
      ReportQError(bytecard.get(), in.evaluation, tracer.get(), &report));
  report.E2e("storage_ratio", StorageRatio(db));

  if (tracer != nullptr) {
    const bc::incremental::IncrementalStats maintained =
        bytecard->incremental_maintainer()->stats();
    const int64_t applied =
        maintained.batches_applied - maintained_before.batches_applied;
    const std::vector<double> submit_us =
        tracer->DurationsMicros("scheduler.submit");
    // The analyzer and the optimizer run inside Submit(sql), out of the
    // benchmark's reach: the scheduler.submit span holds them, and plan time
    // is read from ExecStats.
    report.Layer("sql.analyze_us", 0.0);
    report.Layer("sql.refused", static_cast<double>(f.refused));
    report.Layer("optimizer.plan_us", Percentile(plan_us, 0.5));
    report.Layer("optimizer.estimate_share", 0.0);
    report.Layer("executor.exec_ms", Percentile(exec_ms, 0.5));
    counters.Report(&report);
    report.Layer("scheduler.submit_us", Percentile(submit_us, 0.5));
    report.Layer("scheduler.queue_ms_p50", Percentile(queue_ms, 0.5));
    report.Layer("scheduler.queue_ms_p90", Percentile(queue_ms, 0.9));
    report.Layer("ingest.batch_ms_p50", Percentile(writer_log.batch_ms, 0.5));
    report.Layer("ingest.batch_ms_p90", Percentile(writer_log.batch_ms, 0.9));
    report.Layer("ingest.maintain_ms",
                 applied == 0 ? 0.0
                              : (maintained.maintenance_seconds -
                                 maintained_before.maintenance_seconds) *
                                    1e3 / static_cast<double>(applied));
    report.Layer("ingest.writer_lag_ms", Percentile(writer_log.lag_ms, 0.5));
    report.Layer("ingest.snapshots_published",
                 static_cast<double>(maintained.snapshots_published -
                                     maintained_before.snapshots_published));
    ReportLifecycle(*bytecard, bootstrap_s, mine_routes_s * 1e3, &report);
    ReportSpans(*tracer, &report);
    BC_RETURN_IF_ERROR(tracer->Write(config.work_dir + "/spans.jsonl"));
  }
  bytecard->StopServing();
  return report;
}

}  // namespace perfbench
