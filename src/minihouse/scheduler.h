#ifndef BYTECARD_MINIHOUSE_SCHEDULER_H_
#define BYTECARD_MINIHOUSE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "minihouse/executor.h"
#include "minihouse/optimizer.h"
#include "minihouse/query.h"
#include "minihouse/query_context.h"

namespace bytecard::minihouse {

class Database;

struct SchedulerOptions {
  // Planner configuration for queries submitted through the scheduler.
  OptimizerOptions optimizer;

  // Admission threshold: a query whose largest estimated intermediate
  // (filtered scan output, join prefix cardinality, or group NDV) reaches
  // this many rows is admitted to the heavy lane; everything below runs on
  // the fast lane. The estimates are the ones the optimizer already priced
  // while planning — classification costs zero extra estimator calls.
  double heavy_rows_threshold = 256.0 * 1024;

  // Morsel tokens per heavy query: how many pool helpers its operators may
  // hold concurrently (its own thread is always free), so one huge join
  // cannot occupy every worker while point queries wait. Fast queries keep
  // the unlimited fan-out.
  int heavy_morsel_tokens = 2;

  // SQL front door (see QueryScheduler::Submit(sql, db)): the analyzer run
  // on the submitting thread. Injected as a function so the engine layer
  // does not depend on the SQL library; ByteCard::StartServing wires the
  // default sql::AnalyzeSql. Null rejects SQL submissions with
  // InvalidArgument through the ticket.
  std::function<Result<BoundQuery>(const std::string&, const Database&)>
      sql_analyzer;
};

// One submitted query's handle: created by Submit, redeemed by Wait. The
// ticket owns everything the query needs in flight — the bound query copy,
// the plan, the QueryContext (pinned snapshot + lane + budget + stats) — so
// the submitting thread is free immediately and nothing aliases scheduler
// state.
class QueryTicket {
 public:
  // Read after Wait returned: the admission decision and queueing delay
  // (also merged into the result's ExecStats).
  common::TaskLane lane() const { return context_.lane(); }
  double queue_ms() const { return context_.stats().queue_ms; }

 private:
  friend class QueryScheduler;
  explicit QueryTicket(CardinalityEstimator* estimator)
      : context_(estimator) {}

  BoundQuery query_;
  PhysicalPlan plan_;
  QueryContext context_;
  Stopwatch queued_;  // restarted at enqueue; read at execution start

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Result<ExecResult> result_ = Status::Internal("query still in flight");
};

// Aggregate serving counters (monotonic, atomically maintained).
struct SchedulerCounters {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t fast_admitted = 0;
  int64_t heavy_admitted = 0;
};

// The concurrent serving front-end: N client threads Submit bound queries;
// each is planned on the submitting thread (planning runs concurrently,
// every query pinning its own model snapshot), classified from its own
// estimated intermediate cardinalities, and executed as a task on the shared
// two-lane pool. Heavy-classified queries queue behind the pool's heavy cap
// and run with a small morsel budget; fast queries run unrestricted and are
// drained first. Results are byte-identical to serial execution — admission
// changes only *when* a query runs, never its plan semantics.
//
// Thread-safe: Submit/Wait may be called from any number of threads, and
// model lifecycle operations (RefreshModels, RetrainTable, ProcessFeedback)
// may run concurrently — each in-flight query keeps serving from the
// snapshot it pinned at plan time. Destruction blocks until every submitted
// query finished.
class QueryScheduler {
 public:
  // `estimator` must outlive the scheduler; `pool` may be null for the
  // global pool.
  QueryScheduler(CardinalityEstimator* estimator, SchedulerOptions options,
                 common::ThreadPool* pool = nullptr);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Plans `query`, decides its lane, and enqueues it for execution. Returns
  // immediately with the ticket to Wait on. `query`'s tables must stay valid
  // until Wait returns (the BoundQuery itself is copied).
  std::shared_ptr<QueryTicket> Submit(const BoundQuery& query);

  // SQL front door: runs the configured analyzer against `db` on the calling
  // thread, then submits the bound query. Analysis errors (parse failure,
  // unknown table/column, no analyzer configured) surface as the ticket's
  // result — Wait returns the error Status; the ticket is never null and
  // never reaches the pool.
  std::shared_ptr<QueryTicket> Submit(const std::string& sql,
                                      const Database& db);

  // Blocks until the ticket's query finished; returns its result. Each
  // ticket is redeemed once.
  Result<ExecResult> Wait(const std::shared_ptr<QueryTicket>& ticket);

  // Convenience: Submit + Wait (still schedules through the lanes).
  Result<ExecResult> Execute(const BoundQuery& query);

  // The classification input: the largest intermediate cardinality the plan
  // predicts (filtered scan outputs, join-prefix estimates, group NDV hint).
  // Static so benches can survey a workload and pick a threshold.
  static double EstimatedPeakRows(const BoundQuery& query,
                                  const PhysicalPlan& plan);

  // The lane `plan` would be admitted to (exposed for tests/benches).
  common::TaskLane Classify(const BoundQuery& query,
                            const PhysicalPlan& plan) const;

  SchedulerCounters counters() const;
  int64_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  const SchedulerOptions& options() const { return options_; }

 private:
  void Run(const std::shared_ptr<QueryTicket>& ticket);
  // A pre-failed ticket: done_ already set, `status` as its result, nothing
  // enqueued and no counters touched (the query never entered the system).
  std::shared_ptr<QueryTicket> FailedTicket(Status status);

  CardinalityEstimator* const estimator_;
  const SchedulerOptions options_;
  const Optimizer optimizer_;
  common::ThreadPool* const pool_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> fast_admitted_{0};
  std::atomic<int64_t> heavy_admitted_{0};

  std::atomic<int64_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_SCHEDULER_H_
