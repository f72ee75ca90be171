#include "minihouse/scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace bytecard::minihouse {

QueryScheduler::QueryScheduler(CardinalityEstimator* estimator,
                               SchedulerOptions options,
                               common::ThreadPool* pool)
    : estimator_(estimator),
      options_(std::move(options)),
      optimizer_(options_.optimizer),
      pool_(pool != nullptr ? pool : &common::ThreadPool::Global()) {
  BC_CHECK(estimator_ != nullptr);
}

QueryScheduler::~QueryScheduler() {
  // Drain: every submitted query holds its ticket via shared_ptr, so tickets
  // survive us, but Run reads scheduler counters — block until the last one
  // finished.
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

double QueryScheduler::EstimatedPeakRows(const BoundQuery& query,
                                         const PhysicalPlan& plan) {
  // Largest estimated intermediate the query will materialize, taken from
  // numbers the optimizer already computed while planning: filtered scan
  // outputs, every join-prefix cardinality it priced, and the group NDV
  // hint. No estimator call happens here.
  double largest = 0.0;
  const size_t n = std::min(query.tables.size(), plan.scans.size());
  for (size_t i = 0; i < n; ++i) {
    const double scan_rows =
        static_cast<double>(query.tables[i].table->num_rows()) *
        plan.scans[i].estimated_selectivity;
    largest = std::max(largest, scan_rows);
  }
  for (const auto& [fingerprint, rows] : plan.join_estimates) {
    (void)fingerprint;
    largest = std::max(largest, rows);
  }
  return std::max(largest, static_cast<double>(plan.group_ndv_hint));
}

common::TaskLane QueryScheduler::Classify(const BoundQuery& query,
                                          const PhysicalPlan& plan) const {
  return EstimatedPeakRows(query, plan) >= options_.heavy_rows_threshold
             ? common::TaskLane::kHeavy
             : common::TaskLane::kFast;
}

std::shared_ptr<QueryTicket> QueryScheduler::Submit(const BoundQuery& query) {
  // Planning runs here, on the submitting thread: N clients plan N queries
  // concurrently, each against its own pinned snapshot (the ticket's
  // QueryContext), with no shared mutable state between them.
  std::shared_ptr<QueryTicket> ticket(new QueryTicket(estimator_));
  ticket->query_ = query;
  common::TaskLane lane = common::TaskLane::kFast;
  {
    // Read-latch the referenced tables for the planning and admission window
    // so zone maps and row counts are not mid-append (Classify reads
    // num_rows); Run's ExecuteQuery re-acquires for execution (never nested —
    // shared_mutex is not recursive).
    TableReadGuard table_guard(ticket->query_);
    ticket->plan_ = optimizer_.Plan(ticket->query_, &ticket->context_);
    lane = Classify(ticket->query_, ticket->plan_);
  }
  const bool heavy = lane == common::TaskLane::kHeavy;
  ticket->context_.SetAdmission(
      lane, heavy ? options_.heavy_morsel_tokens
                  : common::MorselBudget::kUnlimited);

  submitted_.fetch_add(1, std::memory_order_relaxed);
  (heavy ? heavy_admitted_ : fast_admitted_)
      .fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  ticket->queued_.Restart();
  pool_->Submit([this, ticket] { Run(ticket); }, lane);
  return ticket;
}

std::shared_ptr<QueryTicket> QueryScheduler::FailedTicket(Status status) {
  std::shared_ptr<QueryTicket> ticket(new QueryTicket(estimator_));
  ticket->result_ = std::move(status);
  ticket->done_ = true;  // pre-publication: no other thread sees the ticket
  return ticket;
}

std::shared_ptr<QueryTicket> QueryScheduler::Submit(const std::string& sql,
                                                    const Database& db) {
  if (options_.sql_analyzer == nullptr) {
    return FailedTicket(Status::InvalidArgument(
        "scheduler has no SQL analyzer configured"));
  }
  // Analysis runs on the submitting thread, like planning: N clients parse
  // and bind N statements concurrently against the immutable catalog.
  Result<BoundQuery> bound = options_.sql_analyzer(sql, db);
  if (!bound.ok()) return FailedTicket(bound.status());
  return Submit(bound.value());
}

Result<ExecResult> QueryScheduler::Wait(
    const std::shared_ptr<QueryTicket>& ticket) {
  BC_CHECK(ticket != nullptr);
  std::unique_lock<std::mutex> lock(ticket->mu_);
  ticket->cv_.wait(lock, [&] { return ticket->done_; });
  return ticket->result_;
}

Result<ExecResult> QueryScheduler::Execute(const BoundQuery& query) {
  return Wait(Submit(query));
}

void QueryScheduler::Run(const std::shared_ptr<QueryTicket>& ticket) {
  ticket->context_.mutable_stats()->queue_ms = ticket->queued_.ElapsedMillis();
  Result<ExecResult> result =
      ExecuteQuery(ticket->query_, ticket->plan_, &ticket->context_);

  // Scheduler accounting strictly before the ticket is published: the moment
  // done_ becomes visible, a Wait-er may read counters — or destroy the
  // scheduler — so nothing after this block may touch `this`. Execution has
  // already finished; only the ticket (kept alive by this task's shared_ptr)
  // is written below.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    completed_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_release);
    drain_cv_.notify_all();
  }

  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->result_ = std::move(result);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();
}

SchedulerCounters QueryScheduler::counters() const {
  SchedulerCounters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.fast_admitted = fast_admitted_.load(std::memory_order_relaxed);
  c.heavy_admitted = heavy_admitted_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace bytecard::minihouse
