#ifndef BYTECARD_COMMON_THREAD_POOL_H_
#define BYTECARD_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace bytecard::common {

// Which dispatch queue a task lands in. The scheduler classifies whole
// queries from their estimated intermediate cardinalities; every task a
// query spawns (the query itself plus its morsel helpers) inherits the
// query's lane.
enum class TaskLane {
  kFast = 0,   // point queries and their morsels: drained first, never capped
  kHeavy = 1,  // big estimated intermediates: at most heavy_cap workers
};

// Per-query cap on concurrent pool helpers: a token bucket the query's
// ParallelMorsels calls draw from before submitting helper tasks. The
// calling thread never needs a token (a query always progresses on its own
// thread), so a budget of 0 degrades that query to serial execution without
// ever blocking it — which is exactly how a heavy join is kept from
// occupying every worker while point queries wait.
class MorselBudget {
 public:
  // Effectively "no cap" — larger than any dop the optimizer hands out.
  static constexpr int kUnlimited = 1 << 20;

  explicit MorselBudget(int tokens = kUnlimited) : available_(tokens) {}

  MorselBudget(const MorselBudget&) = delete;
  MorselBudget& operator=(const MorselBudget&) = delete;

  // Re-arms the bucket; only valid while no helpers are outstanding.
  void Reset(int tokens) {
    available_.store(tokens, std::memory_order_relaxed);
  }

  // Grabs up to `want` tokens; returns how many were granted (possibly 0).
  int TryAcquire(int want) {
    int have = available_.load(std::memory_order_relaxed);
    while (have > 0) {
      const int take = want < have ? want : have;
      if (available_.compare_exchange_weak(have, have - take,
                                           std::memory_order_acq_rel)) {
        return take;
      }
    }
    return 0;
  }

  void Release(int n) { available_.fetch_add(n, std::memory_order_acq_rel); }

  int available() const { return available_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> available_;
};

// How one ParallelMorsels fan-out is scheduled: the lane its helper tasks
// are queued on and the query's helper budget (null = unbudgeted). A
// default-constructed policy reproduces the pre-scheduler behaviour — fast
// lane, no cap.
struct MorselPolicy {
  TaskLane lane = TaskLane::kFast;
  MorselBudget* budget = nullptr;
};

// Fixed-size worker pool shared engine-wide, organized as a two-lane queued
// dispatcher: every task is submitted to the fast or the heavy lane. Workers
// always drain the fast lane first, and at most `heavy_cap` workers run
// heavy-lane tasks concurrently, so heavy queries queue behind each other
// instead of occupying the whole pool — the remaining workers stay available
// to point queries no matter how deep the heavy backlog grows.
//
// Tasks are plain void() callables; Submit returns a future the caller may
// wait on. The pool is deliberately minimal — the executor's parallelism
// comes from ParallelMorsels below, which keeps the *calling* thread as one
// of the drainers so progress never depends on a free worker.
class ThreadPool {
 public:
  // `heavy_cap` < 0 picks the default: half the workers, floored at one, so
  // a saturated heavy lane can never take the last fast-lane worker (pools
  // with >= 2 workers).
  explicit ThreadPool(int num_workers, int heavy_cap = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  int heavy_cap() const { return heavy_cap_; }

  std::future<void> Submit(std::function<void()> task,
                           TaskLane lane = TaskLane::kFast);

  // Workers currently executing a heavy-lane task.
  int heavy_running() const;

  // The engine-wide shared pool, created on first use. Sized from
  // BYTECARD_THREADS when set (CI pins worker counts this way), otherwise
  // max(hardware threads, kDefaultMaxDop) so that explicit dop requests up
  // to the Fig 5 sweep's 8 overlap storage waits even on small machines.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> fast_queue_;
  std::deque<std::packaged_task<void()>> heavy_queue_;
  int heavy_running_ = 0;
  int heavy_cap_ = 1;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Highest dop the optimizer hands out without an explicit override, and the
// floor for the global pool's concurrency (callers may request up to this
// even on machines reporting fewer hardware threads).
inline constexpr int kDefaultMaxDop = 8;

// Configured parallelism budget: the BYTECARD_THREADS override when set,
// otherwise std::thread::hardware_concurrency(). Always >= 1. This is what
// the optimizer treats as "one machine's worth" of threads.
int HardwareParallelism();

// Morsel-driven drain: runs fn(morsel, slot) for every morsel in
// [0, morsel_count), with up to `dop` concurrent drainers pulling morsels
// from a shared counter. The calling thread is drainer slot 0; slots
// 1..dop-1 are *helper* tasks submitted to `pool` on policy.lane, gated by
// policy.budget. Returns after every morsel completed (the caller's writes
// in fn happen-before the return).
//
// Helpers are abandonable: one that has not started by the time the caller
// finishes draining simply returns when it eventually runs, and the caller
// never waits for it. The caller therefore blocks only on helpers that
// actually began work — so fanning out from *inside* a pool task is safe
// (no nested-submit deadlock: worst case every helper is abandoned and the
// calling task drains all morsels itself).
//
// dop <= 1, a single morsel, an exhausted budget, or a worker-less pool all
// run inline on the caller.
void ParallelMorsels(ThreadPool& pool, int64_t morsel_count, int dop,
                     const MorselPolicy& policy,
                     const std::function<void(int64_t, int)>& fn);

}  // namespace bytecard::common

#endif  // BYTECARD_COMMON_THREAD_POOL_H_
