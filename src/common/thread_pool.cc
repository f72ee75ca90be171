#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "common/logging.h"

namespace bytecard::common {

ThreadPool::ThreadPool(int num_workers, int heavy_cap) {
  num_workers = std::max(0, num_workers);
  // Default cap: half the workers, floored at one, so a saturated heavy lane
  // leaves at least one worker (on pools of >= 2) drained exclusively from
  // the fast queue.
  heavy_cap_ = heavy_cap >= 0 ? heavy_cap : std::max(1, num_workers / 2);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task,
                                     TaskLane lane) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    BC_CHECK(!stop_);
    (lane == TaskLane::kHeavy ? heavy_queue_ : fast_queue_)
        .push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

int ThreadPool::heavy_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heavy_running_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    bool heavy = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !fast_queue_.empty() ||
               (!heavy_queue_.empty() && heavy_running_ < heavy_cap_) || stop_;
      });
      // Fast lane drains first; heavy tasks run only under the cap. On stop,
      // keep draining both queues so every submitted future completes —
      // destruction never abandons work.
      if (!fast_queue_.empty()) {
        task = std::move(fast_queue_.front());
        fast_queue_.pop_front();
      } else if (!heavy_queue_.empty() && (heavy_running_ < heavy_cap_ || stop_)) {
        task = std::move(heavy_queue_.front());
        heavy_queue_.pop_front();
        heavy = true;
        ++heavy_running_;
      } else {
        return;  // stop_ with both queues drained
      }
    }
    task();
    if (heavy) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        --heavy_running_;
      }
      // A heavy slot opened up; another worker may now take a heavy task.
      cv_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  // Workers = budget - 1: the caller participating in ParallelMorsels is the
  // remaining drainer.
  static ThreadPool pool(std::max(HardwareParallelism(), kDefaultMaxDop) - 1);
  return pool;
}

int HardwareParallelism() {
  static const int n = [] {
    if (const char* env = std::getenv("BYTECARD_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) return std::min(v, 256);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return n;
}

namespace {

// Shared state of one fan-out. Helpers and the caller pull morsels from
// `next`; `closed` flips once the caller has drained everything, telling
// helpers that have not started yet to abandon without running `fn`.
struct MorselDrainState {
  explicit MorselDrainState(int64_t morsel_count) : count(morsel_count) {}

  const int64_t count;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;  // helpers that began draining (caller waits for these)
  int finished = 0;
  bool closed = false;
};

}  // namespace

void ParallelMorsels(ThreadPool& pool, int64_t morsel_count, int dop,
                     const MorselPolicy& policy,
                     const std::function<void(int64_t, int)>& fn) {
  if (morsel_count <= 0) return;
  dop = static_cast<int>(std::min<int64_t>(dop, morsel_count));
  // The caller is always one drainer; never submit more helpers than the
  // pool has workers (on a worker-less pool those tasks would sit queued
  // until the pool is destroyed).
  dop = std::min(dop, pool.num_workers() + 1);
  int helpers = dop - 1;
  // Per-query budget: every helper beyond the caller costs one token. A
  // drained budget degrades to inline — the query still progresses on its
  // own thread, it just stops fanning out.
  if (helpers > 0 && policy.budget != nullptr) {
    helpers = policy.budget->TryAcquire(helpers);
  }
  if (helpers <= 0) {
    for (int64_t m = 0; m < morsel_count; ++m) fn(m, 0);
    return;
  }

  auto state = std::make_shared<MorselDrainState>(morsel_count);
  auto drain = [&fn, state](int slot) {
    for (int64_t m; (m = state->next.fetch_add(
                         1, std::memory_order_relaxed)) < state->count;) {
      fn(m, slot);
    }
  };
  for (int slot = 1; slot <= helpers; ++slot) {
    // Helper futures are deliberately dropped: completion is tracked through
    // the shared state so the caller never blocks on a helper that hasn't
    // started (that wait could deadlock when the caller itself occupies a
    // pool worker). `fn` outlives every *started* helper because the caller
    // below waits for started == finished before returning; a helper that
    // finds the fan-out closed touches only `state` (shared ownership), so
    // it may safely run after the caller — and the whole query — are gone.
    pool.Submit(
        [drain, state, slot] {
          {
            std::lock_guard<std::mutex> lock(state->mu);
            if (state->closed) return;
            ++state->started;
          }
          drain(slot);
          {
            std::lock_guard<std::mutex> lock(state->mu);
            ++state->finished;
          }
          state->cv.notify_all();
        },
        policy.lane);
  }

  drain(0);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->closed = true;
    state->cv.wait(lock,
                   [&state] { return state->finished == state->started; });
  }
  // Fan-outs within a query are sequential, so returning the whole grant
  // here (rather than per-helper) is equivalent — and it keeps abandoned
  // helpers from ever touching the per-query budget after the query died.
  if (policy.budget != nullptr) policy.budget->Release(helpers);
}

}  // namespace bytecard::common
