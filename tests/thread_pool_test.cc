// Tests for the shared worker pool and the morsel-drain primitive the
// parallel executor is built on.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

namespace bytecard::common {
namespace {

TEST(ThreadPoolTest, SubmitRunsTasksAndFuturesComplete) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  futures.reserve(64);
  for (int i = 0; i < 64; ++i) {
    futures.push_back(
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool joins workers only after the queue is empty
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPoolThreads) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(1);
  std::atomic<bool> on_worker{false};
  pool.Submit([&] { on_worker = ThreadPool::OnWorkerThread(); }).get();
  EXPECT_TRUE(on_worker.load());
}

TEST(ParallelMorselsTest, CoversEveryMorselExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kMorsels = 1000;
  // Each morsel is claimed by exactly one drainer, so these per-morsel
  // writes are race-free — which is itself part of the contract under test
  // (the sanitizer build would flag any double execution).
  std::vector<int> hits(kMorsels, 0);
  std::vector<int> slot_of(kMorsels, -1);
  ParallelMorsels(pool, kMorsels, 5, [&](int64_t m, int slot) {
    hits[m] += 1;
    slot_of[m] = slot;
  });
  for (int64_t m = 0; m < kMorsels; ++m) {
    ASSERT_EQ(hits[m], 1) << "morsel " << m;
    EXPECT_GE(slot_of[m], 0);
    EXPECT_LT(slot_of[m], 5);
  }
}

TEST(ParallelMorselsTest, DopClampedToMorselCount) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<int> slots;
  ParallelMorsels(pool, 2, 8, [&](int64_t, int slot) {
    std::lock_guard<std::mutex> lock(mu);
    slots.insert(slot);
  });
  for (int s : slots) EXPECT_LT(s, 2);
}

TEST(ParallelMorselsTest, DopClampedToPoolWorkersPlusCaller) {
  // A worker-less pool must not receive tasks nobody would run: the caller
  // drains everything inline.
  ThreadPool pool(0);
  std::vector<int> slot_of(16, -1);
  ParallelMorsels(pool, 16, 8, [&](int64_t m, int slot) { slot_of[m] = slot; });
  for (int64_t m = 0; m < 16; ++m) EXPECT_EQ(slot_of[m], 0);
}

TEST(ParallelMorselsTest, SerialWhenDopOne) {
  std::vector<int64_t> order;
  ParallelMorsels(5, 1, [&](int64_t m, int slot) {
    EXPECT_EQ(slot, 0);
    order.push_back(m);
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelMorselsTest, ZeroMorselsIsNoOp) {
  bool called = false;
  ParallelMorsels(0, 4, [&](int64_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelMorselsTest, NestedFanOutFromWorkerCompletesWithoutDeadlock) {
  // A pool task fanning out again must not deadlock even when no other
  // worker is free: helpers are abandonable, so the nested caller drains
  // every morsel itself in the worst case and never waits on a helper that
  // could not start.
  ThreadPool pool(1);
  std::atomic<int64_t> inner_sum{0};
  pool.Submit([&] {
        ParallelMorsels(pool, 8, 4, [&](int64_t m, int) {
          inner_sum.fetch_add(m, std::memory_order_relaxed);
        });
      })
      .get();
  EXPECT_EQ(inner_sum.load(), 28);
}

TEST(ParallelMorselsTest, DeepNestedFanOutCompletes) {
  // Queries run as pool tasks under the scheduler, so every operator
  // fan-out is nested; pile three levels on a small pool.
  ThreadPool pool(2);
  std::atomic<int64_t> leaf{0};
  pool.Submit([&] {
        ParallelMorsels(pool, 4, 3, [&](int64_t, int) {
          ParallelMorsels(pool, 4, 3, [&](int64_t, int) {
            leaf.fetch_add(1, std::memory_order_relaxed);
          });
        });
      })
      .get();
  EXPECT_EQ(leaf.load(), 16);
}

TEST(ThreadPoolTest, HeavyLaneRespectsCapWhileFastLaneFlows) {
  // 4 workers, heavy cap 1: park a long heavy task plus a queued heavy task;
  // fast tasks must still run even while a second heavy task is waiting.
  ThreadPool pool(4, /*heavy_cap=*/1);
  EXPECT_EQ(pool.heavy_cap(), 1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;
  std::atomic<int> heavy_concurrent{0};
  std::atomic<int> heavy_peak{0};
  auto heavy_task = [&] {
    const int now = heavy_concurrent.fetch_add(1, std::memory_order_acq_rel) + 1;
    int peak = heavy_peak.load(std::memory_order_relaxed);
    while (now > peak &&
           !heavy_peak.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
    }
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return release; });
    heavy_concurrent.fetch_sub(1, std::memory_order_acq_rel);
  };
  auto h1 = pool.Submit(heavy_task, TaskLane::kHeavy);
  auto h2 = pool.Submit(heavy_task, TaskLane::kHeavy);
  // While heavy work is blocked at the cap, the fast lane still completes.
  std::atomic<int> fast_ran{0};
  std::vector<std::future<void>> fast;
  for (int i = 0; i < 8; ++i) {
    fast.push_back(pool.Submit(
        [&fast_ran] { fast_ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : fast) f.get();
  EXPECT_EQ(fast_ran.load(), 8);
  EXPECT_LE(pool.heavy_running(), 1);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  h1.get();
  h2.get();
  EXPECT_EQ(heavy_peak.load(), 1) << "heavy cap was exceeded";
}

TEST(ThreadPoolTest, MorselBudgetTokenBucket) {
  MorselBudget budget(3);
  EXPECT_EQ(budget.TryAcquire(2), 2);
  EXPECT_EQ(budget.TryAcquire(5), 1);  // partial grant of the remainder
  EXPECT_EQ(budget.TryAcquire(1), 0);  // empty
  budget.Release(3);
  EXPECT_EQ(budget.available(), 3);
}

TEST(ParallelMorselsTest, ZeroBudgetDegradesToInlineAndRestores) {
  ThreadPool pool(4);
  MorselBudget budget(0);
  MorselPolicy policy;
  policy.budget = &budget;
  std::vector<int> slot_of(32, -1);
  ParallelMorsels(pool, 32, 4, policy,
                  [&](int64_t m, int slot) { slot_of[m] = slot; });
  for (int64_t m = 0; m < 32; ++m) EXPECT_EQ(slot_of[m], 0);
  EXPECT_EQ(budget.available(), 0);

  // With tokens, helpers may fan out — and every token comes back.
  budget.Reset(2);
  std::atomic<int64_t> sum{0};
  ParallelMorsels(pool, 100, 4, policy, [&](int64_t m, int slot) {
    EXPECT_LT(slot, 3);  // caller + at most 2 budgeted helpers
    sum.fetch_add(m, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
  EXPECT_EQ(budget.available(), 2);
}

TEST(ParallelMorselsTest, GlobalPoolServesDefaultMaxDop) {
  EXPECT_GE(HardwareParallelism(), 1);
  // Global pool is floored at kDefaultMaxDop - 1 workers so explicit dop
  // requests up to kDefaultMaxDop overlap even on small machines.
  EXPECT_GE(ThreadPool::Global().num_workers(), kDefaultMaxDop - 1);
  std::atomic<int64_t> sum{0};
  ParallelMorsels(100, kDefaultMaxDop, [&](int64_t m, int) {
    sum.fetch_add(m, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

}  // namespace
}  // namespace bytecard::common
