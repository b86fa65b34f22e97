#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

namespace cav {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10007;  // prime, not divisible by chunking
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForSmallerThanPool) {
  ThreadPool pool(16);
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, SequentialParallelForCalls) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(100, [&sum](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 10L * (99L * 100L / 2L));
}

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ThreadCountDefaultsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1U);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // The same computation on 1 and 8 threads must agree (determinism of the
  // work itself; scheduling must not matter).
  const std::size_t n = 1000;
  std::vector<double> out1(n);
  std::vector<double> out8(n);
  {
    ThreadPool pool(1);
    pool.parallel_for(n, [&out1](std::size_t i) { out1[i] = static_cast<double>(i) * 1.5; });
  }
  {
    ThreadPool pool(8);
    pool.parallel_for(n, [&out8](std::size_t i) { out8[i] = static_cast<double>(i) * 1.5; });
  }
  EXPECT_EQ(out1, out8);
}

TEST(ThreadPool, ParallelForRangesCoversEveryIndexOnce) {
  // Ranges must tile [0, n) exactly: every index visited once, no overlap,
  // for sizes around the chunking boundaries.
  for (const std::size_t n : {0UL, 1UL, 7UL, 64UL, 1000UL}) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v.store(0);
    pool.parallel_for_ranges(n, [&visits](std::size_t begin, std::size_t end) {
      ASSERT_LE(begin, end);
      for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " of n=" << n;
    }
  }
}

TEST(ThreadPool, ParallelForRangesSupportsPerRangePartials) {
  // The pattern the solvers rely on: chunk-local accumulation with one
  // shared combine per range.
  const std::size_t n = 500;
  ThreadPool pool(4);
  std::atomic<long long> total{0};
  pool.parallel_for_ranges(n, [&total](std::size_t begin, std::size_t end) {
    long long local = 0;
    for (std::size_t i = begin; i < end; ++i) local += static_cast<long long>(i);
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, NestedParallelForOnEveryWorkerCompletes) {
  // Every worker is inside a task when it calls parallel_for on its own
  // pool, so no worker is free to help: each nested call must finish on
  // its calling thread, and the helpers it queued run after it returned.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kInner = 1000;
  ThreadPool pool(kWorkers);
  std::latch all_inside(kWorkers);
  std::vector<std::atomic<int>> hits(kWorkers * kInner);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.submit([&, w] {
      all_inside.arrive_and_wait();
      pool.parallel_for(kInner, [&, w](std::size_t i) { hits[w * kInner + i].fetch_add(1); });
    });
  }
  pool.wait_idle();
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(ThreadPool, ConcurrentCallersWaitOnlyForTheirOwnChunks) {
  // Caller A's chunks cannot finish until caller B's parallel_for has
  // returned, so B must not wait for A's work.  Both callers then run
  // rounds side by side on the one pool.
  ThreadPool pool(4);
  std::atomic<bool> b_returned{false};
  std::atomic<long> a_sum{0};
  std::atomic<long> b_sum{0};
  std::thread a([&] {
    pool.parallel_for(8, [&](std::size_t i) {
      while (!b_returned.load()) std::this_thread::yield();
      a_sum.fetch_add(static_cast<long>(i));
    });
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(100, [&](std::size_t i) { a_sum.fetch_add(static_cast<long>(i)); });
    }
  });
  std::thread b([&] {
    pool.parallel_for(100, [&](std::size_t i) { b_sum.fetch_add(static_cast<long>(i)); });
    b_returned.store(true);
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(100, [&](std::size_t i) { b_sum.fetch_add(static_cast<long>(i)); });
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(a_sum.load(), 28L + 20L * 4950L);
  EXPECT_EQ(b_sum.load(), 21L * 4950L);
}

TEST(ThreadPool, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace cav
