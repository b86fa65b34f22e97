#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace cav {
namespace {

/// The state one parallel_for_ranges call shares with its helper tasks.
/// It outlives the call: a helper the pool starts after the call returned
/// claims no chunk and touches nothing else, not even `fn`.
struct RangeCall {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 0;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
  std::mutex mutex;
  std::size_t done = 0;  ///< chunks finished, guarded by `mutex`
  std::condition_variable finished;

  /// Claim and run chunks until none is left.  noexcept: an exception
  /// escaping fn terminates on the calling thread too, as on a worker.
  void run() noexcept {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks) return;
      const std::size_t begin = c * chunk;
      (*fn)(begin, std::min(n, begin + chunk));
      const std::lock_guard<std::mutex> lock(mutex);
      if (++done == chunks) finished.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 2;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_for_ranges(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_ranges(std::size_t n,
                                     const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Chunk the index space so that small items do not drown in queue
  // overhead; an atomic cursor keeps the chunks balanced.
  auto call = std::make_shared<RangeCall>();
  call->fn = &fn;
  call->n = n;
  call->chunk = std::max<std::size_t>(1, n / (thread_count() * 8));
  call->chunks = (n + call->chunk - 1) / call->chunk;
  // The caller claims chunks alongside the helpers, so at most
  // thread_count() threads run this call, and it finishes even when every
  // worker is busy (a nested call, or other callers).
  const std::size_t helpers = std::min(thread_count(), call->chunks) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([call] { call->run(); });
  }
  call->run();
  std::unique_lock<std::mutex> lock(call->mutex);
  call->finished.wait(lock, [&call] { return call->done == call->chunks; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace cav
