// Fixed-size thread pool with a parallel-for helper.
//
// Used to evaluate GA individuals (each = many stochastic simulations) in
// parallel.  Determinism note: callers must derive an independent RngStream
// per work item (see rng.h); the pool itself imposes no ordering.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cav {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task.  Tasks must not throw (call sites wrap their own
  /// error handling); an escaping exception terminates, by design.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// fn is invoked concurrently; it must synchronize its own shared state.
  /// The calling thread runs chunks too and waits only for this call's
  /// chunks, so calls may nest (a pool task may call parallel_for on its
  /// own pool) and several threads may call at once.  Like a task, fn
  /// must not throw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Range-based variant: fn(begin, end) is called once per contiguous
  /// chunk of [0, n), so hot loops pay one std::function dispatch per chunk
  /// instead of per index, and callers can keep per-chunk partial results
  /// (combined after the call) instead of synchronizing per item.
  void parallel_for_ranges(std::size_t n,
                           const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace cav
