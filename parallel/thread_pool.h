// Persistent worker pool with a task queue — the only place in the
// library that spawns std::threads. core/'s old per-phase spawn/join
// (core/parallel_for.h, now gone) paid thread creation on every phase of
// every run; a pool amortizes that across phases, runs, and algorithms
// (the default ExecutionContext shares one process-wide pool).
//
// Model: Run(num_tasks, fn) executes fn(0) .. fn(num_tasks - 1) exactly
// once each and returns when all calls have finished. The caller
// participates, so a pool of size T gives T-way concurrency with T - 1
// resident workers. Tasks are claimed from a shared atomic counter;
// which thread runs which task is unspecified, so determinism is the
// caller's contract (the algorithms only ever write disjoint slots).
//
// Concurrent Run calls from different threads serialize on an internal
// mutex; Run from inside a task (nesting) degrades to inline serial
// execution instead of deadlocking.
#ifndef DPC_PARALLEL_THREAD_POOL_H_
#define DPC_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/omp_utils.h"

namespace dpc {

class ThreadPool {
 public:
  /// num_threads <= 0 means all hardware threads.
  explicit ThreadPool(int num_threads = 0)
      : size_(ResolveThreads(num_threads)) {
    workers_.reserve(static_cast<size_t>(size_ - 1));
    for (int t = 1; t < size_; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Total concurrency (resident workers + the calling thread).
  int size() const { return size_; }

  /// Runs fn(0) .. fn(num_tasks - 1), each exactly once, and blocks until
  /// all calls return. fn must be safe to call concurrently for distinct
  /// task ids.
  template <typename Fn>
  void Run(int64_t num_tasks, const Fn& fn) {
    if (num_tasks <= 0) return;
    if (num_tasks == 1 || size_ <= 1 || tls_in_region_) {
      for (int64_t t = 0; t < num_tasks; ++t) fn(t);
      return;
    }
    std::lock_guard<std::mutex> run_lock(run_mu_);  // one region at a time
    auto region = std::make_shared<Region>();
    region->job = [&fn](int64_t t) { fn(t); };
    region->num_tasks = num_tasks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = region;
      ++generation_;
    }
    cv_work_.notify_all();
    WorkOn(*region);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] {
      return region->completed.load(std::memory_order_acquire) ==
             region->num_tasks;
    });
  }

 private:
  /// One Run call's state. Held by shared_ptr so a worker late to wake
  /// from a previous region can never touch freed state.
  struct Region {
    std::function<void(int64_t)> job;
    int64_t num_tasks = 0;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> completed{0};
  };

  void WorkOn(Region& region) {
    tls_in_region_ = true;
    for (;;) {
      const int64_t t = region.next.fetch_add(1, std::memory_order_relaxed);
      if (t >= region.num_tasks) break;
      region.job(t);
      if (region.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          region.num_tasks) {
        std::lock_guard<std::mutex> lock(mu_);
        cv_done_.notify_all();
      }
    }
    tls_in_region_ = false;
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Region> region;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        region = current_;
      }
      if (region) WorkOn(*region);
    }
  }

  const int size_;
  std::vector<std::thread> workers_;
  std::mutex run_mu_;  ///< serializes Run callers
  std::mutex mu_;      ///< guards current_/generation_/stop_ + both cvs
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::shared_ptr<Region> current_;
  uint64_t generation_ = 0;
  bool stop_ = false;

  /// True while this thread executes region tasks; makes nested Run
  /// calls run inline instead of deadlocking on run_mu_.
  inline static thread_local bool tls_in_region_ = false;
};

}  // namespace dpc

#endif  // DPC_PARALLEL_THREAD_POOL_H_
