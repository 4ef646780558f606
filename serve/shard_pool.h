// ShardPool — an elastic budget of worker threads carved into
// per-request shards, so ClusterServer can run several independent
// requests side by side instead of one request at full pool width.
//
// ThreadPool serializes concurrent Run() regions on one mutex by design
// (parallel/thread_pool.h), so true request-level overlap needs DISTINCT
// ThreadPool instances. ShardPool owns that: Acquire(width) blocks until
// `width` threads of the budget are free, then hands out an RAII Lease
// over a cached ThreadPool of exactly that width (pools are recycled by
// width, so steady-state serving spawns no threads). Only the budget is
// gated — cached idle pools may hold parked OS threads beyond it, but at
// most `total()` of them run at any instant.
//
// Width planning is deterministic: PlanShardWidth sizes a request's
// shard from the request's point count (work scales with |P|, and below
// the parallel threshold inner loops inline serial anyway) and the
// request's priority, so a given request mix always gets the same
// placement.
#ifndef DPC_SERVE_SHARD_POOL_H_
#define DPC_SERVE_SHARD_POOL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parallel/omp_utils.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace dpc::serve {

/// Deterministic shard width for one request: an even split of the
/// budget across the executor lanes, shrunk to 1 for datasets below the
/// parallel threshold (they cannot use more), boosted one thread per
/// priority level, clamped to the budget.
inline int PlanShardWidth(int total, int lanes, int64_t cost_points,
                          int priority) {
  int width = std::max(1, total / std::max(1, lanes));
  if (cost_points < internal::kMinParallelIterations) width = 1;
  width += std::max(0, priority);
  return std::clamp(width, 1, std::max(1, total));
}

class ShardPool {
 public:
  /// total_threads 0 = all hardware threads.
  explicit ShardPool(int total_threads) : total_(ResolveThreads(total_threads)) {}

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int total() const { return total_; }
  int in_use() const {
    std::lock_guard<std::mutex> lock(mu_);
    return in_use_;
  }

  /// RAII grant of `width()` threads of the budget; returns them (and
  /// recycles the ThreadPool instance) on destruction or Release().
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        owner_ = std::exchange(other.owner_, nullptr);
        pool_ = std::move(other.pool_);
        width_ = std::exchange(other.width_, 0);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    const std::shared_ptr<ThreadPool>& pool() const { return pool_; }
    int width() const { return width_; }

    void Release() {
      if (owner_ == nullptr) return;
      owner_->Return(std::move(pool_), width_);
      owner_ = nullptr;
      pool_ = nullptr;
      width_ = 0;
    }

   private:
    friend class ShardPool;
    Lease(ShardPool* owner, std::shared_ptr<ThreadPool> pool, int width)
        : owner_(owner), pool_(std::move(pool)), width_(width) {}

    ShardPool* owner_ = nullptr;
    std::shared_ptr<ThreadPool> pool_;
    int width_ = 0;
  };

  /// Blocks until `width` threads (clamped to the budget) are free or
  /// the deadline passes; nullopt = timed out. time_point::max() waits
  /// forever — safe because leases always come back: every holder is a
  /// finite solve.
  std::optional<Lease> Acquire(
      int width, std::chrono::steady_clock::time_point deadline =
                     std::chrono::steady_clock::time_point::max()) {
    const int w = std::clamp(width, 1, total_);
    std::unique_lock<std::mutex> lock(mu_);
    const auto free_enough = [&] { return in_use_ + w <= total_; };
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      cv_.wait(lock, free_enough);
    } else if (!cv_.wait_until(lock, deadline, free_enough)) {
      return std::nullopt;
    }
    in_use_ += w;
    std::shared_ptr<ThreadPool> pool;
    std::vector<std::shared_ptr<ThreadPool>>& cache = free_[w];
    if (!cache.empty()) {
      pool = std::move(cache.back());
      cache.pop_back();
    }
    lock.unlock();
    // First lease of a width pays the thread spawn; reuse is free.
    if (pool == nullptr) pool = std::make_shared<ThreadPool>(w);
    return Lease(this, std::move(pool), w);
  }

 private:
  friend class Lease;

  void Return(std::shared_ptr<ThreadPool> pool, int width) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool != nullptr) free_[width].push_back(std::move(pool));
    in_use_ -= width;
    cv_.notify_all();
  }

  const int total_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int in_use_ = 0;  ///< guarded by mu_
  /// Recycled pools by width, guarded by mu_.
  std::unordered_map<int, std::vector<std::shared_ptr<ThreadPool>>> free_;
};

}  // namespace dpc::serve

#endif  // DPC_SERVE_SHARD_POOL_H_
