// ExecutionContext — the execution policy of DpcAlgorithm::Solve:
// which ThreadPool to run on, how many threads to use, and a per-run
// deadline / cancellation flag checked at phase boundaries. How a loop
// maps iterations to threads is fixed by its shape (parallel/parallel_for.h).
//
// Contexts are cheap value types: copies share the pool and the cancel
// flag, so a caller can keep one context, hand copies to runs, and
// cancel them all with one RequestCancel(). Default-constructed contexts
// share one process-wide pool sized to the hardware — pool reuse across
// runs is the point of the redesign (no more per-phase thread spawn).
#ifndef DPC_PARALLEL_EXECUTION_CONTEXT_H_
#define DPC_PARALLEL_EXECUTION_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "parallel/omp_utils.h"
#include "parallel/thread_pool.h"

namespace dpc {

class ExecutionContext {
 public:
  /// All hardware threads on the shared process-wide pool, no deadline.
  ExecutionContext() : ExecutionContext(0) {}

  /// num_threads <= 0 selects all hardware threads. A null pool selects
  /// the shared process-wide pool.
  explicit ExecutionContext(int num_threads,
                            std::shared_ptr<ThreadPool> pool = nullptr)
      : threads_(ResolveThreads(num_threads)),
        pool_(pool != nullptr ? std::move(pool) : SharedDefaultPool()),
        stop_(std::make_shared<StopState>()) {}

  /// Parallelism degree (>= 1).
  int threads() const { return threads_; }
  ThreadPool& pool() const { return *pool_; }

  // --- tracing ---------------------------------------------------------
  // A context optionally carries a trace and the span id instrumentation
  // should parent under. Both travel with copies, so a span opened on a
  // worker thread lands under the request's root span with no
  // thread-local state. The default is NO trace: ctx.Span(...) then
  // constructs a disabled ScopedSpan — no clock read, no allocation (the
  // zero-cost-off contract tests/obs_test.cc asserts).

  /// A copy carrying `trace` (may be null = tracing off) with child
  /// spans parented under `span_parent`.
  ExecutionContext WithTrace(std::shared_ptr<obs::Trace> trace,
                             uint64_t span_parent = 0) const {
    ExecutionContext copy = *this;
    copy.trace_ = std::move(trace);
    copy.span_parent_ = span_parent;
    return copy;
  }
  /// The active trace, or null when tracing is off.
  obs::Trace* trace() const { return trace_.get(); }
  uint64_t span_parent() const { return span_parent_; }
  /// An RAII span under this context's parent; a no-op when tracing is
  /// off. `name` must outlive the trace (use string literals).
  obs::ScopedSpan Span(const char* name) const {
    return obs::ScopedSpan(trace_.get(), name, span_parent_);
  }

  // --- deadline / cancellation -----------------------------------------
  // Algorithms poll ShouldStop() at phase boundaries; an interrupted run
  // returns with DpcStats::interrupted set and all labels kUnassigned.
  // Both the cancel flag and the deadline live in shared state, so
  // setting either on ANY copy (including one a running solve already
  // holds) reaches every other copy, thread-safely.

  void set_deadline(std::chrono::steady_clock::time_point deadline) const {
    stop_->deadline_ns.store(deadline.time_since_epoch().count(),
                             std::memory_order_release);
  }
  void RequestCancel() const {
    stop_->cancel.store(true, std::memory_order_release);
  }
  bool ShouldStop() const {
    if (stop_->cancel.load(std::memory_order_acquire)) return true;
    const int64_t deadline_ns =
        stop_->deadline_ns.load(std::memory_order_acquire);
    return deadline_ns != StopState::kNoDeadline &&
           std::chrono::steady_clock::now().time_since_epoch().count() >
               deadline_ns;
  }

  /// The process-wide pool shared by default-constructed contexts:
  /// created once, sized to the hardware, reused across runs and
  /// algorithms.
  static const std::shared_ptr<ThreadPool>& SharedDefaultPool() {
    static const std::shared_ptr<ThreadPool> pool =
        std::make_shared<ThreadPool>(0);
    return pool;
  }

 private:
  /// Cancellation + deadline, shared across every copy of a context.
  struct StopState {
    static constexpr int64_t kNoDeadline =
        std::numeric_limits<int64_t>::min();
    std::atomic<bool> cancel{false};
    std::atomic<int64_t> deadline_ns{kNoDeadline};  ///< steady_clock ticks
  };

  int threads_ = 1;
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<StopState> stop_;
  std::shared_ptr<obs::Trace> trace_;  ///< null = tracing off
  uint64_t span_parent_ = 0;
};

}  // namespace dpc

#endif  // DPC_PARALLEL_EXECUTION_CONTEXT_H_
