// Parallel loops over the persistent ThreadPool — the replacement for
// core/parallel_for.h's per-call std::thread spawn/join. Index loops,
// per-point phases and grid cells alike, run ParallelFor: threads claim
// grain-sized chunks from a shared counter. ParallelForStaticChunks is
// the one other shape, for callbacks that amortize per-chunk scratch.
//
// Every variant calls fn on each index exactly once with disjoint
// slices, so loops whose writes are per-slot disjoint stay deterministic
// across thread counts — the library-wide contract that
// tests/determinism_test.cc enforces.
//
// Cancellation: ParallelFor polls ctx.ShouldStop() amortized (every
// kStopCheckStride indices) and stops issuing work once it
// fires, so an expired or cancelled request releases the pool mid-phase
// instead of at the next phase boundary. A stopped loop leaves later
// indices unvisited — callers observe the same ShouldStop() at the
// phase boundary (stop state is sticky) and discard the partial phase
// via internal::Interrupted.
#ifndef DPC_PARALLEL_PARALLEL_FOR_H_
#define DPC_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "parallel/execution_context.h"

namespace dpc {

namespace internal {
/// Below this iteration count a parallel region cannot pay for itself.
inline constexpr int64_t kMinParallelIterations = 2048;
/// Indices between ShouldStop polls in index loops. Large enough that the
/// poll (two atomic loads, plus a clock read only when a deadline is set)
/// vanishes against per-index work; small enough that a cancelled run
/// frees its pool threads within microseconds.
inline constexpr int64_t kStopCheckStride = 1024;

/// Runs fn over [begin, end) in kStopCheckStride sub-slices, polling the
/// context between slices. Returns false if the loop stopped early.
template <typename Fn>
bool RunSlices(const ExecutionContext& ctx, int64_t begin, int64_t end,
               const Fn& fn) {
  for (int64_t sub = begin; sub < end; sub += kStopCheckStride) {
    if (ctx.ShouldStop()) return false;
    fn(sub, std::min(sub + kStopCheckStride, end));
  }
  return true;
}

/// fn(0) .. fn(num_tasks - 1) on at most ctx.threads() pool workers, each
/// task claimed from a shared counter. Never polls the stop state: index
/// builds (KdTree, UniformGrid) run to completion so a cancelled solve
/// still holds a well-formed index.
template <typename Fn>
void RunTasks(const ExecutionContext& ctx, size_t num_tasks, const Fn& fn) {
  std::atomic<size_t> next{0};
  ctx.pool().Run(
      std::min<int64_t>(ctx.threads(), static_cast<int64_t>(num_tasks)),
      [&](int64_t) {
        for (size_t k; (k = next.fetch_add(1)) < num_tasks;) fn(k);
      });
}
}  // namespace internal

/// Calls fn(begin, end) over disjoint chunks of [0, n): threads claim
/// grain-sized chunks from a shared counter.
template <typename Fn>
void ParallelFor(const ExecutionContext& ctx, int64_t n, const Fn& fn) {
  if (n <= 0) return;
  const int threads =
      static_cast<int>(std::min<int64_t>(ctx.threads(), n));
  if (threads <= 1 || n < internal::kMinParallelIterations) {
    internal::RunSlices(ctx, 0, n, fn);
    return;
  }
  // ~8 grains per thread balances claim overhead against load balance.
  const int64_t grain =
      std::max<int64_t>(1, n / (static_cast<int64_t>(threads) * 8));
  std::atomic<int64_t> next{0};
  ctx.pool().Run(threads, [&](int64_t) {
    for (;;) {
      const int64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      if (!internal::RunSlices(ctx, begin, std::min(begin + grain, n), fn)) {
        break;
      }
    }
  });
}

/// One fn(begin, end) callback per contiguous static chunk (one chunk
/// per thread) — for loops that amortize expensive per-callback scratch
/// over the whole chunk (LSH-DDP's stamped dedup array). Unlike
/// ParallelFor, mid-chunk stop polling is the callback's job; this loop
/// only skips chunks that have not started when the context says stop.
template <typename Fn>
void ParallelForStaticChunks(const ExecutionContext& ctx, int64_t n,
                             const Fn& fn) {
  if (n <= 0) return;
  const int threads =
      static_cast<int>(std::min<int64_t>(ctx.threads(), n));
  if (threads <= 1 || n < internal::kMinParallelIterations) {
    if (!ctx.ShouldStop()) fn(int64_t{0}, n);
    return;
  }
  const int64_t chunk = (n + threads - 1) / threads;
  ctx.pool().Run(threads, [&](int64_t t) {
    if (ctx.ShouldStop()) return;
    const int64_t begin = t * chunk;
    const int64_t end = std::min(begin + chunk, n);
    if (begin < end) fn(begin, end);
  });
}

}  // namespace dpc

#endif  // DPC_PARALLEL_PARALLEL_FOR_H_
