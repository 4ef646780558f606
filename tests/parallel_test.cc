// The parallel/ layer underneath API v2: ThreadPool task-execution
// guarantees, ParallelFor coverage on the inline and the pool paths, the
// shared default pool, and ExecutionContext deadline/cancellation
// semantics.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/scan_dpc.h"
#include "core/registry.h"
#include "data/generators.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

int main() {
  // ThreadPool: every task runs exactly once, across many reused regions
  // (the pool must not leak state between Run calls).
  {
    dpc::ThreadPool pool(4);
    CHECK_EQ(pool.size(), 4);
    for (int round = 0; round < 100; ++round) {
      std::vector<int> hits(257, 0);
      pool.Run(257, [&](int64_t t) { hits[static_cast<size_t>(t)] += 1; });
      for (const int h : hits) CHECK_EQ(h, 1);
    }
    // Degenerate task counts.
    pool.Run(0, [](int64_t) { CHECK(false); });
    int once = 0;
    pool.Run(1, [&](int64_t) { ++once; });
    CHECK_EQ(once, 1);
    // Nested Run degrades to inline serial execution, no deadlock.
    std::atomic<int> nested{0};
    pool.Run(4, [&](int64_t) {
      pool.Run(8, [&](int64_t) { nested.fetch_add(1); });
    });
    CHECK_EQ(nested.load(), 32);
  }

  // ParallelFor: exact coverage at every thread count, on one shared
  // pool, below kMinParallelIterations (inline) and above it (grains).
  {
    auto pool = std::make_shared<dpc::ThreadPool>(4);
    for (const int threads : {1, 2, 4}) {
      const dpc::ExecutionContext ctx(threads, pool);
      CHECK_EQ(ctx.threads(), threads);
      for (const int64_t n : {int64_t{500}, int64_t{10000}}) {
        std::vector<int> seen(static_cast<size_t>(n), 0);
        dpc::ParallelFor(ctx, n, [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) seen[static_cast<size_t>(i)]++;
        });
        for (const int s : seen) CHECK_EQ(s, 1);
      }
    }
  }

  // Default-constructed contexts share one process-wide pool (pool
  // reuse is the point of the redesign), and copies keep sharing it.
  {
    const dpc::ExecutionContext a;
    const dpc::ExecutionContext b;
    const dpc::ExecutionContext copy = a;
    CHECK(&a.pool() == &b.pool());
    CHECK(&copy.pool() == &a.pool());
    // Default policy: all hardware threads.
    CHECK_EQ(a.threads(), dpc::HardwareThreads());
  }

  // Cancellation propagates to every copy (a solve may run on a derived
  // copy, so RequestCancel on the caller's context must reach it).
  {
    const dpc::ExecutionContext ctx(2);
    const dpc::ExecutionContext copy = ctx;
    CHECK(!ctx.ShouldStop());
    ctx.RequestCancel();
    CHECK(ctx.ShouldStop());
    CHECK(copy.ShouldStop());
  }

  // An expired deadline stops the run — including copies made BEFORE the
  // deadline was set (the deadline lives in the shared stop state, like
  // the cancel flag, so bounding an already-running clone works).
  {
    dpc::ExecutionContext ctx;
    const dpc::ExecutionContext copy = ctx;
    CHECK(!copy.ShouldStop());
    ctx.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::seconds(1));
    CHECK(ctx.ShouldStop());
    CHECK(copy.ShouldStop());
    dpc::ExecutionContext fresh;
    fresh.set_deadline(std::chrono::steady_clock::now() +
                       std::chrono::hours(1));
    CHECK(!fresh.ShouldStop());
  }

  // Mid-loop cancellation (amortized ShouldStop polling): a cancel fired
  // from inside the loop stops ParallelFor well before full coverage,
  // even on the serial path.
  {
    auto pool = std::make_shared<dpc::ThreadPool>(2);
    const int64_t n = int64_t{1} << 20;
    for (const int threads : {1, 2}) {
      const dpc::ExecutionContext ctx(threads, pool);
      std::atomic<int64_t> visited{0};
      dpc::ParallelFor(ctx, n, [&](int64_t begin, int64_t end) {
        visited.fetch_add(end - begin);
        ctx.RequestCancel();
      });
      CHECK(visited.load() > 0);
      CHECK(visited.load() < n / 2);  // stopped mid-phase, not at the end

      // The cancel is confined to ctx's stop state: a new context on the
      // same pool still covers every index.
      std::atomic<int64_t> covered{0};
      dpc::ParallelFor(dpc::ExecutionContext(threads, pool), n,
                       [&](int64_t begin, int64_t end) {
                         covered.fetch_add(end - begin);
                       });
      CHECK_EQ(covered.load(), n);
    }
  }

  // A cancelled run stops at the first phase boundary — for every
  // registered algorithm: interrupted stats, every label kUnassigned, no
  // centers.
  {
    dpc::data::GaussianBenchmarkParams gen;
    gen.num_points = 500;
    gen.num_clusters = 3;
    gen.seed = 11;
    const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
    dpc::DpcParams params;
    params.d_cut = 2000.0;
    params.rho_min = 2.0;
    params.delta_min = 9000.0;

    for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      dpc::ExecutionContext cancelled(2);
      cancelled.RequestCancel();
      const auto [stopped, labeling] =
          dpc::test::Cluster(*algo.value(), points, params, cancelled);
      CHECK(stopped.interrupted());
      CHECK_EQ(labeling.label.size(), static_cast<size_t>(points.size()));
      for (const int64_t label : labeling.label) {
        CHECK_EQ(label, dpc::kUnassigned);
      }
      CHECK_EQ(labeling.centers.size(), 0u);

      // The same run without cancellation completes normally.
      const dpc::test::Clustering ok = dpc::test::Cluster(
          *algo.value(), points, params, dpc::ExecutionContext(2));
      CHECK(!ok.solution.interrupted());
      CHECK(ok.labeling.num_clusters() > 0);
    }
  }

  // Quadratic-baseline cancellation latency: Scan's O(n) per-index work
  // polls ShouldStop INSIDE the inner distance loop (every
  // ~kDistanceEvalsPerPoll evaluations), so a cancel mid-phase returns
  // long before the old worst case — the remainder of one 1024-index
  // outer slice. Self-calibrating: the bound is measured on this
  // machine/build, so it holds under sanitizers and debug builds alike.
  {
    const dpc::PointId n = 20000;
    dpc::data::GaussianBenchmarkParams gen;
    gen.num_points = n;
    gen.num_clusters = 5;
    gen.seed = 23;
    const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
    const int dim = points.dim();

    // Calibrate one old-granularity slice: 1024 outer indices x n inner
    // distance evaluations (what cancellation used to wait out).
    double slice_seconds = 0.0;
    {
      const auto begin = std::chrono::steady_clock::now();
      double sink = 0.0;
      for (dpc::PointId i = 0; i < 1024; ++i) {
        for (dpc::PointId j = 0; j < n; ++j) {
          sink += dpc::SquaredDistance(points[i], points[j], dim);
        }
      }
      slice_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        begin)
              .count();
      CHECK(sink > 0.0);  // keep the calibration loop un-elidable
    }

    dpc::DpcParams params;
    params.d_cut = 2000.0;
    params.rho_min = 2.0;
    params.delta_min = 9000.0;
    const dpc::ExecutionContext ctx(1);  // serial: one thread, 1024-slices
    dpc::ScanDpc algo;
    dpc::test::Clustering result;
    std::thread worker(
        [&] { result = dpc::test::Cluster(algo, points, params, ctx); });
    // Cancel early in the first slice; the run must come back within a
    // fraction of a slice, not after finishing it.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(slice_seconds * 0.1));
    const auto cancelled_at = std::chrono::steady_clock::now();
    ctx.RequestCancel();
    worker.join();
    const double overshoot =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      cancelled_at)
            .count();
    CHECK(result.solution.interrupted());
    for (const int64_t label : result.labeling.label) {
      CHECK_EQ(label, dpc::kUnassigned);
    }
    CHECK(overshoot < slice_seconds * 0.5);
  }

  std::printf("parallel_test OK\n");
  return 0;
}
