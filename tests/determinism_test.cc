// Determinism guarantees: identical results across repeated runs and
// across thread counts (the parallel phases only write disjoint per-point
// slots; ties are broken by id, never by arrival order — so claimed
// grains land on the same bits at any thread count).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/registry.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "index/grid.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

/// True when `algo`'s grid for `params` has enough cells that ParallelFor
/// hands its cell loop to the pool instead of running it inline.
bool CellLoopRunsOnPool(const dpc::ApproxDpc& algo, const dpc::PointSet& points,
                        const dpc::DpcParams& params) {
  const dpc::UniformGrid grid(points,
                              algo.CellSide(params.compute(), points.dim()));
  return grid.num_cells() >= dpc::internal::kMinParallelIterations;
}

/// One clustering: the compute phase under `ctx`, then the threshold.
dpc::DpcResult Cluster(dpc::DpcAlgorithm& algo, const dpc::PointSet& points,
                       const dpc::DpcParams& params,
                       const dpc::ExecutionContext& ctx) {
  return dpc::FinalizeSolution(algo.Solve(points, params.compute(), ctx),
                               params.threshold());
}

}  // namespace

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 8000;
  gen.num_clusters = 6;
  gen.noise_rate = 0.02;
  gen.seed = 99;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  // Same seed => bit-identical dataset.
  const dpc::PointSet again = dpc::data::GaussianBenchmark(gen);
  CHECK(points.raw() == again.raw());

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 8000.0;

  // Two inputs per grid solver: at d_cut 1500 the grids are small (793
  // cells; 1,930 for S-Approx-DPC at epsilon 0.5) and the cell loop runs
  // inline; at d_cut 500 they pass ParallelFor's inline cutoff (3,142
  // and 5,735 cells), so the pool's grains run the cell loop.
  const double kPoolCellsDCut = 500.0;
  for (const double d_cut : {params.d_cut, kPoolCellsDCut}) {
    dpc::DpcParams p = params;
    p.d_cut = d_cut;
    for (const bool approx : {false, true}) {
      dpc::ExDpc exact_algo;
      dpc::ApproxDpc approx_algo;
      dpc::DpcAlgorithm& algo =
          approx ? static_cast<dpc::DpcAlgorithm&>(approx_algo)
                 : static_cast<dpc::DpcAlgorithm&>(exact_algo);
      if (approx && d_cut == kPoolCellsDCut) {
        CHECK(CellLoopRunsOnPool(approx_algo, points, p));
      }

      const dpc::ExecutionContext one(1);
      const dpc::DpcResult serial = Cluster(algo, points, p, one);
      const dpc::DpcResult serial2 = Cluster(algo, points, p, one);
      dpc::test::AssertSolutionsEqual(serial, serial2);

      const dpc::DpcResult parallel =
          Cluster(algo, points, p, dpc::ExecutionContext(4));
      dpc::test::AssertSolutionsEqual(serial, parallel);

      CHECK(serial.num_clusters() > 0);
    }
  }

  // The sampled algorithms draw their randomness from seeded hashes
  // (LSH projection directions, CFSFDP-A's sample), never from thread
  // scheduling, and S-Approx-DPC's one count per cell depends only on
  // the cell — labels stay bit-identical across 1/2/8 workers.
  // S-Approx-DPC also runs the d_cut 500 input, at 1/2/4/8 workers.
  {
    dpc::LshDdp lsh_ddp;
    dpc::SApproxDpc s_approx;
    dpc::CfsfdpA cfsfdp_a;
    dpc::DpcParams p = params;
    p.epsilon = 0.5;
    for (dpc::DpcAlgorithm* algo :
         {static_cast<dpc::DpcAlgorithm*>(&lsh_ddp),
          static_cast<dpc::DpcAlgorithm*>(&s_approx),
          static_cast<dpc::DpcAlgorithm*>(&cfsfdp_a)}) {
      const dpc::DpcResult serial =
          Cluster(*algo, points, p, dpc::ExecutionContext(1));
      for (const int threads : {2, 8}) {
        dpc::test::AssertSolutionsEqual(
            serial, Cluster(*algo, points, p, dpc::ExecutionContext(threads)));
      }
      CHECK(serial.num_clusters() > 0);
    }

    p.d_cut = kPoolCellsDCut;
    CHECK(CellLoopRunsOnPool(s_approx, points, p));
    const dpc::DpcResult serial =
        Cluster(s_approx, points, p, dpc::ExecutionContext(1));
    for (const int threads : {2, 4, 8}) {
      dpc::test::AssertSolutionsEqual(
          serial, Cluster(s_approx, points, p, dpc::ExecutionContext(threads)));
    }
    CHECK(serial.num_clusters() > 0);
  }

  // Thread sweep: every registered algorithm at {1, 2, 8} threads, all
  // through ONE shared ThreadPool — labels must be bit-identical to the
  // 1-thread baseline. (A smaller input keeps the quadratic baselines affordable
  // while still exceeding the parallel-region threshold.)
  {
    dpc::data::GaussianBenchmarkParams small = gen;
    small.num_points = 3000;
    small.seed = 123;
    const dpc::PointSet pts = dpc::data::GaussianBenchmark(small);
    dpc::DpcParams p = params;
    p.epsilon = 0.5;

    auto pool = std::make_shared<dpc::ThreadPool>(8);
    for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      const dpc::ExecutionContext base(1, pool);
      const dpc::DpcResult baseline = Cluster(*algo.value(), pts, p, base);
      CHECK(baseline.num_clusters() > 0);
      for (const int threads : {1, 2, 8}) {
        const dpc::ExecutionContext ctx(threads, pool);
        dpc::test::AssertSolutionsEqual(baseline,
                                        Cluster(*algo.value(), pts, p, ctx));
      }
      std::printf("%-12s identical across threads\n", name.c_str());
    }
  }

  // Degenerate inputs, every registered algorithm: an empty 2-D set
  // yields no labels, and a 64-point blob that fits in ONE grid cell
  // (d_cut = 1e6 puts the cell side near 7.07e5) is bit-identical
  // across 1/2/8 threads.
  {
    dpc::PointSet blob(2);
    for (int i = 0; i < 64; ++i) {
      const double p[2] = {1000.0 + 13.0 * (i % 8), 1000.0 + 17.0 * (i / 8)};
      blob.Add(p);
    }
    dpc::DpcParams p;
    p.d_cut = 1e6;
    p.rho_min = 2.0;
    p.delta_min = 4.0 * p.d_cut;
    p.epsilon = 0.5;
    const dpc::PointSet empty(2);
    for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      CHECK_EQ(Cluster(*algo.value(), empty, p, dpc::ExecutionContext(2))
                   .label.size(),
               0u);
      const dpc::DpcResult serial =
          Cluster(*algo.value(), blob, p, dpc::ExecutionContext(1));
      CHECK_EQ(serial.label.size(), static_cast<size_t>(blob.size()));
      for (const int threads : {2, 8}) {
        dpc::test::AssertSolutionsEqual(
            serial,
            Cluster(*algo.value(), blob, p, dpc::ExecutionContext(threads)));
      }
    }
  }

  std::printf("determinism_test OK\n");
  return 0;
}
