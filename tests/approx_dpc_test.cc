// Approx-DPC vs Ex-DPC: identical centers (the paper's exactness claim),
// label agreement >= 0.95 Rand index, and valid structural invariants.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/registry.h"
#include "eval/cluster_stats.h"
#include "eval/rand_index.h"
#include "data/generators.h"
#include "tests/test_util.h"

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 12000;
  gen.num_clusters = 8;
  gen.dim = 2;
  gen.overlap = 0.02;
  gen.noise_rate = 0.02;
  gen.seed = 5;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 8000.0;
  auto cluster = [&](dpc::DpcAlgorithm&& algo) {
    return dpc::FinalizeSolution(
        algo.Solve(points, params.compute(), dpc::ExecutionContext()),
        params.threshold());
  };

  const dpc::DpcResult ex = cluster(dpc::ExDpc());
  const dpc::DpcResult ap = cluster(dpc::ApproxDpc());

  // rho is exact in both algorithms — Approx-DPC's joint range search
  // (§4.2) reproduces Ex-DPC's per-point counts — so it must agree bitwise.
  CHECK(ex.rho == ap.rho);

  // Approx-DPC's headline property: the same centers as Ex-DPC.
  CHECK(ex.centers == ap.centers);
  CHECK(ex.num_clusters() >= 8);  // 8 planted blobs; overlap may split ties

  // Non-center deltas are approximate, but labels must agree strongly.
  const double rand = dpc::eval::RandIndex(ap.label, ex.label);
  std::printf("rand index approx vs exact: %.5f\n", rand);
  CHECK(rand >= 0.95);

  // The paper's density-ordered subset search (Equation (2), ablation C)
  // is the reference for the peaks' search on the rho tree: for any s it
  // reproduces Approx-DPC's delta and dependency exactly.
  {
    const dpc::ExecutionContext ctx(2);
    const dpc::ComputeParams compute = params.compute();
    const dpc::DpcSolution solved = dpc::ApproxDpc().Solve(points, compute, ctx);
    const dpc::UniformGrid grid(
        points, params.d_cut / std::sqrt(static_cast<double>(points.dim())));
    const int solved_s =
        dpc::ApproxDpc::SolveNumSubsets(points.size(), points.dim());
    for (const int s : {1, 3, 17, solved_s}) {
      std::vector<double> delta(solved.rho.size(),
                                std::numeric_limits<double>::infinity());
      std::vector<dpc::PointId> dependency(solved.rho.size(), -1);
      const std::vector<dpc::PointId> peaks = dpc::ElectCellPeaks(
          points, grid, solved.rho, ctx, &delta, &dependency);
      dpc::ApproxDpc::ComputePeakDeltasBySubsets(points, solved.rho, peaks, s,
                                                 ctx, &delta, &dependency);
      CHECK(delta == solved.delta);
      CHECK(dependency == solved.dependency);
    }
  }
  CHECK(dpc::ApproxDpc::SolveNumSubsets(0, 2) == 1);
  CHECK(dpc::ApproxDpc::SolveNumSubsets(points.size(), 2) >= 1);

  // Structural invariants: every non-noise point reaches its cluster via
  // a denser dependency, and noise is exactly the sub-rho_min set.
  for (size_t i = 0; i < ap.label.size(); ++i) {
    if (ap.rho[i] < params.rho_min) {
      CHECK_EQ(ap.label[i], dpc::kNoise);
      continue;
    }
    CHECK(ap.label[i] >= 0);
    const dpc::PointId dep = ap.dependency[i];
    if (dep >= 0) {
      CHECK(dpc::DenserThan(ap.rho[static_cast<size_t>(dep)], dep, ap.rho[i],
                            static_cast<dpc::PointId>(i)));
    }
  }
  std::printf("approx_dpc_test OK\n");
  return 0;
}
