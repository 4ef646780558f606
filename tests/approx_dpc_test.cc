// Approx-DPC vs Ex-DPC: identical centers (the paper's exactness claim),
// also for coordinates without an exact integer grid cell, label
// agreement >= 0.95 Rand index, and valid structural invariants.
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
  dpc::ExDpc ex_dpc;
  dpc::ApproxDpc approx_dpc;
  const dpc::test::Clustering ex = dpc::test::Cluster(ex_dpc, points, params);
  const dpc::test::Clustering ap = dpc::test::Cluster(approx_dpc, points, params);

  // rho is exact in both algorithms — both count it one joint traversal
  // per kd-tree leaf (ExDpc::ComputeExactRho) — so it must agree bitwise.
  CHECK(ex.solution.rho == ap.solution.rho);

  // Approx-DPC's headline property: the same centers as Ex-DPC.
  CHECK(ex.labeling.centers == ap.labeling.centers);
  CHECK(ex.labeling.num_clusters() >= 8);  // 8 planted blobs; overlap may split ties

  // Non-center deltas are approximate, but labels must agree strongly.
  const double rand = dpc::eval::RandIndex(ap.labeling.label, ex.labeling.label);
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
      const std::vector<dpc::PointId> peaks =
          dpc::ElectCellPeaks(points, grid, solved.rho, &delta, &dependency);
      dpc::ApproxDpc::ComputePeakDeltasBySubsets(points, solved.rho, peaks, s,
                                                 ctx, &delta, &dependency);
      CHECK(delta == solved.delta);
      CHECK(dependency == solved.dependency);
    }
  }
  // Equidistant candidates: the subset search resolves the tie to the
  // denser one. With s = 2 the 42 densest points (40 fillers at |x| >=
  // 100, then the rho-90 and rho-50 candidates at (1, 0) and (-1, 0))
  // form subset 0, searched as a plain nearest neighbor for the query
  // peak at the origin; the kd-tree splits them at x = 0, so each
  // candidate sits in its own half at the same box distance.
  {
    dpc::PointSet tie(2);
    std::vector<double> rho;
    auto add = [&](double x, double y, double r) {
      const double p[2] = {x, y};
      tie.Add(p);
      rho.push_back(r);
    };
    add(0.0, 0.0, 1.0);    // id 0: the query peak
    add(-1.0, 0.0, 50.0);  // id 1
    add(1.0, 0.0, 90.0);   // id 2: the denser candidate
    for (int i = 0; i < 20; ++i) {
      add(100.0 + i, 0.0, 100.0 + 2 * i);
      add(-100.0 - i, 0.0, 101.0 + 2 * i);
    }
    for (int i = 0; i < 41; ++i) add(10000.0 + i, 10000.0, 0.0);
    CHECK_EQ(tie.size(), dpc::PointId{84});
    std::vector<double> delta(rho.size(),
                              std::numeric_limits<double>::infinity());
    std::vector<dpc::PointId> dependency(rho.size(), -1);
    dpc::ApproxDpc::ComputePeakDeltasBySubsets(tie, rho, {0}, 2,
                                               dpc::ExecutionContext(1),
                                               &delta, &dependency);
    CHECK_EQ(dependency[0], dpc::PointId{2});
    CHECK(delta[0] == 1.0);
  }
  CHECK(dpc::ApproxDpc::SolveNumSubsets(0, 2) == 1);
  CHECK(dpc::ApproxDpc::SolveNumSubsets(points.size(), 2) >= 1);

  // Structural invariants: every non-noise point reaches its cluster via
  // a denser dependency, and noise is exactly the sub-rho_min set.
  const std::vector<double>& rho = ap.solution.rho;
  const std::vector<int64_t>& label = ap.labeling.label;
  for (size_t i = 0; i < label.size(); ++i) {
    if (rho[i] < params.rho_min) {
      CHECK_EQ(label[i], dpc::kNoise);
      continue;
    }
    CHECK(label[i] >= 0);
    const dpc::PointId dep = ap.solution.dependency[i];
    if (dep >= 0) {
      CHECK(dpc::DenserThan(rho[static_cast<size_t>(dep)], dep, rho[i],
                            static_cast<dpc::PointId>(i)));
    }
  }

  // Finite coordinates far past the int64 range of a cell index (LoadCsv
  // accepts any finite value): each such point gets a cell of its own, so
  // it is its own peak, takes the exact search, and the centers match
  // Ex-DPC's. A shared cell would snap (-1e300, *) to a peak 2e300 away
  // and report a spurious center.
  {
    dpc::PointSet huge(2);
    const double coords[][2] = {
        {1e300, 0.0}, {1e300, 0.1}, {1e300, 0.2}, {-1e300, 0.0}, {-1e300, 0.1}};
    for (const auto& p : coords) huge.Add(p);
    dpc::DpcParams huge_params;
    huge_params.d_cut = 1.0;
    huge_params.delta_min = 2.0;
    const dpc::Labeling ex_huge =
        dpc::test::Cluster(ex_dpc, huge, huge_params).labeling;
    const dpc::Labeling ap_huge =
        dpc::test::Cluster(approx_dpc, huge, huge_params).labeling;
    CHECK_EQ(ex_huge.centers.size(), size_t{2});
    CHECK(ap_huge.centers == ex_huge.centers);
  }
  std::printf("approx_dpc_test OK\n");
  return 0;
}
