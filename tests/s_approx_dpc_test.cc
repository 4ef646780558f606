// Metamorphic properties of S-Approx-DPC's epsilon knob on planted
// Gaussians:
//
//   * centers match Ex-DPC's exactly at every epsilon (the §5 design:
//     peak deltas only grow under candidate subsampling, and the usual
//     delta_min >> d_cut margin absorbs the growth);
//   * label agreement with Ex-DPC degrades monotonically as epsilon
//     sweeps {0.01, 0.2, 1.0} — the candidate samples are NESTED, so a
//     larger epsilon can only lose dependency information;
//   * epsilon = 0.01 keeps ~96% of candidates and must agree >= 0.99;
//   * epsilon -> 0 keeps everyone and collapses to Approx-DPC exactly;
//   * the candidate mask on the rho tree is bit-identical to searching a
//     separate kd-tree built over only the kept points (the candidate-
//     subset formulation), and every cell peak is kept.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/rng.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "eval/rand_index.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "tests/test_util.h"

int main() {
  // Dense enough that grid cells hold many points (cell side
  // d_cut/sqrt(2) ~ 3500 on the 1e5 domain) — with near-empty cells
  // every point is its own peak and the epsilon knob would have nothing
  // to subsample.
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 20000;
  gen.num_clusters = 6;
  gen.overlap = 0.03;
  gen.noise_rate = 0.08;
  gen.seed = 7;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 5000.0;
  params.rho_min = 5.0;
  params.delta_min = 20000.0;
  const dpc::ExecutionContext ctx(2);
  auto cluster = [&](dpc::DpcAlgorithm&& algo, const dpc::DpcParams& p) {
    return dpc::FinalizeSolution(algo.Solve(points, p.compute(), ctx),
                                 p.threshold());
  };

  const dpc::DpcResult ground = cluster(dpc::ExDpc(), params);
  CHECK(ground.num_clusters() >= 2);

  std::vector<double> rand_index;
  for (const double eps : {0.01, 0.2, 1.0}) {
    dpc::DpcParams p = params;
    p.epsilon = eps;
    const dpc::DpcResult r = cluster(dpc::SApproxDpc(), p);
    CHECK(r.centers == ground.centers);  // exact centers at every epsilon
    const double ri = dpc::eval::RandIndex(r.label, ground.label);
    std::printf("eps=%.2f: Rand index vs Ex-DPC = %.6f\n", eps, ri);
    rand_index.push_back(ri);
  }
  CHECK(rand_index[0] >= 0.99);
  CHECK(rand_index[0] >= rand_index[1]);  // nested samples: accuracy only
  CHECK(rand_index[1] >= rand_index[2]);  // degrades as epsilon grows
  CHECK(rand_index[2] < 1.0);  // ... and the knob actually bites here

  // epsilon -> 0 keeps every candidate: bit-identical to Approx-DPC.
  {
    dpc::DpcParams p = params;
    p.epsilon = 1e-12;
    const dpc::DpcResult a = cluster(dpc::SApproxDpc(), p);
    const dpc::DpcResult b = cluster(dpc::ApproxDpc(), p);
    CHECK(a.label == b.label);
    CHECK(a.dependency == b.dependency);
    CHECK(a.centers == b.centers);
  }

  // The candidate-subset reference: Ex-DPC's per-point rho, cell peaks
  // snapped as in Approx-DPC, then each peak searches a kd-tree built
  // over only the kept points (ascending id order), mapped back to global
  // ids through candidate_ids.
  for (const double eps : {0.2, 1.0}) {
    dpc::DpcParams p = params;
    p.epsilon = eps;
    dpc::SApproxDpc algo;
    const dpc::DpcSolution solved = algo.Solve(points, p.compute(), ctx);
    const std::vector<double>& rho = ground.rho;
    std::vector<double> delta(rho.size(), std::numeric_limits<double>::infinity());
    std::vector<dpc::PointId> dependency(rho.size(), -1);
    const dpc::UniformGrid grid(
        points, p.d_cut / std::sqrt(static_cast<double>(points.dim())));
    const std::vector<dpc::PointId> peaks =
        dpc::ElectCellPeaks(points, grid, rho, &delta, &dependency);
    const std::vector<uint8_t> kept = algo.CandidateMask(peaks, points.size(), eps);
    std::vector<uint8_t> is_peak(rho.size(), 0);
    for (const dpc::PointId peak : peaks) is_peak[static_cast<size_t>(peak)] = 1;

    dpc::PointSet candidates(points.dim());
    std::vector<dpc::PointId> candidate_ids;
    for (dpc::PointId i = 0; i < points.size(); ++i) {
      const size_t si = static_cast<size_t>(i);
      // Every cell peak is kept; any other point iff its coin < keep_rate.
      CHECK_EQ(kept[si] != 0,
               is_peak[si] != 0 ||
                   dpc::HashToUnit(dpc::SApproxDpc::kSampleSeed,
                                   static_cast<uint64_t>(i)) < 1.0 / (1.0 + 4.0 * eps));
      if (kept[si] == 0) continue;
      candidates.Add(points[i]);
      candidate_ids.push_back(i);
    }
    CHECK(candidate_ids.size() < rho.size());  // the mask actually drops points
    const dpc::KdTree candidate_tree(candidates);
    for (const dpc::PointId peak : peaks) {
      const double rho_p = rho[static_cast<size_t>(peak)];
      double dist = std::numeric_limits<double>::infinity();
      const dpc::PointId nn = candidate_tree.NearestAccepted(
          points[peak],
          [&](dpc::PointId cj) {
            const dpc::PointId j = candidate_ids[static_cast<size_t>(cj)];
            return dpc::DenserThan(rho[static_cast<size_t>(j)], j, rho_p, peak);
          },
          &dist);
      delta[static_cast<size_t>(peak)] = dist;
      dependency[static_cast<size_t>(peak)] =
          nn >= 0 ? candidate_ids[static_cast<size_t>(nn)] : dpc::PointId{-1};
    }
    CHECK(solved.rho == rho);
    CHECK(solved.delta == delta);
    CHECK(solved.dependency == dependency);
  }

  std::printf("s_approx_dpc_test OK\n");
  return 0;
}
