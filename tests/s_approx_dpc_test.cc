// S-Approx-DPC's contract (core/s_approx_dpc.h) on planted Gaussians with
// duplicated points:
//
//   * singleton collapse: at epsilon = 1e-9 every cell holds one location,
//     and rho, delta and dependency are Ex-DPC's bit for bit;
//   * every member of a cell carries RangeCount(smallest id, d_cut) - 1,
//     and snaps to that member, the cell's peak;
//   * each peak depends on its nearest denser peak (brute-force
//     reference over the peaks alone);
//   * for epsilon <= 1 every non-peak's delta is <= d_cut, so no non-peak
//     is a center;
//   * the grid's cell count strictly falls as epsilon grows, while
//     Approx-DPC's solution does not depend on epsilon;
//   * results are bit-identical at 1, 2 and 8 threads.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "eval/rand_index.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "tests/test_util.h"

namespace {

bool SameSolution(const dpc::DpcSolution& a, const dpc::DpcSolution& b) {
  return a.rho == b.rho && a.delta == b.delta && a.dependency == b.dependency;
}

}  // namespace

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 20000;
  gen.num_clusters = 6;
  gen.overlap = 0.03;
  gen.noise_rate = 0.08;
  gen.seed = 7;
  dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
  // Duplicates: every 97th point once more, every 389th twice more.
  const dpc::PointId base_n = points.size();
  for (dpc::PointId i = 0; i < base_n; i += 97) points.Add(points[i]);
  for (dpc::PointId i = 0; i < base_n; i += 389) {
    points.Add(points[i]);
    points.Add(points[i]);
  }
  const int dim = points.dim();

  dpc::DpcParams params;
  params.d_cut = 5000.0;
  params.rho_min = 5.0;
  params.delta_min = 20000.0;
  const dpc::ExecutionContext ctx(2);
  auto solve = [&](dpc::DpcAlgorithm&& algo, double epsilon,
                   const dpc::ExecutionContext& exec) {
    dpc::DpcParams p = params;
    p.epsilon = epsilon;
    return algo.Solve(points, p.compute(), exec);
  };

  const dpc::DpcSolution exact = solve(dpc::ExDpc(), 1.0, ctx);
  const dpc::Labeling ground = dpc::LabelSolution(exact, params.threshold());
  CHECK(ground.num_clusters() >= 2);

  // Singleton collapse: duplicates share a cell, a rho and a peak, and
  // snap at distance 0 — exactly Ex-DPC's answer for them.
  CHECK(SameSolution(solve(dpc::SApproxDpc(), 1e-9, ctx), exact));

  const dpc::KdTree tree(points);
  const std::vector<double> epsilons = {0.2, 0.4, 0.6, 0.8, 1.0};
  dpc::CellId prev_cells = 0;
  for (const double eps : epsilons) {
    dpc::DpcParams p = params;
    p.epsilon = eps;
    const dpc::DpcSolution s = solve(dpc::SApproxDpc(), eps, ctx);
    const dpc::UniformGrid grid(points,
                                dpc::SApproxDpc().CellSide(p.compute(), dim));
    CHECK_EQ(dpc::SApproxDpc().CellSide(p.compute(), dim),
             eps * params.d_cut / std::sqrt(static_cast<double>(dim)));
    std::vector<uint8_t> is_peak(s.rho.size(), 0);
    std::vector<dpc::PointId> peaks;
    for (dpc::CellId c = 0; c < grid.num_cells(); ++c) {
      const std::vector<dpc::PointId>& members = grid.members(c);
      const dpc::PointId m = *std::min_element(members.begin(), members.end());
      is_peak[static_cast<size_t>(m)] = 1;
      peaks.push_back(m);
      const double rho_m =
          static_cast<double>(tree.RangeCount(points[m], params.d_cut) - 1);
      for (const dpc::PointId i : members) {
        const size_t si = static_cast<size_t>(i);
        CHECK_EQ(s.rho[si], rho_m);
        if (i == m) continue;
        // A non-peak snaps to m, within the cell diameter eps * d_cut.
        CHECK_EQ(s.dependency[si], m);
        CHECK(s.delta[si] <= params.d_cut);
      }
    }
    // Only peaks are candidates: ties in distance go to the smaller id.
    for (const dpc::PointId q : peaks) {
      const size_t sq = static_cast<size_t>(q);
      double best = std::numeric_limits<double>::infinity();
      dpc::PointId best_id = -1;
      for (const dpc::PointId j : peaks) {
        if (!dpc::DenserThan(s.rho[static_cast<size_t>(j)], j, s.rho[sq], q)) continue;
        const double d = dpc::Distance(points[q], points[j], dim);
        if (d < best || (d == best && j < best_id)) {
          best = d;
          best_id = j;
        }
      }
      CHECK_EQ(s.dependency[sq], best_id);
      CHECK_EQ(s.delta[sq], best);
    }
    // Every non-peak's delta is <= d_cut < delta_min, so every center is
    // a cell peak.
    const dpc::Labeling r = dpc::LabelSolution(s, p.threshold());
    for (const dpc::PointId c : r.centers) {
      CHECK(is_peak[static_cast<size_t>(c)] != 0);
    }
    // Fewer, fuller cells as epsilon grows.
    if (prev_cells != 0) CHECK(grid.num_cells() < prev_cells);
    prev_cells = grid.num_cells();
    const double ri = dpc::eval::RandIndex(r.label, ground.label);
    std::printf("eps=%.1f: %lld cells, %lld centers (Ex-DPC %lld), Rand vs "
                "Ex-DPC %.6f\n",
                eps, static_cast<long long>(grid.num_cells()),
                static_cast<long long>(r.centers.size()),
                static_cast<long long>(ground.centers.size()), ri);
    CHECK(ri >= 0.95);
  }

  // Approx-DPC ignores epsilon.
  CHECK(SameSolution(solve(dpc::ApproxDpc(), 0.2, ctx),
                     solve(dpc::ApproxDpc(), 1.0, ctx)));

  // Thread-count independence.
  for (const double eps : {0.3, 1.0}) {
    const dpc::DpcSolution one =
        solve(dpc::SApproxDpc(), eps, dpc::ExecutionContext(1));
    for (const int threads : {2, 8}) {
      CHECK(SameSolution(
          solve(dpc::SApproxDpc(), eps, dpc::ExecutionContext(threads)), one));
    }
  }

  std::printf("s_approx_dpc_test OK\n");
  return 0;
}
