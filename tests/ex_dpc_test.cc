// Ex-DPC correctness: rho/delta/dependency match an O(n^2) brute-force
// reference on a small input, the masked exact-rho count
// (ExDpc::ComputeExactRho with a selection) matches it for the selected
// points and leaves the others alone, and the algorithm recovers k
// planted, well-separated Gaussian clusters on a larger one.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "core/ex_dpc.h"
#include "core/rng.h"
#include "data/generators.h"
#include "eval/cluster_stats.h"
#include "eval/rand_index.h"
#include "tests/test_util.h"

namespace {

void TestAgainstBruteForce() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 400;
  gen.num_clusters = 3;
  gen.dim = 2;
  gen.overlap = 0.03;
  gen.noise_rate = 0.05;
  gen.seed = 11;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
  const int dim = points.dim();
  const dpc::PointId n = points.size();

  dpc::DpcParams params;
  params.d_cut = 4000.0;
  params.rho_min = 2.0;
  params.delta_min = 20000.0;

  const dpc::DpcSolution solution =
      dpc::ExDpc().Solve(points, params.compute(), dpc::ExecutionContext(2));
  CHECK_EQ(solution.size(), n);

  for (dpc::PointId i = 0; i < n; ++i) {
    dpc::PointId rho = 0;
    for (dpc::PointId j = 0; j < n; ++j) {
      if (j != i &&
          dpc::Distance(points[i], points[j], dim) <= params.d_cut) {
        ++rho;
      }
    }
    CHECK_EQ(solution.rho[static_cast<size_t>(i)], static_cast<double>(rho));
  }
  for (dpc::PointId i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    dpc::PointId best_id = -1;
    for (dpc::PointId j = 0; j < n; ++j) {
      if (!dpc::DenserThan(solution.rho[static_cast<size_t>(j)], j,
                           solution.rho[static_cast<size_t>(i)], i)) {
        continue;
      }
      const double d = dpc::Distance(points[i], points[j], dim);
      if (d < best) {
        best = d;
        best_id = j;
      }
    }
    CHECK_EQ(solution.dependency[static_cast<size_t>(i)], best_id);
    if (best_id >= 0) {
      CHECK_NEAR(solution.delta[static_cast<size_t>(i)], best, 1e-9 * (1.0 + best));
    } else {
      CHECK(std::isinf(solution.delta[static_cast<size_t>(i)]));
    }
  }
}

/// ExDpc::ComputeExactRho with a selection, against brute force, on a
/// 2-D and a 7-D input at 1 and 4 threads. The masks: every point, none,
/// one point per leaf, a random 10%, and each leaf's corner points (for
/// every dimension, the members on the leaf box's low and high face), so
/// the query box taken from the selected points (KdTree::PositionsBox)
/// must reach every face of the leaf's box. Every selected slot must
/// read its count - 1, and every other slot keeps its sentinel.
void TestMaskedExactRho() {
  constexpr double kSentinel = -7.0;
  for (const int dim : {2, 7}) {
    dpc::data::GaussianBenchmarkParams gen;
    gen.num_points = 3000;
    gen.num_clusters = 4;
    gen.dim = dim;
    gen.overlap = 0.03;
    gen.noise_rate = 0.05;
    gen.seed = 90 + static_cast<uint64_t>(dim);
    const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
    const dpc::PointId n = points.size();
    const double d_cut = dim == 2 ? 4000.0 : 9000.0;
    dpc::KdTree tree;
    tree.Build(points);
    // Enough points for ParallelFor to use the pool at 4 threads.
    CHECK(n >= dpc::internal::kMinParallelIterations);

    std::vector<double> brute(static_cast<size_t>(n), 0.0);
    for (dpc::PointId i = 0; i < n; ++i) {
      for (dpc::PointId j = 0; j < n; ++j) {
        if (j != i && dpc::SquaredDistance(points[i], points[j], dim) <=
                          d_cut * d_cut) {
          ++brute[static_cast<size_t>(i)];
        }
      }
    }

    const std::vector<dpc::PointId>& order = tree.leaf_order();
    const std::vector<dpc::KdTree::Leaf> leaves = tree.Leaves();
    std::vector<std::vector<uint8_t>> masks(
        5, std::vector<uint8_t>(static_cast<size_t>(n), 0));
    std::fill(masks[0].begin(), masks[0].end(), uint8_t{1});  // every point
    // masks[1] selects none.
    dpc::Rng rng(7 + static_cast<uint64_t>(dim));
    for (size_t l = 0; l < leaves.size(); ++l) {
      const dpc::KdTree::Leaf& leaf = leaves[l];
      const dpc::PointId len = leaf.end - leaf.begin;
      // One point per leaf, at a varying position in its run.
      const dpc::PointId one = leaf.begin + static_cast<dpc::PointId>(l) % len;
      masks[2][static_cast<size_t>(order[static_cast<size_t>(one)])] = 1;
      for (dpc::PointId pos = leaf.begin; pos < leaf.end; ++pos) {
        const dpc::PointId i = order[static_cast<size_t>(pos)];
        if (rng.NextBelow(10) == 0) masks[3][static_cast<size_t>(i)] = 1;
        for (int d = 0; d < dim; ++d) {
          if (points[i][d] == leaf.box[d] || points[i][d] == leaf.box[dim + d]) {
            masks[4][static_cast<size_t>(i)] = 1;
          }
        }
      }
    }
    size_t corners = 0;
    for (const uint8_t s : masks[4]) corners += s;
    // The corner mask leaves points out of most leaves, so its boxes are
    // taken from the selected points rather than the stored ones.
    CHECK(corners > leaves.size() && corners < static_cast<size_t>(n));

    for (const int threads : {1, 4}) {
      const dpc::ExecutionContext exec(
          threads, std::make_shared<dpc::ThreadPool>(threads));
      for (const std::vector<uint8_t>& mask : masks) {
        std::vector<double> rho(static_cast<size_t>(n), kSentinel);
        dpc::ExDpc::ComputeExactRho(tree, d_cut, exec, &rho, &mask);
        for (size_t i = 0; i < rho.size(); ++i) {
          CHECK_EQ(rho[i], mask[i] != 0 ? brute[i] : kSentinel);
        }
      }
    }
  }
}

void TestRecoversPlantedClusters() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 6000;
  gen.num_clusters = 5;
  gen.dim = 2;
  gen.overlap = 0.015;
  gen.noise_rate = 0.01;
  gen.seed = 42;
  std::vector<int64_t> truth;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen, &truth);

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 9000.0;
  CHECK(params.Validate().ok());

  dpc::ExDpc algo;
  const auto [solution, labeling] = dpc::test::Cluster(algo, points, params);

  CHECK_EQ(labeling.num_clusters(), 5);
  const auto summary = dpc::eval::Summarize(labeling);
  CHECK_EQ(summary.num_points, 6000);
  CHECK(summary.num_noise < 600);
  CHECK(summary.largest_cluster > 600);
  CHECK(dpc::eval::AdjustedRandIndex(labeling.label, truth) > 0.95);
  CHECK(solution.compute_cost_seconds >= 0.0);
  CHECK(solution.stats.index_memory_bytes > 0);
}

}  // namespace

int main() {
  TestAgainstBruteForce();
  TestMaskedExactRho();
  TestRecoversPlantedClusters();
  std::printf("ex_dpc_test OK\n");
  return 0;
}
