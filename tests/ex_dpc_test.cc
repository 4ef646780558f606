// Ex-DPC correctness: rho/delta/dependency match an O(n^2) brute-force
// reference on a small input, and the algorithm recovers k planted,
// well-separated Gaussian clusters on a larger one.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/ex_dpc.h"
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
  TestRecoversPlantedClusters();
  std::printf("ex_dpc_test OK\n");
  return 0;
}
