// Conformance of the §6 baselines against Ex-DPC on planted Gaussians:
//
//   * Scan is exact by construction — rho identical, labels and centers
//     identical, deltas equal up to floating ties;
//   * R-tree + Scan shares Scan's exactness (the index only accelerates
//     the counting);
//   * CFSFDP-A and LSH-DDP approximate rho, so they only need to stay
//     close: Rand index >= 0.90 against the exact labeling.
#include <cstdio>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "baselines/scan_dpc.h"
#include "core/ex_dpc.h"
#include "data/generators.h"
#include "eval/rand_index.h"
#include "tests/test_util.h"

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 4000;
  gen.num_clusters = 5;
  gen.overlap = 0.015;
  gen.noise_rate = 0.02;
  gen.seed = 42;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 10000.0;
  auto cluster = [&](dpc::DpcAlgorithm&& algo) {
    return dpc::test::Cluster(algo, points, params, dpc::ExecutionContext(2));
  };

  const dpc::test::Clustering ground = cluster(dpc::ExDpc());
  CHECK(ground.labeling.num_clusters() >= 2);

  // Scan: ground truth by construction — must agree with Ex-DPC exactly.
  const dpc::test::Clustering scan = cluster(dpc::ScanDpc());
  CHECK(scan.solution.rho == ground.solution.rho);
  CHECK(scan.labeling.label == ground.labeling.label);
  CHECK(scan.labeling.centers == ground.labeling.centers);
  for (size_t i = 0; i < ground.solution.delta.size(); ++i) {
    if (std::isinf(ground.solution.delta[i])) {
      CHECK(std::isinf(scan.solution.delta[i]));  // the global density peak
    } else {
      CHECK_NEAR(scan.solution.delta[i], ground.solution.delta[i], 1e-9);
    }
  }

  // R-tree + Scan: identical counting, identical dependent pass.
  const dpc::test::Clustering rtree = cluster(dpc::RtreeScanDpc());
  CHECK(rtree.solution.rho == scan.solution.rho);
  CHECK(rtree.labeling.label == scan.labeling.label);
  CHECK(rtree.labeling.centers == scan.labeling.centers);

  // Approximate-density baselines: close, not exact.
  const double ri_cfsfdp = dpc::eval::RandIndex(
      cluster(dpc::CfsfdpA()).labeling.label, ground.labeling.label);
  std::printf("CFSFDP-A Rand index vs Ex-DPC: %.4f\n", ri_cfsfdp);
  CHECK(ri_cfsfdp >= 0.90);

  const double ri_lsh = dpc::eval::RandIndex(
      cluster(dpc::LshDdp()).labeling.label, ground.labeling.label);
  std::printf("LSH-DDP Rand index vs Ex-DPC: %.4f\n", ri_lsh);
  CHECK(ri_lsh >= 0.90);

  std::printf("baselines_test OK\n");
  return 0;
}
