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
    return dpc::FinalizeSolution(
        algo.Solve(points, params.compute(), dpc::ExecutionContext(2)),
        params.threshold());
  };

  const dpc::DpcResult ground = cluster(dpc::ExDpc());
  CHECK(ground.num_clusters() >= 2);

  // Scan: ground truth by construction — must agree with Ex-DPC exactly.
  const dpc::DpcResult scan_result = cluster(dpc::ScanDpc());
  CHECK(scan_result.rho == ground.rho);
  CHECK(scan_result.label == ground.label);
  CHECK(scan_result.centers == ground.centers);
  for (size_t i = 0; i < ground.delta.size(); ++i) {
    if (std::isinf(ground.delta[i])) {
      CHECK(std::isinf(scan_result.delta[i]));  // the global density peak
    } else {
      CHECK_NEAR(scan_result.delta[i], ground.delta[i], 1e-9);
    }
  }

  // R-tree + Scan: identical counting, identical dependent pass.
  const dpc::DpcResult rtree_result = cluster(dpc::RtreeScanDpc());
  CHECK(rtree_result.rho == scan_result.rho);
  CHECK(rtree_result.label == scan_result.label);
  CHECK(rtree_result.centers == scan_result.centers);

  // Approximate-density baselines: close, not exact.
  const double ri_cfsfdp =
      dpc::eval::RandIndex(cluster(dpc::CfsfdpA()).label, ground.label);
  std::printf("CFSFDP-A Rand index vs Ex-DPC: %.4f\n", ri_cfsfdp);
  CHECK(ri_cfsfdp >= 0.90);

  const double ri_lsh =
      dpc::eval::RandIndex(cluster(dpc::LshDdp()).label, ground.label);
  std::printf("LSH-DDP Rand index vs Ex-DPC: %.4f\n", ri_lsh);
  CHECK(ri_lsh >= 0.90);

  std::printf("baselines_test OK\n");
  return 0;
}
