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
//   * epsilon -> 0 keeps everyone and collapses to Approx-DPC exactly.
#include <cstdio>
#include <vector>

#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "eval/rand_index.h"
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

  std::printf("s_approx_dpc_test OK\n");
  return 0;
}
