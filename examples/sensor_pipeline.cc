// Domain scenario: clustering a high-dimensional sensor feed.
//
// The paper motivates DPC with applications that need clusters of
// arbitrary shape plus explicit noise — e.g. sensor analytics (its Sensor
// dataset is 8-dimensional). This example runs the full pipeline on the
// Sensor-like workload:
//
//   * clusters the feed with S-Approx-DPC at several eps settings,
//   * treats DPC noise (rho < rho_min) as anomalous readings,
//   * shows the speed/accuracy trade-off the eps knob buys (Table 5's
//     mechanism on a realistic workload).
//
// Build & run:  ./build/examples/sensor_pipeline
#include <cstdio>

#include "core/ex_dpc.h"
#include "core/s_approx_dpc.h"
#include "data/real_like.h"
#include "eval/cluster_stats.h"
#include "eval/rand_index.h"

int main() {
  const auto& spec = dpc::data::RealDatasetSpecByName("Sensor");
  const dpc::PointId n = 30000;
  const dpc::PointSet feed = dpc::data::MakeRealLike(spec, n);
  std::printf("sensor feed: %lld readings x %d channels, domain [0, %.0f]\n\n",
              static_cast<long long>(n), spec.dim, spec.domain);

  dpc::DpcParams params;
  params.d_cut = spec.default_d_cut;  // 5000, the paper's Sensor default
  params.rho_min = 8.0;
  params.delta_min = 3.0 * params.d_cut;
  const dpc::ExecutionContext ctx;  // all hardware threads

  // Exact reference for quality scoring.
  const dpc::DpcSolution exact = dpc::ExDpc().Solve(feed, params.compute(), ctx);
  const dpc::Labeling ground = dpc::LabelSolution(exact, params.threshold());
  std::printf("exact reference (Ex-DPC): %lld clusters, %.2f s\n\n",
              static_cast<long long>(ground.num_clusters()), exact.compute_cost_seconds);

  std::printf("%-6s %-10s %-10s %-10s %-10s\n", "eps", "clusters", "noise",
              "time[s]", "RandIdx");
  for (const double eps : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    dpc::DpcParams p = params;
    p.epsilon = eps;
    const dpc::DpcSolution solution = dpc::SApproxDpc().Solve(feed, p.compute(), ctx);
    const dpc::Labeling r = dpc::LabelSolution(solution, p.threshold());
    const auto s = dpc::eval::Summarize(r);
    std::printf("%-6.1f %-10lld %-10lld %-10.3f %-10.4f\n", eps,
                static_cast<long long>(s.num_clusters),
                static_cast<long long>(s.num_noise + s.num_unassigned),
                solution.compute_cost_seconds,
                dpc::eval::RandIndex(r.label, ground.label));
  }

  // Anomaly report from the exact run: the sparsest readings.
  const auto summary = dpc::eval::Summarize(ground);
  std::printf("\nanomalous readings (density < rho_min): %lld of %lld (%.2f%%)\n",
              static_cast<long long>(summary.num_noise),
              static_cast<long long>(summary.num_points),
              100.0 * static_cast<double>(summary.num_noise) /
                  static_cast<double>(summary.num_points));
  std::printf("use Labeling::is_noise to route them to an alerting pipeline.\n");
  return 0;
}
