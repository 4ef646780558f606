// Figure 2 — clustering quality of DPC vs DBSCAN on S2.
//
// Reproduces Example 2: DBSCAN's parameters are chosen so that ~15
// clusters are obtained from OPTICS, then both algorithms are scored
// against the generating 15-component mixture. Expected shape: DPC's
// agreement (especially ARI) exceeds DBSCAN's because DBSCAN merges
// overlapping clusters connected by border points.
#include <cstdio>

#include "baselines/dbscan.h"
#include "baselines/optics.h"
#include "bench_util.h"
#include "common/string_util.h"
#include "core/ex_dpc.h"
#include "data/generators.h"
#include "eval/rand_index.h"
#include "eval/svg_plot.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Figure 2", "DPC vs DBSCAN clustering quality on S2", cfg);

  eval::Table table({"overlap", "algorithm", "clusters", "RandIdx", "ARI"});
  // Sweep overlap: the S2/S3 regimes are where DBSCAN starts merging.
  for (const double overlap : {0.025, 0.035, 0.045}) {
    data::GaussianBenchmarkParams gen;
    gen.num_points = cfg.Scaled(10000);
    gen.num_clusters = 15;
    gen.overlap = overlap;
    gen.noise_rate = 0.01;
    gen.seed = 22;
    std::vector<int64_t> truth;
    const PointSet points = data::GaussianBenchmark(gen, &truth);

    DpcParams params;
    params.d_cut = 1400.0;
    params.rho_min = 4.0;
    params.delta_min = 9000.0;
    const DpcResult r = FinalizeSolution(
        ExDpc().Solve(points, params.compute(), ExecutionContext(cfg.max_threads)),
        params.threshold());

    const int min_pts = 8;
    const double max_eps = 4000.0;
    const OpticsResult optics = Optics(points, {.max_eps = max_eps, .min_pts = min_pts});
    const double eps = FindThresholdForClusterCount(optics, max_eps, 15);
    const DbscanResult db = Dbscan(points, {.eps = eps, .min_pts = min_pts});

    table.AddRow({StrFormat("%.3f", overlap), "DPC (Ex-DPC)",
                  std::to_string(r.num_clusters()),
                  StrFormat("%.4f", eval::RandIndex(r.label, truth)),
                  StrFormat("%.4f", eval::AdjustedRandIndex(r.label, truth))});
    table.AddRow({StrFormat("%.3f", overlap),
                  StrFormat("DBSCAN (eps=%.0f)", eps),
                  std::to_string(db.num_clusters),
                  StrFormat("%.4f", eval::RandIndex(db.label, truth)),
                  StrFormat("%.4f", eval::AdjustedRandIndex(db.label, truth))});

    // Render the two panels of Figure 2 at the middle overlap setting.
    if (overlap == 0.035) {
      eval::SvgOptions opt;
      opt.title = "Figure 2(a): DPC on S2";
      (void)eval::WriteScatterSvg(points, r.label, r.centers, "fig2a_dpc.svg", opt);
      opt.title = "Figure 2(b): DBSCAN on S2";
      (void)eval::WriteScatterSvg(points, db.label, {}, "fig2b_dbscan.svg", opt);
    }
  }
  table.Print();
  std::printf("\nexpected shape: DPC >= DBSCAN at every overlap, gap widening "
              "with overlap (Figure 2's merge effect).\n"
              "renderings: fig2a_dpc.svg, fig2b_dbscan.svg\n");
  return 0;
}
