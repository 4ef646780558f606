// Table 5 — running time vs accuracy of S-Approx-DPC as eps grows.
//
// Reproduces: eps in {0.2, 0.4, 0.6, 0.8, 1.0} on Airline-like and
// Household-like data. S-Approx-DPC's cell side is eps*d_cut/sqrt(dim)
// and it runs one range count per cell, so a larger eps means fewer
// cells, fewer range counts and less time, while the Rand index against
// Ex-DPC decays only slightly (the paper: Airline 32.2s/0.998 at 0.2 down
// to 16.4s/0.969 at 1.0).
//
// Each dataset prints PASS/FAIL for three shapes:
//   time   time(eps=1) / time(eps=0.2) <= 0.75;
//   rand   Rand index >= 0.95 at eps=1;
//   approx S-Approx-DPC at eps=1 is faster than Approx-DPC.
// The Household stand-in's 7-D cells hold ~1 point even at eps=1, so it
// is expected to FAIL the time shape.
//
// --json <path> records, per dataset and eps, the median solve seconds,
// the Rand index, the cluster count and the grid's cell count; and per
// dataset a shape row whose `range_count_speedup` — cells(eps=0.2) /
// cells(eps=1), the range counts eps=1 saves — is a pure function of the
// points, gated by scripts/check_bench_regression.py. The time ratios and
// the shape verdicts (1 = PASS, 0 = FAIL) are informational.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "eval/rand_index.h"
#include "index/grid.h"

namespace {

constexpr int kRepeats = 3;

/// Median over kRepeats solves of the solve's total seconds (the label
/// pass is not timed); the last solve's labels land in *out.
double MedianSolveSeconds(dpc::DpcAlgorithm& algo, const dpc::PointSet& points,
                          const dpc::DpcParams& p, const dpc::ExecutionContext& ctx,
                          dpc::Labeling* out) {
  std::vector<double> seconds;
  dpc::DpcSolution solution;
  for (int r = 0; r < kRepeats; ++r) {
    solution = algo.Solve(points, p.compute(), ctx);
    seconds.push_back(solution.compute_cost_seconds);
  }
  *out = dpc::LabelSolution(solution, p.threshold());
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

const char* Verdict(bool pass) { return pass ? "PASS" : "FAIL"; }

}  // namespace

int main(int argc, char** argv) {
  using namespace dpc;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Table 5", "S-Approx-DPC time vs Rand index across eps", cfg);
  eval::BenchJsonWriter json("bench_epsilon_tradeoff");
  bench::AddStandardConfig(cfg, &json);

  const std::vector<double> epsilons = {0.2, 0.4, 0.6, 0.8, 1.0};
  for (const char* name : {"Airline", "Household"}) {
    bench::Workload target;
    for (auto& w : bench::RealWorkloads(cfg)) {
      if (w.name == name) target = std::move(w);
    }
    const DpcParams& params = target.params;
    const ExecutionContext ctx(cfg.max_threads);
    std::string key = name;
    for (char& c : key) c = static_cast<char>(std::tolower(c));

    const Labeling ground = LabelSolution(
        ExDpc().Solve(target.points, params.compute(), ctx), params.threshold());
    ApproxDpc approx;
    Labeling approx_labels;
    const double approx_s =
        MedianSolveSeconds(approx, target.points, params, ctx, &approx_labels);

    std::printf("%s (n=%lld, Approx-DPC %.3f s)\n", name,
                static_cast<long long>(target.points.size()), approx_s);
    eval::Table table({"eps", "time [s]", "Rand index", "clusters", "cells"});
    std::vector<double> seconds, rand_index;
    std::vector<CellId> cells;
    for (const double eps : epsilons) {
      DpcParams p = params;
      p.epsilon = eps;
      SApproxDpc s_approx;
      Labeling r;
      seconds.push_back(MedianSolveSeconds(s_approx, target.points, p, ctx, &r));
      rand_index.push_back(eval::RandIndex(r.label, ground.label));
      cells.push_back(
          UniformGrid(target.points, s_approx.CellSide(p.compute(), target.points.dim()))
              .num_cells());
      table.AddRow({StrFormat("%.1f", eps), StrFormat("%.3f", seconds.back()),
                    StrFormat("%.4f", rand_index.back()),
                    std::to_string(r.num_clusters()), std::to_string(cells.back())});
      json.BeginResult(StrFormat("%s_eps%.1f", key.c_str(), eps));
      json.AddMetric("seconds", seconds.back());
      json.AddMetric("rand_index", rand_index.back());
      json.AddMetric("clusters", static_cast<double>(r.num_clusters()));
      json.AddMetric("grid_cells", static_cast<double>(cells.back()));
    }
    table.Print();

    const double time_ratio = seconds.back() / seconds.front();
    const double over_approx = seconds.back() / approx_s;
    const bool time_pass = time_ratio <= 0.75;
    const bool rand_pass = rand_index.back() >= 0.95;
    const bool approx_pass = seconds.back() < approx_s;
    std::printf("  time   time(1)/time(0.2) = %.3f (<= 0.75)      %s\n", time_ratio,
                Verdict(time_pass));
    std::printf("  rand   Rand at eps=1 = %.4f (>= 0.95)          %s\n",
                rand_index.back(), Verdict(rand_pass));
    std::printf("  approx S-Approx(1)/Approx-DPC time = %.3f (< 1) %s\n\n", over_approx,
                Verdict(approx_pass));
    json.BeginResult(key + "_table5");
    json.AddMetric("range_count_speedup", static_cast<double>(cells.front()) /
                                              static_cast<double>(cells.back()));
    json.AddMetric("approx_seconds", approx_s);
    json.AddMetric("time_ratio_eps1_over_eps02", time_ratio);
    json.AddMetric("sapprox_eps1_over_approx_time", over_approx);
    json.AddMetric("time_shape_pass", time_pass ? 1.0 : 0.0);
    json.AddMetric("rand_shape_pass", rand_pass ? 1.0 : 0.0);
    json.AddMetric("approx_shape_pass", approx_pass ? 1.0 : 0.0);
  }
  std::printf("expected shape (Table 5): time falls as eps grows; Rand index "
              "drifts down only slightly. Household is expected to FAIL the "
              "time shape: its 7-D cells hold ~1 point even at eps=1.\n");

  if (args.WantJson()) {
    if (!json.WriteFile(args.json_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}
