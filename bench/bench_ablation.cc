// Ablations of Approx-DPC's design choices (docs/BENCHMARKING.md lists
// every bench binary and the paper artifact it reproduces).
//
//   A. Joint range search (§4.2) vs per-point range counts: how much of
//      Approx-DPC's rho-phase win comes from sharing tree traversals.
//   C. The peaks' exact dependent search: one query on the rho kd-tree
//      (what Approx-DPC runs) vs the paper's density-ordered subset scheme
//      at Equation (2)'s s and under/over-partitioned s.
//
// There is no B: the cell loop claims grains like every pool loop, so
// there is no cell partition to ablate. A and C keep the letters that
// ROADMAP and code comments cite.
//
// A and C print "results identical"; the bench checks it and exits 1 on
// any rho (A) or delta/dependency (C) difference, so its smoke run is a
// correctness gate too.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "index/grid.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Ablation", "Approx-DPC design choices", cfg);

  auto workloads = bench::RealWorkloads(cfg);
  bool identical = true;

  // --- A: joint range search vs Ex-DPC's per-point range counts. ---
  std::printf("A. Joint range search (rho phase time [s]; results identical)\n");
  {
    eval::Table table({"dataset", "joint (paper)", "per-point (Ex-DPC)", "speedup"});
    for (const auto& w : workloads) {
      const ExecutionContext ctx(cfg.max_threads);
      // Ex-DPC runs the per-point range counts on the same kd-tree.
      const DpcSolution a = ApproxDpc().Solve(w.points, w.params.compute(), ctx);
      const DpcSolution b = ExDpc().Solve(w.points, w.params.compute(), ctx);
      const bool same = a.rho == b.rho;
      identical = identical && same;
      table.AddRow({w.name, StrFormat("%.3f", a.stats.rho_seconds),
                    StrFormat("%.3f", b.stats.rho_seconds),
                    StrFormat("%.2fx%s",
                              b.stats.rho_seconds /
                                  std::max(a.stats.rho_seconds, 1e-9),
                              same ? "" : " MISMATCH")});
    }
    table.Print();
  }

  // --- C: the peaks' exact dependent search. ---
  std::printf("\nC. Peaks' exact dependent search (time [s], Household-like; "
              "results identical)\n");
  {
    const auto& w = workloads[1];
    const PointId n = w.points.size();
    const ExecutionContext ctx(cfg.max_threads);
    const DpcSolution sol = ApproxDpc().Solve(w.points, w.params.compute(), ctx);
    const UniformGrid grid(
        w.points, w.params.d_cut / std::sqrt(static_cast<double>(w.points.dim())));
    std::vector<double> delta(static_cast<size_t>(n),
                              std::numeric_limits<double>::infinity());
    std::vector<PointId> dependency(static_cast<size_t>(n), -1);
    const std::vector<PointId> peaks =
        ElectCellPeaks(w.points, grid, sol.rho, &delta, &dependency);
    const KdTree tree(w.points);
    auto same = [&] {
      const bool ok = delta == sol.delta && dependency == sol.dependency;
      identical = identical && ok;
      return ok ? "" : " MISMATCH";
    };
    eval::Table table({"search", "time [s]", "note"});
    internal::WallTimer timer;
    ExDpc::ComputeExactDeltas(w.points, tree, sol.rho, ctx, &delta, &dependency,
                              &peaks);
    table.AddRow({"rho kd-tree (Approx-DPC)", StrFormat("%.3f", timer.Lap()), same()});
    const int solved = ApproxDpc::SolveNumSubsets(n, w.points.dim());
    for (const int s : {2, solved / 2 > 2 ? solved / 2 : 3, solved, solved * 4}) {
      timer.Lap();
      ApproxDpc::ComputePeakDeltasBySubsets(w.points, sol.rho, peaks, s, ctx, &delta,
                                            &dependency);
      const double seconds = timer.Lap();
      table.AddRow({StrFormat("subsets s=%d", s), StrFormat("%.3f", seconds),
                    StrFormat("%s%s", s == solved ? "Equation (2) solution" : "",
                              same())});
    }
    table.Print();
  }
  if (!identical) {
    std::fprintf(stderr, "bench_ablation: MISMATCH rows above\n");
    return 1;
  }
  return 0;
}
