// Ablations of Approx-DPC's design choices (DESIGN.md experiment index).
//
//   A. Joint range search (§4.2) vs per-point range counts: how much of
//      Approx-DPC's rho-phase win comes from sharing tree traversals.
//   B. Cost-based LPT partitioning (§4.5) vs plain dynamic scheduling:
//      the load-balance quality (max/min thread load under the cost
//      model) and wall time. On 1-core machines only the balance metric
//      is meaningful.
//   C. The peaks' exact dependent search: one query on the rho kd-tree
//      (what Approx-DPC runs) vs the paper's density-ordered subset scheme
//      at Equation (2)'s s and under/over-partitioned s.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "index/grid.h"
#include "parallel/lpt_scheduler.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Ablation", "Approx-DPC design choices", cfg);

  auto workloads = bench::RealWorkloads(cfg);

  // --- A: joint range search vs Ex-DPC's per-point range counts. ---
  std::printf("A. Joint range search (rho phase time [s]; results identical)\n");
  {
    eval::Table table({"dataset", "joint (paper)", "per-point (Ex-DPC)", "speedup"});
    for (const auto& w : workloads) {
      const ExecutionContext ctx(cfg.max_threads);
      // Ex-DPC runs the per-point range counts on the same kd-tree.
      const DpcSolution a = ApproxDpc().Solve(w.points, w.params.compute(), ctx);
      const DpcSolution b = ExDpc().Solve(w.points, w.params.compute(), ctx);
      table.AddRow({w.name, StrFormat("%.3f", a.stats.rho_seconds),
                    StrFormat("%.3f", b.stats.rho_seconds),
                    StrFormat("%.2fx", b.stats.rho_seconds /
                                           std::max(a.stats.rho_seconds, 1e-9))});
    }
    table.Print();
  }

  // --- B: LPT vs hash partitioning balance. ---
  std::printf("\nB. Load balancing: LPT vs hash partitioning (cost-model imbalance, "
              "8 simulated threads)\n");
  {
    eval::Table table({"dataset", "LPT makespan/mean", "hash makespan/mean"});
    for (const auto& w : workloads) {
      // Cost model of the rho phase: |P(c)| per cell.
      UniformGrid grid(w.points, w.params.d_cut / std::sqrt(static_cast<double>(w.points.dim())));
      std::vector<double> costs(static_cast<size_t>(grid.num_cells()));
      double total = 0.0;
      for (CellId c = 0; c < grid.num_cells(); ++c) {
        costs[static_cast<size_t>(c)] = static_cast<double>(grid.members(c).size());
        total += costs[static_cast<size_t>(c)];
      }
      const int threads = 8;
      const Schedule lpt = LptSchedule(costs, threads);
      // Hash partitioning: cell id modulo thread (LSH-DDP's strategy).
      std::vector<double> hash_load(static_cast<size_t>(threads), 0.0);
      for (size_t c = 0; c < costs.size(); ++c) hash_load[c % threads] += costs[c];
      double hash_max = 0.0;
      for (const double l : hash_load) hash_max = std::max(hash_max, l);
      const double mean = total / threads;
      table.AddRow({w.name, StrFormat("%.3f", lpt.makespan / mean),
                    StrFormat("%.3f", hash_max / mean)});
    }
    table.Print();
    std::printf("   (1.0 = perfect balance; LPT should sit at ~1.00, hash above it)\n");
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
        ElectCellPeaks(w.points, grid, sol.rho, ctx, &delta, &dependency);
    const KdTree tree(w.points);
    auto same = [&] {
      return delta == sol.delta && dependency == sol.dependency ? "" : " MISMATCH";
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
  return 0;
}
