// Ablations of Approx-DPC's design choices (docs/BENCHMARKING.md lists
// every bench binary and the paper artifact it reproduces).
//
//   A. How exact rho groups its kd-tree range counts, on one tree: one
//      count per point (the paper's Ex-DPC, §3), one joint range search
//      per grid cell over the cell's member box (the paper's Approx-DPC,
//      §4.2), and one joint count per kd-tree leaf over the leaf's stored
//      box (ExDpc::ComputeExactRho, what Ex-DPC and Approx-DPC run). Each
//      row times its rho phase alone.
//   C. The peaks' exact dependent search: one query on the rho kd-tree
//      (what Approx-DPC runs) vs the paper's density-ordered subset scheme
//      at Equation (2)'s s and under/over-partitioned s.
//
// There is no B: the cell loop claims grains like every pool loop, so
// there is no cell partition to ablate. A and C keep the letters that
// ROADMAP and code comments cite.
//
// A and C print "results identical"; the bench checks it and exits 1 on
// any rho (A, each row against the per-leaf rho) or delta/dependency (C)
// difference, so its smoke run is a correctness gate too.
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

  // --- A: exact rho per point, per grid cell and per kd-tree leaf. ---
  std::printf("A. Exact rho grouping (rho phase time [s]; results identical)\n");
  {
    eval::Table table({"dataset", "grouping", "rho [s]", "vs per leaf"});
    for (const auto& w : workloads) {
      const ExecutionContext ctx(cfg.max_threads);
      const PointSet& points = w.points;
      const double d_cut = w.params.d_cut;
      const int dim = points.dim();
      KdTree tree;
      tree.Build(points, ctx);
      const std::vector<PointId>& order = tree.leaf_order();
      UniformGrid grid;
      grid.Build(points, d_cut / std::sqrt(static_cast<double>(dim)), ctx, order);

      // Each row writes a vector allocated (and zero-filled) up front, and
      // one untimed per-leaf pass warms the tree and the pool, so no row
      // pays a first touch the others skip.
      const size_t n = static_cast<size_t>(points.size());
      std::vector<double> leaf_rho(n), point_rho(n), cell_rho(n);
      ExDpc::ComputeExactRho(tree, d_cut, ctx, &leaf_rho);
      internal::WallTimer timer;
      ExDpc::ComputeExactRho(tree, d_cut, ctx, &leaf_rho);
      const double leaf_s = timer.Lap();

      ParallelFor(ctx, points.size(), [&](PointId begin, PointId end) {
        for (PointId pos = begin; pos < end; ++pos) {
          const PointId i = order[static_cast<size_t>(pos)];
          point_rho[static_cast<size_t>(i)] =
              static_cast<double>(tree.RangeCount(points[i], d_cut) - 1);
        }
      });
      const double point_s = timer.Lap();

      ParallelFor(ctx, grid.num_cells(), [&](int64_t begin, int64_t end) {
        // Per-thread scratch (pool workers persist): the members' tight
        // bounding box, lo then hi, and their counts.
        static thread_local std::vector<double> box;
        static thread_local std::vector<PointId> counts;
        for (CellId cell = begin; cell < end; ++cell) {
          const std::vector<PointId>& members = grid.members(cell);
          box.resize(static_cast<size_t>(2 * dim));
          double* lo = box.data();
          double* hi = box.data() + dim;
          for (int d = 0; d < dim; ++d) {
            lo[d] = std::numeric_limits<double>::infinity();
            hi[d] = -std::numeric_limits<double>::infinity();
          }
          for (const PointId i : members) {
            for (int d = 0; d < dim; ++d) {
              lo[d] = std::min(lo[d], points[i][d]);
              hi[d] = std::max(hi[d], points[i][d]);
            }
          }
          counts.resize(members.size());
          tree.JointRangeCount(members.data(), members.size(), box.data(), d_cut,
                               counts.data());
          for (size_t k = 0; k < members.size(); ++k) {
            cell_rho[static_cast<size_t>(members[k])] =
                static_cast<double>(counts[k] - 1);
          }
        }
      });
      const double cell_s = timer.Lap();

      auto row = [&](const char* grouping, double seconds,
                     const std::vector<double>& rho) {
        const bool same = rho == leaf_rho;
        identical = identical && same;
        table.AddRow({w.name, grouping, StrFormat("%.3f", seconds),
                      StrFormat("%.2fx%s", seconds / std::max(leaf_s, 1e-9),
                                same ? "" : " MISMATCH")});
      };
      row("per point (Ex-DPC, paper)", point_s, point_rho);
      row("per grid cell (Approx-DPC, paper)", cell_s, cell_rho);
      row("per kd-tree leaf (both solves)", leaf_s, leaf_rho);
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
