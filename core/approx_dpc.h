// Approx-DPC: the paper's grid-based approximation (§4).
//
// The domain is cut into cells of width d_cut / sqrt(dim), so any two
// points sharing a cell are within d_cut of each other. Each cell's
// densest point is its *peak*. The approximation:
//
//   * non-peak points take their cell peak as dependent point — distance
//     <= the cell diameter = d_cut < delta_min, so they can never become
//     centers and need no exact delta search;
//   * only cell peaks (a small fraction of n) run the exact
//     nearest-denser-neighbor query, so center selection is EXACT — the
//     paper's headline property: Approx-DPC returns the same centers as
//     Ex-DPC.
//
// rho is exact: ExDpc::ComputeExactRho, the same one joint count per
// kd-tree leaf that Ex-DPC runs. Approx-DPC no longer runs the paper's
// per-cell §4.2 joint range search; the counts are exact integers, so
// its outputs are unchanged (ablation A of bench_ablation times per-point,
// per-cell and per-leaf counting and checks they agree). S-Approx-DPC
// counts its cell representatives on the same path (below).
//
// One spatial order per solve: the kd-tree is built on the solve's pool
// first, and the grid is then built on the pool in the tree's leaf order
// (UniformGrid::Build(points, side, exec, tree.leaf_order())). CellIds
// follow first touch along that order, so the cell loop's grains, each
// cell's member list and the peak list all walk space leaf by leaf.
// The cell loop is a plain ParallelFor over CellIds: threads claim
// grains of consecutive cells, as every other pool loop does (the
// paper's §4.5 cost-guided LPT partition showed no win over grains).
// Every per-point result is order-independent — DenserThan is a total
// order and nearest ties break to the smaller id — so the order changes
// speed, never a bit of the output.
//
// The peaks' exact dependent search runs on the kd-tree already built
// for rho: one predicate nearest-denser query per peak, the same query
// Ex-DPC runs for every point (ExDpc::ComputeExactDeltas). The paper's
// density-ordered subset scheme — s subsets by density rank, one kd-tree
// each, s from the Equation (2) cost model — stays as
// ComputePeakDeltasBySubsets, the reference that tests and ablation C
// check this search against. It costs a second density sort, s tree
// builds and up to s descents per peak, where the rho tree answers each
// peak in one.
//
// S-Approx-DPC (core/s_approx_dpc.h) runs this same solve with three
// differences, selected by the protected ApproxDpc(true) constructor:
//   * the cell side is epsilon*d_cut/sqrt(dim);
//   * rho is counted for each cell's smallest-id member only: one pool
//     pass over the cells marks those representatives, one
//     ExDpc::ComputeExactRho call counts the marked points (a joint count
//     per kd leaf over its marked points and their tight box), and the
//     cell loop hands each representative's rho to the cell's other
//     members before the peak election (so the representative is the
//     cell's peak). The counts are exact integers, so this gives the rho
//     one RangeCount per representative gives (ablation D of
//     bench_ablation times both and checks they agree);
//   * the peaks' nearest-denser search runs on a kd-tree over the cell
//     peaks alone (KdTree::Build(points, peaks, exec)), built after the
//     full tree and the grid are released.
// Approx-DPC ignores epsilon.
//
// Phase timers: DpcStats::rho_seconds covers rho (with S-Approx-DPC's
// representative pass) and the cell loop's peak election and snap, and
// delta_seconds is the peaks' search alone (for S-Approx-DPC, the peaks
// tree's build included).
#ifndef DPC_CORE_APPROX_DPC_H_
#define DPC_CORE_APPROX_DPC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

/// One grid cell's peak pass: elects the cell's densest member (under
/// DenserThan) as its peak and snaps every other member to it —
/// dependency = peak, delta = distance to the peak. It writes only the
/// members' slots, so cells can run in any order on any thread. Returns
/// the peak.
inline PointId ElectCellPeak(const PointSet& points,
                             const std::vector<PointId>& members,
                             const std::vector<double>& rho,
                             std::vector<double>* delta,
                             std::vector<PointId>* dependency) {
  PointId peak = members.front();
  for (const PointId i : members) {
    if (DenserThan(rho[static_cast<size_t>(i)], i,
                   rho[static_cast<size_t>(peak)], peak)) {
      peak = i;
    }
  }
  if (members.size() == 1) return peak;
  // Per-thread scratch (pool workers persist), resized per cell. The
  // gather kernel's per-point arithmetic is the scalar reference's, so
  // the sqrt below is bit-identical to the scalar Distance.
  static thread_local std::vector<double> snap_sq;
  snap_sq.resize(members.size());
  kernels::SquaredDistanceGather(points, members.data(),
                                 static_cast<PointId>(members.size()),
                                 points[peak], snap_sq.data());
  for (size_t k = 0; k < members.size(); ++k) {
    const PointId i = members[k];
    if (i == peak) continue;
    (*dependency)[static_cast<size_t>(i)] = peak;
    (*delta)[static_cast<size_t>(i)] = std::sqrt(snap_sq[k]);
  }
  return peak;
}

/// ElectCellPeak over every grid cell, serially; returns the peaks
/// indexed by CellId (the grid's first-touch order). SolveImpl runs
/// ElectCellPeak inside its pool cell loop instead; this loop is the
/// reference tests and ablation C rebuild the peaks with.
inline std::vector<PointId> ElectCellPeaks(const PointSet& points,
                                           const UniformGrid& grid,
                                           const std::vector<double>& rho,
                                           std::vector<double>* delta,
                                           std::vector<PointId>* dependency) {
  std::vector<PointId> peaks(static_cast<size_t>(grid.num_cells()));
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    peaks[static_cast<size_t>(c)] =
        ElectCellPeak(points, grid.members(c), rho, delta, dependency);
  }
  return peaks;
}

class ApproxDpc : public DpcAlgorithm {
 public:
  ApproxDpc() = default;

  std::string_view name() const override { return "Approx-DPC"; }

  /// The grid's cell side for `compute` on `dim`-dimensional points:
  /// d_cut/sqrt(dim), which bounds the cell diameter by d_cut, scaled by
  /// epsilon for S-Approx-DPC.
  double CellSide(const ComputeParams& compute, int dim) const {
    const double d_cut = s_approx_ ? compute.epsilon * compute.d_cut : compute.d_cut;
    return d_cut / std::sqrt(static_cast<double>(dim));
  }

  /// The Equation (2) analog of our cost model for the density-ordered
  /// subset search: total tree build shrinks with s (s trees of n/s
  /// points cost n*log2(n/s) together) while expected query work grows
  /// linearly in s (a peak of uniform rank visits ~s/2 subsets).
  /// Balancing d/ds of the two terms gives s* ~ 2*sqrt(n)/log2(n).
  static int SolveNumSubsets(PointId n, int dim) {
    (void)dim;  // the log-tree costs cancel the dimension factor
    if (n < 2) return 1;
    const double nd = static_cast<double>(n);
    const int s =
        static_cast<int>(std::lround(2.0 * std::sqrt(nd) / std::log2(nd)));
    return std::clamp<int>(s, 1, static_cast<int>(std::min<PointId>(n, 256)));
  }

 protected:
  /// `s_approx` = true is S-Approx-DPC's solve (see the file comment).
  explicit ApproxDpc(bool s_approx) : s_approx_(s_approx) {}

  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& exec) override {
    DpcSolution result;
    const PointId n = points.size();
    const int dim = points.dim();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer phase;
    KdTree tree;
    tree.Build(points, exec);

    // Grid with cell side CellSide (cell diameter <= d_cut for
    // Approx-DPC), built in the tree's leaf order.
    UniformGrid grid;
    grid.Build(points, CellSide(compute, dim), exec, tree.leaf_order());
    result.stats.index_memory_bytes = tree.MemoryBytes() + grid.MemoryBytes();
    result.stats.build_seconds = phase.Lap();

    // rho — exact for every point for Approx-DPC; for S-Approx-DPC exact
    // for each cell's smallest-id member, whose count the cell loop fans
    // out to the other members — then each cell's peak election and snap.
    const auto representative = [&grid](CellId cell) {
      const std::vector<PointId>& members = grid.members(cell);
      return *std::min_element(members.begin(), members.end());
    };
    if (s_approx_) {
      std::vector<uint8_t> selected(static_cast<size_t>(n), 0);
      ParallelFor(exec, grid.num_cells(), [&](int64_t begin, int64_t end) {
        for (CellId cell = begin; cell < end; ++cell) {
          selected[static_cast<size_t>(representative(cell))] = 1;
        }
      });
      ExDpc::ComputeExactRho(tree, compute.d_cut, exec, &result.rho, &selected);
    } else {
      ExDpc::ComputeExactRho(tree, compute.d_cut, exec, &result.rho);
    }
    std::vector<PointId> peaks(static_cast<size_t>(grid.num_cells()), PointId{-1});
    ParallelFor(exec, grid.num_cells(), [&](int64_t begin, int64_t end) {
      for (CellId cell = begin; cell < end; ++cell) {
        const std::vector<PointId>& members = grid.members(cell);
        if (s_approx_) {
          const double rho_m = result.rho[static_cast<size_t>(representative(cell))];
          for (const PointId i : members) {
            result.rho[static_cast<size_t>(i)] = rho_m;
          }
        }
        peaks[static_cast<size_t>(cell)] = ElectCellPeak(
            points, members, result.rho, &result.delta, &result.dependency);
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(exec, &result)) return result;

    // delta: the peaks alone take the nearest-denser search — on the rho
    // tree over every point, or, for S-Approx-DPC, on a tree over the cell
    // peaks alone. The full tree and the grid are released first, so the
    // peaks tree never sits beside them; its queries run in its own leaf
    // order.
    if (s_approx_) {
      tree = KdTree();
      grid = UniformGrid();
      KdTree peak_tree;
      peak_tree.Build(points, peaks, exec);
      ExDpc::ComputeExactDeltas(points, peak_tree, result.rho, exec,
                                &result.delta, &result.dependency,
                                &peak_tree.leaf_order());
    } else {
      ExDpc::ComputeExactDeltas(points, tree, result.rho, exec, &result.delta,
                                &result.dependency, &peaks);
    }
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(exec, &result);
    return result;
  }

 public:
  /// The paper's dependent-point strategy for cell peaks, kept as the
  /// reference for the rho-tree search SolveImpl runs (tests and ablation
  /// C compare the two): points are sorted into `num_subsets`
  /// density-ordered subsets, a kd-tree is bulk-loaded per subset, and
  /// each peak queries subsets densest-first. Every subset that wholly
  /// precedes the peak's own outranks it, so the query degenerates to a
  /// plain nearest-neighbor there; only the peak's own subset needs the
  /// denser-than predicate. The result is exactly the nearest denser
  /// neighbor (same candidate set as a global predicate search); only a
  /// tie between equidistant candidates may resolve differently. Here
  /// the densest of them wins: within a subset the kd-tree breaks exact
  /// ties to the smallest local id, which is the densest point, and a
  /// later (sparser) subset must be strictly closer to displace the
  /// running best. The rho tree breaks the same tie to the smallest
  /// point id. The s tree builds run as pool tasks that never poll the
  /// stop state; the peaks run as a ParallelFor.
  static void ComputePeakDeltasBySubsets(
      const PointSet& points, const std::vector<double>& rho,
      const std::vector<PointId>& peaks, int num_subsets,
      const ExecutionContext& exec, std::vector<double>* delta,
      std::vector<PointId>* dependency) {
    const PointId n = points.size();
    const int dim = points.dim();
    if (n == 0 || peaks.empty()) return;
    const std::vector<PointId> order = DensityOrder(rho);
    std::vector<PointId> rank(static_cast<size_t>(n));
    for (PointId pos = 0; pos < n; ++pos) {
      rank[static_cast<size_t>(order[static_cast<size_t>(pos)])] = pos;
    }
    const int s = static_cast<int>(
        std::clamp<PointId>(num_subsets, 1, n));
    const PointId block = (n + s - 1) / s;

    std::vector<PointSet> subsets(static_cast<size_t>(s), PointSet(dim));
    for (int b = 0; b < s; ++b) {
      const PointId begin = static_cast<PointId>(b) * block;
      const PointId end = std::min<PointId>(begin + block, n);
      subsets[static_cast<size_t>(b)].Reserve(end - begin);
      for (PointId pos = begin; pos < end; ++pos) {
        subsets[static_cast<size_t>(b)].Add(
            points[order[static_cast<size_t>(pos)]]);
      }
    }
    std::vector<KdTree> trees(static_cast<size_t>(s));
    internal::RunTasks(exec, trees.size(), [&](size_t b) {
      trees[b].Build(subsets[b]);
    });

    ParallelFor(exec, static_cast<int64_t>(peaks.size()),
                [&](int64_t begin, int64_t end) {
      for (int64_t k = begin; k < end; ++k) {
        const PointId p = peaks[static_cast<size_t>(k)];
        const PointId rank_p = rank[static_cast<size_t>(p)];
        const int last = static_cast<int>(rank_p / block);
        double best = std::numeric_limits<double>::infinity();
        PointId best_id = -1;
        // The running best threads through as each search's initial bound,
        // so subsets that cannot beat it prune away at their root.
        for (int b = 0; b <= last; ++b) {
          const PointId base = static_cast<PointId>(b) * block;
          double dist = std::numeric_limits<double>::infinity();
          PointId local;
          if (b < last) {
            // Every point in this subset outranks p: plain NN.
            local = trees[static_cast<size_t>(b)].NearestAccepted(
                points[p], [](PointId) { return true; }, &dist, best);
          } else {
            // A subset-local id lid sits at density-order position
            // base + lid, so its rank is base + lid by construction.
            local = trees[static_cast<size_t>(b)].NearestAccepted(
                points[p],
                [base, rank_p](PointId lid) { return base + lid < rank_p; },
                &dist, best);
          }
          if (local >= 0 && dist < best) {
            best = dist;
            best_id = order[static_cast<size_t>(base + local)];
          }
        }
        (*delta)[static_cast<size_t>(p)] = best;
        (*dependency)[static_cast<size_t>(p)] = best_id;
      }
    });
  }

 private:
  bool s_approx_ = false;
};

}  // namespace dpc

#endif  // DPC_CORE_APPROX_DPC_H_
