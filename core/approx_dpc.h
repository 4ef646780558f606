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
// rho is exact: each grid cell runs ONE shared kd-tree traversal (§4.2
// joint range search) that counts neighbors for all its members at once
// — the values of Ex-DPC's per-point range counts, one traversal per cell
// instead of one per point (ablation A of bench_ablation times the two).
// Both phases iterate cells partitioned by the §4.5 LPT scheduler under
// the default cost-guided strategy.
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
#include "core/options.h"
#include "core/soa.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

struct ApproxDpcOptions {
  /// Loop scheduling override; unset inherits the ExecutionContext's
  /// strategy (default cost-guided, §4.5).
  std::optional<ScheduleStrategy> scheduler;

  static StatusOr<ApproxDpcOptions> FromOptions(const OptionsMap& map) {
    ApproxDpcOptions options;
    OptionsReader reader(map);
    reader.Strategy("scheduler", &options.scheduler);
    if (Status s = reader.status(); !s.ok()) return s;
    return options;
  }
};

/// The per-cell pass of Approx-DPC and S-Approx-DPC: elects each grid
/// cell's densest member (under DenserThan) as its peak and snaps every
/// other member to it — dependency = peak, delta = distance to the peak.
/// Cells run on the pool (LPT-partitioned by population under the default
/// strategy); a cell writes only its own members' slots and its own
/// peaks[c], so the result is schedule- and thread-count independent.
/// Returns the peaks indexed by CellId (first-touch order). A stopped
/// context can leave unvisited slots at -1: check it before using them.
inline std::vector<PointId> ElectCellPeaks(const PointSet& points,
                                           const UniformGrid& grid,
                                           const std::vector<double>& rho,
                                           const ExecutionContext& exec,
                                           std::vector<double>* delta,
                                           std::vector<PointId>* dependency) {
  std::vector<PointId> peaks(static_cast<size_t>(grid.num_cells()), PointId{-1});
  // The snap distances stream from a cell-ordered SoA view — each cell's
  // members are one contiguous SquaredDistanceBatch; sqrt of a
  // bit-identical square is bit-identical to the scalar Distance.
  const UniformGrid::Ordering ordering = grid.CellOrdering();
  PointSetSoA cell_soa;
  cell_soa.Assign(points, ordering.order.data(), points.size(),
                  /*store_ids=*/false);
  ParallelForWithCosts(exec, grid.CellCosts(), [&](int64_t c) {
    const std::vector<PointId>& members = grid.members(c);
    PointId peak = members.front();
    for (const PointId i : members) {
      if (DenserThan(rho[static_cast<size_t>(i)], i,
                     rho[static_cast<size_t>(peak)], peak)) {
        peak = i;
      }
    }
    peaks[static_cast<size_t>(c)] = peak;
    if (members.size() == 1) return;
    // Per-thread scratch (pool workers persist), resized per cell.
    static thread_local std::vector<double> snap_sq;
    snap_sq.resize(members.size());
    kernels::SquaredDistanceBatch(
        cell_soa, ordering.cell_begin[static_cast<size_t>(c)],
        static_cast<PointId>(members.size()), points[peak], snap_sq.data());
    for (size_t k = 0; k < members.size(); ++k) {
      const PointId i = members[k];
      if (i == peak) continue;
      (*dependency)[static_cast<size_t>(i)] = peak;
      (*delta)[static_cast<size_t>(i)] = std::sqrt(snap_sq[k]);
    }
  });
  return peaks;
}

class ApproxDpc : public DpcAlgorithm {
 public:
  ApproxDpc() = default;
  explicit ApproxDpc(ApproxDpcOptions options) : options_(options) {}

  std::string_view name() const override { return "Approx-DPC"; }

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
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& ctx) override {
    ExecutionContext exec =
        options_.scheduler ? ctx.WithStrategy(*options_.scheduler) : ctx;

    DpcSolution result;
    const PointId n = points.size();
    const int dim = points.dim();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer total;
    internal::WallTimer phase;
    KdTree tree;
    tree.Build(points);

    // Grid with cell side d_cut/sqrt(dim), bounding the cell diameter by
    // d_cut (index/grid.h); its per-cell population doubles as the §4.5
    // scheduling cost model.
    const UniformGrid grid(points,
                           compute.d_cut / std::sqrt(static_cast<double>(dim)));
    result.stats.index_memory_bytes = tree.MemoryBytes() + grid.MemoryBytes();

    const std::vector<double> cell_costs = grid.CellCosts();
    result.stats.build_seconds = phase.Lap();

    // rho: exact range counts, one joint traversal per cell.
    ParallelForWithCosts(exec, cell_costs, [&](int64_t cell) {
      const std::vector<PointId>& members = grid.members(cell);
      // Per-thread scratch (pool workers persist): the members' tight
      // bounding box — lo then hi, dim doubles each — and the counts.
      // Both are fully overwritten per cell.
      static thread_local std::vector<double> box;
      static thread_local std::vector<PointId> counts;
      box.assign(static_cast<size_t>(2 * dim), 0.0);
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
      tree.JointRangeCount(lo, hi, members, compute.d_cut, &counts);
      for (size_t k = 0; k < members.size(); ++k) {
        result.rho[static_cast<size_t>(members[k])] =
            static_cast<double>(counts[k] - 1);  // self excluded
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(exec, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    // delta: everyone snaps to its cell peak, then the peaks alone take
    // the nearest-denser search on the rho tree — over every point, or
    // over the candidate mask when the algorithm samples one.
    const std::vector<PointId> peaks = ElectCellPeaks(
        points, grid, result.rho, exec, &result.delta, &result.dependency);
    if (!internal::Interrupted(exec, &result)) {
      const std::vector<uint8_t> kept = CandidateMask(peaks, n, compute.epsilon);
      result.stats.index_memory_bytes += kept.capacity() * sizeof(uint8_t);
      if (kept.empty()) {
        ExDpc::ComputeExactDeltas(points, tree, result.rho, exec, &result.delta,
                                  &result.dependency, &peaks);
      } else {
        ExDpc::ComputeExactDeltas(
            points, tree, result.rho, exec, &result.delta, &result.dependency,
            &peaks,
            [&kept](PointId j) { return kept[static_cast<size_t>(j)] != 0; });
      }
    }
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(exec, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }

 public:
  /// The peaks' candidate mask, indexed by point id (nonzero = may be a
  /// peak's dependent point); empty means every point. Approx-DPC
  /// searches every point; S-Approx-DPC overrides this with its epsilon
  /// sample (core/s_approx_dpc.h).
  virtual std::vector<uint8_t> CandidateMask(
      const std::vector<PointId>& /*peaks*/, PointId /*n*/,
      double /*epsilon*/) const {
    return {};
  }

  /// The paper's dependent-point strategy for cell peaks, kept as the
  /// reference for the rho-tree search SolveImpl runs (tests and ablation
  /// C compare the two): points are sorted into `num_subsets`
  /// density-ordered subsets, a kd-tree is bulk-loaded per subset, and
  /// each peak queries subsets densest-first. Every subset that wholly
  /// precedes the peak's own outranks it, so the query degenerates to a
  /// plain nearest-neighbor there; only the peak's own subset needs the
  /// denser-than predicate. The result is exactly the nearest denser
  /// neighbor (same candidate set as a global predicate search); only a
  /// tie between equidistant candidates may resolve differently — here
  /// to the denser one, on the rho tree to the smaller id. Under
  /// cost-guided scheduling, peaks are LPT-partitioned by density rank —
  /// denser peaks visit fewer subsets, which rank models directly.
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
    std::vector<double> build_costs(static_cast<size_t>(s));
    for (int b = 0; b < s; ++b) {
      build_costs[static_cast<size_t>(b)] =
          static_cast<double>(subsets[static_cast<size_t>(b)].size());
    }
    ParallelForWithCosts(exec, build_costs, [&](int64_t b) {
      trees[static_cast<size_t>(b)].Build(subsets[static_cast<size_t>(b)]);
    });

    std::vector<double> peak_costs(peaks.size());
    for (size_t k = 0; k < peaks.size(); ++k) {
      peak_costs[k] =
          static_cast<double>(rank[static_cast<size_t>(peaks[k])] + 1);
    }
    ParallelForWithCosts(exec, peak_costs, [&](int64_t k) {
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
          // Every point in this subset outranks p: plain NN on the
          // predicate-free batched path.
          local = trees[static_cast<size_t>(b)].NearestWithin(points[p], &dist,
                                                              best);
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
    });
  }

 private:
  ApproxDpcOptions options_;
};

}  // namespace dpc

#endif  // DPC_CORE_APPROX_DPC_H_
