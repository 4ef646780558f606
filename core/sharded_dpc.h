// Region-sharded DPC execution: the data-parallel shard mode behind
// `opt sharding=region` (Ex-DPC, Approx-DPC) and the unit of work the
// serve/ layer's concurrent scheduler dispatches onto pool shards.
//
// The grid the paper's approximations already build (§4) cuts space into
// cells; this header groups cells into spatially contiguous SHARDS,
// gives each shard a private kd-tree over its owned points plus a HALO
// (a superset of every point within d_cut of the shard's region), solves
// the per-point phases shard by shard, and merges the cross-shard
// dependent-distance chains so the merged DpcSolution is BIT-IDENTICAL
// to the unsharded solve:
//
//   * rho is an integer range count, and the halo contains every point
//     any owned d_cut-ball can reach, so shard-local counts equal the
//     global counts exactly (extra halo points sit outside every ball
//     and change nothing).
//   * Ex-DPC's delta takes the shard-local nearest denser neighbor as a
//     CANDIDATE, widens its squared distance by one ulp, and re-runs the
//     search on the global tree seeded with that bound. The kd-tree's
//     strict `<` update, `>=` prune, and bound-independent child order
//     make a bound-seeded search return the identical winner (distance
//     ties included) as the unbounded one, so chains that cross a shard
//     boundary resolve exactly; interior points cost one mostly
//     root-pruned probe. Everything stays in the squared domain
//     (KdTree::NearestAcceptedSq) because a sqrt round-trip could drop
//     the bound back below the candidate and break the strict update.
//   * Approx-DPC shards only rho: with bit-equal rho, its cell pass and
//     the peaks' search on the global tree run exactly as unsharded
//     (approx_dpc.h).
//
// Shard costs reuse the §4.5 population model (cost = sum |P(c)|), so
// ParallelForWithCosts LPT-balances shards exactly like it balances
// cells, and a serving layer can size pool shards from the same numbers.
#ifndef DPC_CORE_SHARDED_DPC_H_
#define DPC_CORE_SHARDED_DPC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "core/options.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

/// The `sharding=` / `shards=` knobs shared by Ex-DPC and Approx-DPC.
/// Sharding is an execution detail: it never changes a solution, so the
/// solution cache strips both keys from its canonical configuration.
struct ShardingOptions {
  std::string mode = "none";  ///< "none" | "region"
  int shards = 0;             ///< 0 = one shard per context thread

  bool enabled() const { return mode == "region"; }
  int Resolve(const ExecutionContext& exec) const {
    return shards > 0 ? shards : exec.threads();
  }

  /// Consumes the shared knobs off a reader; call before reader.status().
  Status Consume(OptionsReader& reader) {
    reader.String("sharding", &mode).Int("shards", &shards);
    if (mode != "none" && mode != "region") {
      return Status::InvalidArgument("option 'sharding': expected none|region, got '" +
                                     mode + "'");
    }
    if (shards < 0) {
      return Status::InvalidArgument("option 'shards': must be >= 0");
    }
    return Status::Ok();
  }
};

/// One shard: a spatially contiguous run of whole grid cells.
struct RegionShard {
  std::vector<CellId> cells;     ///< owned cells (whole cells, never split)
  std::vector<PointId> owned;    ///< ids of owned points, ascending
  std::vector<PointId> halo;     ///< ids within reach but not owned, ascending
};

struct RegionShardPlan {
  std::vector<RegionShard> shards;
  std::vector<double> costs;  ///< |owned| per shard — the §4.5 cost model
};

/// Cuts the grid's cells into `num_shards` spatially contiguous runs
/// (lexicographic integer cell coordinates, cumulative-population-
/// balanced cuts) and attaches each shard's halo. A shard count above
/// the cell count leaves trailing shards empty — the solvers handle
/// empty shards, so any count is valid. Deterministic for a fixed grid.
inline RegionShardPlan BuildRegionShardPlan(const UniformGrid& grid,
                                            double d_cut, int num_shards) {
  RegionShardPlan plan;
  const CellId num_cells = grid.num_cells();
  const int s = std::max(1, num_shards);
  plan.shards.assign(static_cast<size_t>(s), RegionShard{});
  plan.costs.assign(static_cast<size_t>(s), 0.0);
  if (num_cells == 0) return plan;
  const std::vector<UniformGrid::Cell>& cells = grid.cells();

  // First-touch cell order is point-id order — spatially meaningless.
  // Lexicographic integer coordinates give contiguous runs, which keeps
  // halos thin (a random cell assignment would make every halo ~global).
  std::vector<CellId> order(static_cast<size_t>(num_cells));
  for (CellId c = 0; c < num_cells; ++c) order[static_cast<size_t>(c)] = c;
  std::sort(order.begin(), order.end(), [&cells](CellId a, CellId b) {
    return cells[static_cast<size_t>(a)].coords <
           cells[static_cast<size_t>(b)].coords;
  });

  // Contiguous cuts balanced by cumulative population. A giant cell can
  // overshoot several targets; the while then skips shards, leaving them
  // empty (covered by shard_test).
  int64_t total = 0;
  for (const auto& cell : cells) {
    total += static_cast<int64_t>(cell.members.size());
  }
  int64_t cum = 0;
  int k = 0;
  for (const CellId c : order) {
    RegionShard& shard = plan.shards[static_cast<size_t>(k)];
    const std::vector<PointId>& members = cells[static_cast<size_t>(c)].members;
    shard.cells.push_back(c);
    shard.owned.insert(shard.owned.end(), members.begin(), members.end());
    cum += static_cast<int64_t>(members.size());
    while (k + 1 < s && cum * s >= total * (k + 1)) ++k;
  }

  // Halo: members of every cell whose lattice-gap lower bound to the
  // shard's owned region is within d_cut. Two points in cells with
  // integer gap g along an axis are at least (g - 1) * side apart there,
  // so the bound under-estimates true distance by at least one full cell
  // of slack per axis; the epsilon inflation only guards rounding of the
  // multiplies. Over-inclusion is free (a superset halo changes no
  // count), under-inclusion would corrupt rho — always round toward
  // inclusion.
  const int dim = static_cast<int>(cells.front().coords.size());
  const double side = grid.cell_side();
  const double reach_sq = d_cut * d_cut * (1.0 + 1e-9);
  std::vector<char> owned_cell(static_cast<size_t>(num_cells), 0);
  for (int si = 0; si < s; ++si) {
    RegionShard& shard = plan.shards[static_cast<size_t>(si)];
    std::sort(shard.owned.begin(), shard.owned.end());
    plan.costs[static_cast<size_t>(si)] =
        static_cast<double>(shard.owned.size());
    if (shard.cells.empty()) continue;
    std::fill(owned_cell.begin(), owned_cell.end(), 0);
    std::vector<int64_t> lo(static_cast<size_t>(dim),
                            std::numeric_limits<int64_t>::max());
    std::vector<int64_t> hi(static_cast<size_t>(dim),
                            std::numeric_limits<int64_t>::min());
    for (const CellId c : shard.cells) {
      owned_cell[static_cast<size_t>(c)] = 1;
      const UniformGrid::CellCoords& cc = cells[static_cast<size_t>(c)].coords;
      for (int d = 0; d < dim; ++d) {
        lo[static_cast<size_t>(d)] =
            std::min(lo[static_cast<size_t>(d)], cc[static_cast<size_t>(d)]);
        hi[static_cast<size_t>(d)] =
            std::max(hi[static_cast<size_t>(d)], cc[static_cast<size_t>(d)]);
      }
    }
    for (CellId b = 0; b < num_cells; ++b) {
      if (owned_cell[static_cast<size_t>(b)]) continue;
      const UniformGrid::CellCoords& bc = cells[static_cast<size_t>(b)].coords;
      // Cheap prefilter against the owned bounding box (a lower bound on
      // the per-cell test below, so skipping here is safe).
      double box_sq = 0.0;
      for (int d = 0; d < dim; ++d) {
        int64_t gap = 0;
        const int64_t v = bc[static_cast<size_t>(d)];
        if (v < lo[static_cast<size_t>(d)]) {
          gap = lo[static_cast<size_t>(d)] - v - 1;
        } else if (v > hi[static_cast<size_t>(d)]) {
          gap = v - hi[static_cast<size_t>(d)] - 1;
        }
        if (gap > 0) {
          const double g = static_cast<double>(gap) * side;
          box_sq += g * g;
        }
      }
      if (box_sq > reach_sq) continue;
      bool within = false;
      for (const CellId a : shard.cells) {
        const UniformGrid::CellCoords& ac =
            cells[static_cast<size_t>(a)].coords;
        double lb_sq = 0.0;
        for (int d = 0; d < dim; ++d) {
          int64_t diff = ac[static_cast<size_t>(d)] - bc[static_cast<size_t>(d)];
          if (diff < 0) diff = -diff;
          if (diff > 1) {
            const double g = static_cast<double>(diff - 1) * side;
            lb_sq += g * g;
          }
        }
        if (lb_sq <= reach_sq) {
          within = true;
          break;
        }
      }
      if (within) {
        const std::vector<PointId>& bm = cells[static_cast<size_t>(b)].members;
        shard.halo.insert(shard.halo.end(), bm.begin(), bm.end());
      }
    }
    std::sort(shard.halo.begin(), shard.halo.end());
  }
  return plan;
}

namespace internal {

/// A shard's private index: owned ∪ halo copied into a local PointSet
/// (ascending global id) with a kd-tree over it. Coordinates are copied
/// verbatim, so every kernel distance matches the global tree's bit for
/// bit.
struct ShardIndex {
  explicit ShardIndex(int dim) : local(dim) {}
  PointSet local;
  std::vector<PointId> ids;  ///< local row -> global id
  KdTree tree;
};

inline void BuildShardIndex(const PointSet& points, const RegionShard& shard,
                            ShardIndex* out) {
  out->ids.clear();
  out->ids.reserve(shard.owned.size() + shard.halo.size());
  std::merge(shard.owned.begin(), shard.owned.end(), shard.halo.begin(),
             shard.halo.end(), std::back_inserter(out->ids));
  out->local.Reserve(static_cast<PointId>(out->ids.size()));
  for (const PointId g : out->ids) out->local.Add(points[g]);
  out->tree.Build(out->local);
}

}  // namespace internal

/// Builds every shard's local index, LPT-balanced by local size.
inline std::vector<internal::ShardIndex> BuildShardIndexes(
    const PointSet& points, const RegionShardPlan& plan,
    const ExecutionContext& exec) {
  std::vector<internal::ShardIndex> indexes;
  indexes.reserve(plan.shards.size());
  std::vector<double> costs;
  costs.reserve(plan.shards.size());
  for (const RegionShard& shard : plan.shards) {
    indexes.emplace_back(points.dim());
    costs.push_back(static_cast<double>(shard.owned.size() + shard.halo.size()));
  }
  ParallelForWithCosts(exec, costs, [&](int64_t si) {
    // Per-shard span from the worker thread that builds it (a no-op
    // without a trace); the context carries the request's parent id, so
    // cross-thread nesting needs no extra plumbing.
    obs::ScopedSpan span = exec.Span("shard/index-build");
    internal::BuildShardIndex(points, plan.shards[static_cast<size_t>(si)],
                              &indexes[static_cast<size_t>(si)]);
  });
  return indexes;
}

/// rho for every point from its shard's local tree. Bit-identical to the
/// global count: the halo makes every owned ball complete, counts are
/// integers, and per-pair kernel distances don't depend on which tree
/// evaluates them.
inline void ShardedRho(const PointSet& points, double d_cut,
                       const ExecutionContext& exec,
                       const RegionShardPlan& plan,
                       const std::vector<internal::ShardIndex>& indexes,
                       std::vector<double>* rho) {
  ParallelForWithCosts(exec, plan.costs, [&](int64_t si) {
    obs::ScopedSpan span = exec.Span("shard/rho");
    const RegionShard& shard = plan.shards[static_cast<size_t>(si)];
    const internal::ShardIndex& idx = indexes[static_cast<size_t>(si)];
    for (const PointId i : shard.owned) {
      (*rho)[static_cast<size_t>(i)] =
          static_cast<double>(idx.tree.RangeCount(points[i], d_cut) - 1);
    }
  });
}

/// The full sharded Ex-DPC solve. Three phases with barriers between
/// them: shard index build, shard-local rho, then the delta merge —
/// shard-local candidate, one-ulp-widened bound, global re-search.
inline DpcSolution SolveExDpcSharded(const PointSet& points,
                                     const ComputeParams& compute,
                                     const ExecutionContext& exec,
                                     int num_shards) {
  DpcSolution result;
  const PointId n = points.size();
  const int dim = points.dim();
  result.rho.assign(static_cast<size_t>(n), 0.0);
  result.delta.assign(static_cast<size_t>(n),
                      std::numeric_limits<double>::infinity());
  result.dependency.assign(static_cast<size_t>(n), PointId{-1});
  if (n == 0) return result;

  internal::WallTimer total;
  internal::WallTimer phase;
  KdTree tree;
  tree.Build(points);
  const UniformGrid grid(points,
                         compute.d_cut / std::sqrt(static_cast<double>(dim)));
  const RegionShardPlan plan =
      BuildRegionShardPlan(grid, compute.d_cut, num_shards);
  const std::vector<internal::ShardIndex> indexes =
      BuildShardIndexes(points, plan, exec);
  result.stats.build_seconds = phase.Lap();
  result.stats.index_memory_bytes = tree.MemoryBytes();

  ShardedRho(points, compute.d_cut, exec, plan, indexes, &result.rho);
  result.stats.rho_seconds = phase.Lap();
  if (internal::Interrupted(exec, &result)) {
    result.stats.total_seconds = total.Seconds();
    return result;
  }

  const double d_cut_sq = compute.d_cut * compute.d_cut;
  ParallelForWithCosts(exec, plan.costs, [&](int64_t si) {
    obs::ScopedSpan span = exec.Span("shard/delta");
    const RegionShard& shard = plan.shards[static_cast<size_t>(si)];
    const internal::ShardIndex& idx = indexes[static_cast<size_t>(si)];
    for (const PointId p : shard.owned) {
      const double rho_p = result.rho[static_cast<size_t>(p)];
      // Shard-local candidate: an upper bound on the true
      // nearest-denser distance (the true winner may sit past the halo).
      double cand_sq = std::numeric_limits<double>::infinity();
      const PointId cand = idx.tree.NearestAcceptedSq(
          points[p],
          [&](PointId lid) {
            const PointId g = idx.ids[static_cast<size_t>(lid)];
            return DenserThan(result.rho[static_cast<size_t>(g)], g, rho_p, p);
          },
          &cand_sq);
      // Halo-complete fast path: the halo contains EVERY point within
      // d_cut of an owned point (cells excluded from owned ∪ halo have a
      // lattice lower bound > d_cut² · (1 + 1e-9)), so when the local
      // candidate clears that margin — cand_sq <= d_cut² — every global
      // point that could beat OR tie it is already in the local tree.
      // The kd-tree's smallest-id tie-break depends only on the candidate
      // set (index/kdtree.h), and idx.ids is ascending, so the local
      // winner IS the global winner: skip the global re-search.
      if (cand >= 0 && cand_sq <= d_cut_sq) {
        result.delta[static_cast<size_t>(p)] = std::sqrt(cand_sq);
        result.dependency[static_cast<size_t>(p)] =
            idx.ids[static_cast<size_t>(cand)];
        continue;
      }
      // Global re-search seeded one ulp past the candidate: returns the
      // identical winner the unbounded search would (see header note),
      // at ~zero cost when the candidate already is the answer.
      const double bound =
          cand >= 0
              ? std::nextafter(cand_sq, std::numeric_limits<double>::infinity())
              : std::numeric_limits<double>::infinity();
      double d_sq = std::numeric_limits<double>::infinity();
      const PointId nn = tree.NearestAcceptedSq(
          points[p],
          [&](PointId j) {
            return DenserThan(result.rho[static_cast<size_t>(j)], j, rho_p, p);
          },
          &d_sq, bound);
      if (nn >= 0) {
        result.delta[static_cast<size_t>(p)] = std::sqrt(d_sq);
        result.dependency[static_cast<size_t>(p)] = nn;
      }
      // else: the globally densest point keeps delta = +inf, dep = -1.
    }
  });
  result.stats.delta_seconds = phase.Lap();
  internal::Interrupted(exec, &result);
  result.stats.total_seconds = total.Seconds();
  return result;
}

}  // namespace dpc

#endif  // DPC_CORE_SHARDED_DPC_H_
