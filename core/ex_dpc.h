// Ex-DPC: the paper's exact kd-tree algorithm (§3).
//
//   rho   — exact range counts on the kd-tree (self excluded), grouped
//           one joint count per kd-tree leaf (ComputeExactRho): the
//           leaf's points share one traversal, tested against the box the
//           tree stores for the leaf. The paper counts per point (§3);
//           the counts are exact integers, so both give the same rho.
//           Each traversal sweeps whole count blocks (index/kdtree.h)
//           instead of descending to leaves; at the usual d_cut nearly
//           every tested pair is such a fringe sweep, not a wholesale
//           subtree count. All three paper algorithms count rho here:
//           Approx-DPC for every point, S-Approx-DPC for a selection of
//           one representative per grid cell.
//   delta — exact nearest-denser-neighbor search: a kd-tree NN query that
//           only accepts candidates ranking denser under DenserThan().
//           The globally densest point gets delta = +inf.
//
// Labeling is NOT part of the algorithm: SolveImpl produces the
// DpcSolution and any ThresholdSpec is applied downstream
// (LabelSolution).
//
// The kd-tree is built on the solve's pool (KdTree::Build(points, exec),
// the same tree as a serial build). Both phases are embarrassingly
// parallel over the immutable tree and run in the tree's leaf order, so
// consecutive queries start from the same nodes and sweep the same count
// blocks: ParallelFor grains over leaf positions. Each point's slot is
// written exactly once, so results are thread-count independent. Ex-DPC
// builds no grid.
#ifndef DPC_CORE_EX_DPC_H_
#define DPC_CORE_EX_DPC_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/dpc.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

class ExDpc : public DpcAlgorithm {
 public:
  std::string_view name() const override { return "Ex-DPC"; }

 protected:
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& exec) override {
    DpcSolution result;
    const PointId n = points.size();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer phase;
    KdTree tree;
    tree.Build(points, exec);
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = tree.MemoryBytes();

    ComputeExactRho(tree, compute.d_cut, exec, &result.rho);
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(exec, &result)) return result;

    // delta: exact nearest denser neighbor.
    ComputeExactDeltas(points, tree, result.rho, exec, &result.delta,
                       &result.dependency, &tree.leaf_order());
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(exec, &result);
    return result;
  }

 public:
  /// Exact rho for every indexed point, or for the points `selected`
  /// marks (nonzero at their id) when it is given: the range count within
  /// d_cut, itself excluded. Unselected slots are left as they are. One
  /// KdTree::JointRangeCount per leaf over the leaf's selected points —
  /// its whole run of leaf_order() and stored box when every point is
  /// selected, otherwise the selected ones and their tight box
  /// (KdTree::PositionsBox); a leaf with none is skipped. The loop runs
  /// over leaf-order positions, not leaves — a slice counts the leaves
  /// that begin inside it — so it goes to the pool once there are enough
  /// points, however few leaves they fill. All three paper algorithms
  /// count rho here; S-Approx-DPC selects its cell representatives.
  /// `tree` indexes the whole point set (a subset tree would count
  /// neighbors within the subset only), and *rho (and *selected) must
  /// already hold one slot per point: tree.size() == rho->size().
  static void ComputeExactRho(const KdTree& tree, double d_cut,
                              const ExecutionContext& exec,
                              std::vector<double>* rho,
                              const std::vector<uint8_t>* selected = nullptr) {
    assert(static_cast<size_t>(tree.size()) == rho->size());
    assert(selected == nullptr || selected->size() == rho->size());
    const std::vector<PointId>& order = tree.leaf_order();
    const std::vector<KdTree::Leaf> leaves = tree.Leaves();
    ParallelFor(exec, tree.size(), [&](PointId begin, PointId end) {
      auto leaf = std::lower_bound(
          leaves.begin(), leaves.end(), begin,
          [](const KdTree::Leaf& l, PointId pos) { return l.begin < pos; });
      PointId counts[KdTree::kLeafSize];
      PointId picked_ids[KdTree::kLeafSize];
      PointId picked_positions[KdTree::kLeafSize];
      std::vector<double> picked_box(
          selected != nullptr ? 2 * static_cast<size_t>(tree.dim()) : 0);
      for (; leaf != leaves.end() && leaf->begin < end; ++leaf) {
        const PointId* queries = order.data() + leaf->begin;
        size_t count = static_cast<size_t>(leaf->end - leaf->begin);
        const double* box = leaf->box;
        if (selected != nullptr) {
          size_t picked = 0;
          for (PointId pos = leaf->begin; pos < leaf->end; ++pos) {
            const PointId i = order[static_cast<size_t>(pos)];
            if ((*selected)[static_cast<size_t>(i)] == 0) continue;
            picked_ids[picked] = i;
            picked_positions[picked++] = pos;
          }
          if (picked == 0) continue;
          if (picked < count) {
            tree.PositionsBox(picked_positions, picked, picked_box.data());
            queries = picked_ids;
            count = picked;
            box = picked_box.data();
          }
        }
        tree.JointRangeCount(queries, count, box, d_cut, counts);
        for (size_t k = 0; k < count; ++k) {
          (*rho)[static_cast<size_t>(queries[k])] =
              static_cast<double>(counts[k] - 1);  // self excluded
        }
      }
    });
  }

  /// Exact delta/dependency for one point: the nearest neighbor ranking
  /// denser under DenserThan among the points `tree` indexes (every
  /// point for Ex-DPC; S-Approx-DPC passes a tree over its cell peaks).
  static void ExactDeltaFor(const PointSet& points, const KdTree& tree,
                            const std::vector<double>& rho, PointId i,
                            std::vector<double>* delta,
                            std::vector<PointId>* dependency) {
    const double rho_i = rho[static_cast<size_t>(i)];
    double dist = std::numeric_limits<double>::infinity();
    const PointId nn = tree.NearestAccepted(
        points[i],
        [&rho, rho_i, i](PointId j) {
          return DenserThan(rho[static_cast<size_t>(j)], j, rho_i, i);
        },
        &dist);
    (*delta)[static_cast<size_t>(i)] = dist;
    (*dependency)[static_cast<size_t>(i)] = nn;
  }

  /// Exact delta/dependency for every point (LSH-DDP reuses this for its
  /// refinement round; pass `only` to restrict the queries to a subset).
  static void ComputeExactDeltas(const PointSet& points, const KdTree& tree,
                                 const std::vector<double>& rho,
                                 const ExecutionContext& exec,
                                 std::vector<double>* delta,
                                 std::vector<PointId>* dependency,
                                 const std::vector<PointId>* only = nullptr) {
    const PointId count =
        only != nullptr ? static_cast<PointId>(only->size()) : points.size();
    ParallelFor(exec, count, [&](PointId begin, PointId end) {
      for (PointId k = begin; k < end; ++k) {
        const PointId i = only != nullptr ? (*only)[static_cast<size_t>(k)] : k;
        ExactDeltaFor(points, tree, rho, i, delta, dependency);
      }
    });
  }
};

}  // namespace dpc

#endif  // DPC_CORE_EX_DPC_H_
