// Bulk-loaded kd-tree (Ex-DPC's index, paper §3). Supports the four
// queries the algorithms need:
//
//   * RangeCount   — |ball(q, r)|, with whole-subtree accounting: a node
//                    whose bounding box lies entirely inside the ball
//                    contributes its subtree size without visiting points.
//   * JointRangeCount — the paper's §4.2 joint range search: RangeCount
//                    for a group of indexed points in one shared
//                    traversal, tested against the group's bounding box.
//                    Exact rho (ExDpc::ComputeExactRho) runs it once per
//                    leaf, on the leaf's run and stored box (Leaves()),
//                    or on the leaf's selected points and their tight box
//                    (PositionsBox).
//   * RangeReport  — ids inside ball(q, r).
//   * NearestAccepted — nearest neighbor among points satisfying a caller
//                    predicate; used for the delta phase, where the
//                    predicate is "denser than the query point".
//
// The tree is immutable after Build() and safe for concurrent queries.
//
// Hot-path layout: the tree keeps an SoA (dimension-major) copy of its
// points in leaf order (perm_, exposed read-only as leaf_order()), so
// every subtree's points occupy a contiguous run of SoA positions and
// point scans run on the batched kernels of core/kernels.h instead of
// per-point scalar distance calls. Results are bit-identical to the
// scalar loops (see core/kernels.h). The solves also schedule their
// per-point loops in leaf order, so consecutive queries touch the same
// nodes and SoA runs.
//
// In-place build: Build() fills the SoA columns in input order once, then
// splits every node on them. A node's box is a per-column min/max over
// its contiguous run, and its median comes from SelectInPlace on the
// split column, which swaps whole points (every column and perm_) at
// once. No pass reads the row-major input after the fill, and the copy
// the queries read is already in leaf order when the last node splits.
//
// Subset trees: Build(points, ids, exec) indexes points[ids] alone;
// perm_ starts as ids, so every query reports global ids and the nearest
// search breaks ties to the smallest global id, as a whole-set tree does.
//
// Count blocks: the two range counts (RangeCount, JointRangeCount) stop
// descending at any subtree of <= kCountBlock points and sweep its whole
// SoA run with one RangeCountBatch, after the same prune / whole-subtree
// tests every node gets. The box bounds bound the kernel's per-point
// distances (both sum squares in ascending dimension order), so a block
// sweep counts exactly what the leaf-by-leaf descent would. Nearest
// search and RangeReport still descend to kLeafSize leaves: bigger
// leaves slow the delta search down.
//
// Where rho's work goes: at the solves' usual d_cut a ball rarely covers
// a whole subtree, so the rho phase is almost all fringe sweeps, not
// wholesale counts; what keeps it fast is the prune, the shared
// traversal per leaf and the vectorized block sweep. Counted on
// perfbench's inputs (seed 1): on the 100k-point 7-D Household stand-in
// (d_cut 1000), none of the 4.39e8
// (query, point) tests of an exact-rho pass was wholesale, and the
// sweeps tested 12x the 3.7e7 true neighbour pairs; on the 1M-point 2-D
// random walk (d_cut 250), 1.4e6 of 1.57e9 were, at 4.3x the 3.6e8
// neighbour pairs.
//
// Bound pass-down: the nearest search (NearestAccepted) needs both
// children's box distances to descend the nearer one first, so it hands
// each child the distance it just computed instead of letting the child
// recompute it for its prune test; each visited node's box is read once
// per query. The prune itself is unchanged (strict `>`), so the visited
// leaves and the winner are too.
//
// Leaf scan: a nearest-search leaf tests each candidate's kernel distance
// against the running best before it calls the caller's predicate. Most
// candidates of a reached leaf are farther than the best, and the delta
// phase's predicate (DenserThan) is a random rho read plus a branch that
// goes either way, so asking it first cost 7-D delta queries about a
// quarter of their time (bench_index_micro kdtree_nearest_denser_dim7,
// 4-core x86-64: 14.3-17.7 us before, 10.2-13.4 us after). The skip is
// strict `>`, so a candidate at exactly the best still reaches the
// tie-break, and a NaN distance, which no comparison lets win, meets the
// same update rule as before; the winner is bit-identical.
//
// Preorder layout: a median split fixes every subtree's size from n
// alone, so a subtree of m points always has
// N(m) = m <= kLeafSize ? 1 : 1 + N(m/2) + N(m - m/2) nodes, numbered in
// preorder — node id's left child is id + 1, its right child
// id + 1 + N(left size), its box sits at boxes_[id * 2 * dim]. Build()
// therefore sizes nodes_ and boxes_ exactly once, and the pool build
// (Build(points, exec)) fills the SoA in position chunks, splits the top
// levels one pool region per level, then builds the remaining subtrees
// as one region, each writing its own disjoint slots and SoA/perm_ run.
// Each subtree sees the same run the serial recursion would hand it and
// runs the same deterministic select on it, so the tree is identical to
// the serial one, node for node.
#ifndef DPC_INDEX_KDTREE_H_
#define DPC_INDEX_KDTREE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/dpc.h"
#include "core/kernels.h"
#include "core/soa.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"

namespace dpc {

namespace internal {

/// Ranges of at most this many positions finish SelectInPlace with an
/// insertion sort.
inline constexpr int64_t kSelectInsertionSize = 16;

/// Heap sort of positions [lo, hi) under `less`, moving elements only
/// through `swap` (see SelectInPlace).
template <typename Less, typename Swap>
void HeapSortInPlace(int64_t lo, int64_t hi, const Less& less, const Swap& swap) {
  const int64_t m = hi - lo;
  const auto sift = [&](int64_t root, int64_t size) {
    for (int64_t child; (child = 2 * root + 1) < size; root = child) {
      if (child + 1 < size && less(lo + child, lo + child + 1)) ++child;
      if (!less(lo + root, lo + child)) return;
      swap(lo + root, lo + child);
    }
  };
  for (int64_t root = m / 2; root-- > 0;) sift(root, m);
  for (int64_t end = m - 1; end > 0; --end) {
    swap(lo, lo + end);
    sift(0, end);
  }
}

/// Deterministic in-place selection: rearranges positions [lo, hi) so
/// that position k holds the element a sort by `less` would put there,
/// nothing before k ranks after it and nothing after k ranks before it.
/// `less(a, b)` compares the elements at positions a and b, and
/// `swap(a, b)` exchanges them, so a caller can move several parallel
/// arrays as one. Each round partitions (Hoare) around the median of the
/// elements a quarter, half and three quarters into the range — sorted,
/// reversed and organ-pipe orders all split evenly — and keeps the side
/// holding k; a range of at most kSelectInsertionSize finishes with an
/// insertion sort. After 2 * floor(log2(hi - lo)) rounds the rest is heap
/// sorted, so no input order costs more than O(m log m). Returns true
/// when the heap sort ran.
template <typename Less, typename Swap>
bool SelectInPlace(int64_t lo, int64_t hi, int64_t k, const Less& less,
                   const Swap& swap) {
  int rounds = 0;
  for (int64_t m = hi - lo; m > 1; m >>= 1) rounds += 2;
  while (hi - lo > kSelectInsertionSize) {
    if (rounds-- == 0) {
      HeapSortInPlace(lo, hi, less, swap);
      return true;
    }
    // Median of three to lo. The scans stop at the range's ends, so no
    // sentinel is needed, whatever the comparison answers (NaN included).
    const int64_t quarter = (hi - lo) / 4;
    const int64_t first = lo + quarter;
    const int64_t mid = lo + (hi - lo) / 2;
    const int64_t last = hi - 1 - quarter;
    if (less(mid, first)) swap(mid, first);
    if (less(last, mid)) {
      swap(last, mid);
      if (less(mid, first)) swap(mid, first);
    }
    swap(lo, mid);
    int64_t i = lo;
    int64_t j = hi;
    for (;;) {
      do ++i; while (i < hi - 1 && less(i, lo));
      do --j; while (j > lo && less(lo, j));
      if (i >= j) break;
      swap(i, j);
    }
    // [lo, j) ranks at most the pivot, (j, hi) at least it.
    swap(lo, j);
    if (k == j) return false;
    if (k < j) {
      hi = j;
    } else {
      lo = j + 1;
    }
  }
  for (int64_t a = lo + 1; a < hi; ++a) {
    for (int64_t b = a; b > lo && less(b, b - 1); --b) swap(b, b - 1);
  }
  return false;
}

}  // namespace internal

class KdTree {
 public:
  static constexpr int kLeafSize = 32;
  /// Range counts stop descending at subtrees of at most this many
  /// points and sweep them with one RangeCountBatch.
  static constexpr int kCountBlock = 256;

  KdTree() = default;
  /// Convenience: build immediately over `points` (which must outlive
  /// the tree).
  explicit KdTree(const PointSet& points) { Build(points); }

  /// Serial bulk load.
  void Build(const PointSet& points) { BuildOn(points, nullptr, nullptr); }

  /// Bulk load on exec's pool (exec.threads() workers): node for node
  /// the tree Build(points) makes. Build never polls exec's stop state,
  /// so a cancelled context still gets a complete tree.
  void Build(const PointSet& points, const ExecutionContext& exec) {
    BuildOn(points, nullptr, &exec);
  }

  /// Bulk load of the subset points[ids] on exec's pool; ids must be
  /// distinct. Queries report global ids, as over the whole set.
  void Build(const PointSet& points, const std::vector<PointId>& ids,
             const ExecutionContext& exec) {
    BuildOn(points, &ids, &exec);
  }

  /// Number of indexed points.
  PointId size() const { return static_cast<PointId>(perm_.size()); }

  /// Dimensionality of the indexed points.
  int dim() const { return dim_; }

  /// The leaf order, position -> point id (a permutation of the indexed
  /// ids): every subtree owns one contiguous run of it, so walking it
  /// visits the points leaf by leaf — the spatial order the solves
  /// schedule their per-point loops by.
  const std::vector<PointId>& leaf_order() const { return perm_; }

  /// One leaf: its [begin, end) run of leaf_order() and the bounding box
  /// the tree stores for it (lo then hi, dim doubles each).
  struct Leaf {
    PointId begin;
    PointId end;
    const double* box;
  };

  /// Every leaf, in leaf order: their runs tile leaf_order().
  std::vector<Leaf> Leaves() const {
    std::vector<Leaf> leaves;
    for (const Node& node : nodes_) {
      if (node.left < 0) {
        leaves.push_back({node.begin, node.end, boxes_.data() + node.box});
      }
    }
    return leaves;
  }

  /// Writes to `box` (lo then hi, dim() doubles each) the tight bounding
  /// box of the points at the `count` leaf_order() positions at
  /// `positions`, read from the tree's SoA copy. Over a whole leaf run it
  /// is the leaf's stored box: both are per-column min/max.
  void PositionsBox(const PointId* positions, size_t count, double* box) const {
    double* lo = box;
    double* hi = box + dim_;
    for (int d = 0; d < dim_; ++d) {
      const double* col = soa_.Column(d);
      lo[d] = std::numeric_limits<double>::infinity();
      hi[d] = -std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < count; ++k) {
        lo[d] = std::min(lo[d], col[positions[k]]);
        hi[d] = std::max(hi[d], col[positions[k]]);
      }
    }
  }

  /// Number of points within distance r of q (q itself included when it
  /// is a member of the indexed set).
  PointId RangeCount(const double* q, double r) const {
    if (nodes_.empty()) return 0;
    PointId count = 0;
    CountRec(0, q, r * r, &count);
    return count;
  }

  /// The paper's §4.2 joint range search: counts, for each of the `count`
  /// ids at `queries` (members of the indexed set), the points within
  /// distance r — one shared traversal for the group instead of one per
  /// query. `box` (lo then hi, dim doubles each) must contain every
  /// query; a leaf's run of leaf_order() and its stored box (Leaves())
  /// are such a group. Subtrees entirely within r of the whole box are
  /// counted wholesale for every query, subtrees farther than r from the
  /// box are skipped for every query, and only the fringe does per-pair
  /// work. counts[k] receives |ball(queries[k], r)|, the query point
  /// itself included — exactly what RangeCount would return.
  void JointRangeCount(const PointId* queries, size_t count, const double* box,
                       double r, PointId* counts) const {
    std::fill(counts, counts + count, PointId{0});
    if (nodes_.empty() || count == 0) return;
    JointCountRec(0, box, box + dim_, queries, count, r * r, counts);
  }

  /// Appends the ids of all points within distance r of q to *out.
  void RangeReport(const double* q, double r, std::vector<PointId>* out) const {
    if (nodes_.empty()) return;
    ReportRec(0, q, r * r, out);
  }

  /// Nearest point to q among those with accept(id) == true; returns -1
  /// when no point is accepted. *out_dist receives the distance.
  /// `max_dist` seeds the pruning bound: only points strictly closer
  /// than it are reported, so a caller scanning several trees for one
  /// global nearest neighbor can pass its running best and let whole
  /// trees prune away (-1 then means "nothing beat the bound").
  template <typename Accept>
  PointId NearestAccepted(
      const double* q, const Accept& accept, double* out_dist,
      double max_dist = std::numeric_limits<double>::infinity()) const {
    PointId best = -1;
    double best_sq = max_dist < std::numeric_limits<double>::infinity()
                         ? max_dist * max_dist
                         : std::numeric_limits<double>::infinity();
    if (!nodes_.empty()) {
      NearestRec(0, MinSqToBox(nodes_[0], q), q, accept, &best, &best_sq);
    }
    if (out_dist != nullptr) {
      *out_dist = best >= 0 ? std::sqrt(best_sq)
                            : std::numeric_limits<double>::infinity();
    }
    return best;
  }

  size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(Node) + boxes_.capacity() * sizeof(double) +
           perm_.capacity() * sizeof(PointId) + soa_.MemoryBytes();
  }

 private:
  struct Node {
    PointId begin = 0;       // range in perm_
    PointId end = 0;
    int32_t left = -1;       // child node indices; -1 for leaves
    int32_t right = -1;
    int32_t box = 0;         // offset into boxes_ (2 * dim_ doubles: lo, hi)
  };

  /// N(m), the node count of an m-point subtree (see the file comment).
  /// Every subtree at one depth holds floor or ceil of n/2^depth points,
  /// so the memo holds at most two sizes per level. It is filled up front
  /// and read-only afterwards, so pool tasks share it.
  class NodeCounts {
   public:
    explicit NodeCounts(PointId n) { Fill(n); }
    int32_t operator()(PointId m) const {
      if (m <= kLeafSize) return 1;
      for (const auto& [size, count] : memo_) {
        if (size == m) return count;
      }
      return -1;  // unreachable: every subtree size is memoized
    }

   private:
    int32_t Fill(PointId m) {
      if (m <= kLeafSize) return 1;
      if (const int32_t known = (*this)(m); known > 0) return known;
      const int32_t count = 1 + Fill(m / 2) + Fill(m - m / 2);
      memo_.emplace_back(m, count);
      return count;
    }
    std::vector<std::pair<PointId, int32_t>> memo_;
  };

  /// A subtree still to build: its preorder node id and perm_ range.
  struct Pending {
    int32_t id;
    PointId begin, end;
  };

  void BuildOn(const PointSet& points, const std::vector<PointId>* ids,
               const ExecutionContext* exec) {
    points_ = &points;
    dim_ = points.dim();
    const PointId n =
        ids != nullptr ? static_cast<PointId>(ids->size()) : points.size();
    // The preorder layout is fixed by n alone, so both arrays are sized
    // exactly once and every subtree owns disjoint slots.
    const NodeCounts counts(n);
    const size_t num_nodes = n > 0 ? static_cast<size_t>(counts(n)) : 0;
    nodes_ = std::vector<Node>(num_nodes);
    boxes_ = std::vector<double>(num_nodes * 2 * static_cast<size_t>(dim_));
    perm_.resize(static_cast<size_t>(n));
    soa_.Resize(dim_, n);
    const PointId* order = ids != nullptr ? ids->data() : nullptr;
    // Position j starts out holding input point j: id order[j] (j for a
    // whole-set tree) in perm_, its coordinates in the SoA columns.
    const auto fill = [&](PointId begin, PointId end) {
      for (PointId j = begin; j < end; ++j) {
        perm_[static_cast<size_t>(j)] = order != nullptr ? order[j] : j;
      }
      soa_.FillRange(points, order, begin, end);
    };
    const int threads = exec != nullptr ? exec->threads() : 1;
    if (threads <= 1 || n < internal::kMinParallelIterations) {
      fill(0, n);
      if (n > 0) BuildNode({0, 0, n}, counts);
      return;
    }
    const size_t target = 4 * static_cast<size_t>(threads);
    const PointId chunk = (n + static_cast<PointId>(target) - 1) /
                          static_cast<PointId>(target);
    internal::RunTasks(*exec, target, [&](size_t k) {
      const PointId begin = std::min(static_cast<PointId>(k) * chunk, n);
      fill(begin, std::min(begin + chunk, n));
    });
    // Split the top levels one level per pool region until there are ~4
    // subtrees per thread, then build those subtrees as one region.
    std::vector<Pending> frontier{{0, 0, n}};
    while (!frontier.empty() && frontier.size() < target) {
      internal::RunTasks(*exec, frontier.size(), [&](size_t k) {
        SplitNode(frontier[k], counts);
      });
      std::vector<Pending> next;
      for (const Pending& p : frontier) {
        const Node& node = nodes_[static_cast<size_t>(p.id)];
        if (node.left < 0) continue;  // a finished leaf
        const PointId mid = p.begin + (p.end - p.begin) / 2;
        next.push_back({node.left, p.begin, mid});
        next.push_back({node.right, mid, p.end});
      }
      frontier = std::move(next);
    }
    internal::RunTasks(*exec, frontier.size(), [&](size_t k) {
      BuildNode(frontier[k], counts);
    });
  }

  void BuildNode(const Pending& p, const NodeCounts& counts) {
    if (!SplitNode(p, counts)) return;
    const Node& node = nodes_[static_cast<size_t>(p.id)];
    const PointId mid = p.begin + (p.end - p.begin) / 2;
    BuildNode({node.left, p.begin, mid}, counts);
    BuildNode({node.right, mid, p.end}, counts);
  }

  /// Writes node p.id and its box; splits it at the median of its widest
  /// dimension when it holds more than kLeafSize points (returns true),
  /// leaving the lower half of its run in the left child's positions.
  /// The left child is node p.id + 1, the right one follows the whole
  /// left subtree.
  bool SplitNode(const Pending& p, const NodeCounts& counts) {
    Node& node = nodes_[static_cast<size_t>(p.id)];
    node.begin = p.begin;
    node.end = p.end;
    node.box = p.id * 2 * dim_;
    double* lo = boxes_.data() + node.box;
    double* hi = lo + dim_;
    // Four running min/max pairs per column break the dependency chains;
    // min and max are exact, so the order they combine in is immaterial.
    for (int d = 0; d < dim_; ++d) {
      const double* col = soa_.Column(d);
      double col_lo[4];
      double col_hi[4];
      std::fill(col_lo, col_lo + 4, std::numeric_limits<double>::infinity());
      std::fill(col_hi, col_hi + 4, -std::numeric_limits<double>::infinity());
      PointId i = p.begin;
      for (; i + 4 <= p.end; i += 4) {
        for (int k = 0; k < 4; ++k) {
          col_lo[k] = std::min(col_lo[k], col[i + k]);
          col_hi[k] = std::max(col_hi[k], col[i + k]);
        }
      }
      for (; i < p.end; ++i) {
        col_lo[0] = std::min(col_lo[0], col[i]);
        col_hi[0] = std::max(col_hi[0], col[i]);
      }
      lo[d] = std::min(std::min(col_lo[0], col_lo[1]), std::min(col_lo[2], col_lo[3]));
      hi[d] = std::max(std::max(col_hi[0], col_hi[1]), std::max(col_hi[2], col_hi[3]));
    }
    if (p.end - p.begin <= kLeafSize) return false;
    int split_dim = 0;
    double widest = -1.0;
    for (int d = 0; d < dim_; ++d) {
      const double w = hi[d] - lo[d];
      if (w > widest) {
        widest = w;
        split_dim = d;
      }
    }
    // Column d of the SoA starts at columns + d * stride.
    double* const columns = soa_.MutableColumn(0);
    const auto stride = static_cast<size_t>(soa_.size());
    const double* const key = columns + static_cast<size_t>(split_dim) * stride;
    PointId* const perm = perm_.data();
    const int dim = dim_;
    const PointId mid = p.begin + (p.end - p.begin) / 2;
    internal::SelectInPlace(
        p.begin, p.end, mid,
        [key](PointId a, PointId b) { return key[a] < key[b]; },
        [columns, stride, perm, dim](PointId a, PointId b) {
          double* col = columns;
          for (int d = 0; d < dim; ++d, col += stride) std::swap(col[a], col[b]);
          std::swap(perm[a], perm[b]);
        });
    node.left = p.id + 1;
    node.right = node.left + counts(mid - p.begin);
    return true;
  }

  /// Squared distance from q to the node's bounding box (0 if inside).
  double MinSqToBox(const Node& node, const double* q) const {
    const double* lo = boxes_.data() + node.box;
    const double* hi = lo + dim_;
    double s = 0.0;
    for (int d = 0; d < dim_; ++d) {
      double diff = 0.0;
      if (q[d] < lo[d]) {
        diff = lo[d] - q[d];
      } else if (q[d] > hi[d]) {
        diff = q[d] - hi[d];
      }
      s += diff * diff;
    }
    return s;
  }

  /// Squared distance from q to the farthest corner of the box.
  double MaxSqToBox(const Node& node, const double* q) const {
    const double* lo = boxes_.data() + node.box;
    const double* hi = lo + dim_;
    double s = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double diff = std::max(q[d] - lo[d], hi[d] - q[d]);
      s += diff * diff;
    }
    return s;
  }

  /// Squared distance between the query box [qlo, qhi] and a node's box
  /// (0 when they intersect).
  double MinSqBoxToBox(const Node& node, const double* qlo,
                       const double* qhi) const {
    const double* lo = boxes_.data() + node.box;
    const double* hi = lo + dim_;
    double s = 0.0;
    for (int d = 0; d < dim_; ++d) {
      double diff = 0.0;
      if (qhi[d] < lo[d]) {
        diff = lo[d] - qhi[d];
      } else if (qlo[d] > hi[d]) {
        diff = qlo[d] - hi[d];
      }
      s += diff * diff;
    }
    return s;
  }

  /// Squared distance between the farthest pair of corners of the query
  /// box and the node's box — an upper bound for every (query, point)
  /// pair the two boxes contain.
  double MaxSqBoxToBox(const Node& node, const double* qlo,
                       const double* qhi) const {
    const double* lo = boxes_.data() + node.box;
    const double* hi = lo + dim_;
    double s = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double diff = std::max(hi[d] - qlo[d], qhi[d] - lo[d]);
      s += diff * diff;
    }
    return s;
  }

  void JointCountRec(int32_t ni, const double* qlo, const double* qhi,
                     const PointId* queries, size_t count, double r_sq,
                     PointId* counts) const {
    const Node& node = nodes_[static_cast<size_t>(ni)];
    if (MinSqBoxToBox(node, qlo, qhi) > r_sq) return;
    if (MaxSqBoxToBox(node, qlo, qhi) <= r_sq) {
      const PointId subtree = node.end - node.begin;
      for (size_t k = 0; k < count; ++k) counts[k] += subtree;
      return;
    }
    if (node.end - node.begin <= kCountBlock) {
      // Fringe count block: one kernel sweep over the subtree's
      // contiguous SoA run per query (the ball test is symmetric).
      for (size_t k = 0; k < count; ++k) {
        counts[k] += kernels::RangeCountBatch(
            soa_, node.begin, node.end - node.begin, (*points_)[queries[k]],
            r_sq);
      }
      return;
    }
    JointCountRec(node.left, qlo, qhi, queries, count, r_sq, counts);
    JointCountRec(node.right, qlo, qhi, queries, count, r_sq, counts);
  }

  void CountRec(int32_t ni, const double* q, double r_sq, PointId* count) const {
    const Node& node = nodes_[static_cast<size_t>(ni)];
    if (MinSqToBox(node, q) > r_sq) return;
    if (MaxSqToBox(node, q) <= r_sq) {
      *count += node.end - node.begin;  // whole subtree inside the ball
      return;
    }
    if (node.end - node.begin <= kCountBlock) {
      *count += kernels::RangeCountBatch(soa_, node.begin,
                                         node.end - node.begin, q, r_sq);
      return;
    }
    CountRec(node.left, q, r_sq, count);
    CountRec(node.right, q, r_sq, count);
  }

  void ReportRec(int32_t ni, const double* q, double r_sq,
                 std::vector<PointId>* out) const {
    const Node& node = nodes_[static_cast<size_t>(ni)];
    if (MinSqToBox(node, q) > r_sq) return;
    if (MaxSqToBox(node, q) <= r_sq) {
      // Whole subtree inside the ball: report wholesale, no distances.
      for (PointId i = node.begin; i < node.end; ++i) {
        out->push_back(perm_[static_cast<size_t>(i)]);
      }
      return;
    }
    if (node.left < 0) {
      double buf[kLeafSize];
      const PointId len = node.end - node.begin;
      kernels::SquaredDistanceBatch(soa_, node.begin, len, q, buf);
      for (PointId i = 0; i < len; ++i) {
        if (buf[i] <= r_sq) {
          out->push_back(perm_[static_cast<size_t>(node.begin + i)]);
        }
      }
      return;
    }
    ReportRec(node.left, q, r_sq, out);
    ReportRec(node.right, q, r_sq, out);
  }

  /// `box_sq` is MinSqToBox(node ni, q), computed once by the parent
  /// (which needs both children's to order them) or by NearestAccepted
  /// for the root.
  template <typename Accept>
  void NearestRec(int32_t ni, double box_sq, const double* q,
                  const Accept& accept, PointId* best, double* best_sq) const {
    const Node& node = nodes_[static_cast<size_t>(ni)];
    // `>` (not `>=`): a box at exactly *best_sq may still hold an
    // equal-distance point with a smaller id, and the tie-break below must
    // see it for the winner to be tree-shape independent.
    if (box_sq > *best_sq) return;
    if (node.left < 0) {
      // Distances come from one kernel sweep; exact-distance ties break to
      // the smallest id, so the winner depends only on the candidate SET,
      // never on leaf order or tree shape, matching the ascending-id
      // strict-< scan baselines. A point at exactly the seeded bound
      // (*best == -1) still loses: the bound itself is not a winner.
      // A point farther than the bound cannot win either, so it is
      // rejected before `accept` is asked (see "Leaf scan" above).
      double buf[kLeafSize];
      const PointId len = node.end - node.begin;
      kernels::SquaredDistanceBatch(soa_, node.begin, len, q, buf);
      for (PointId i = 0; i < len; ++i) {
        if (buf[i] > *best_sq) continue;
        const PointId id = perm_[static_cast<size_t>(node.begin + i)];
        if (!accept(id)) continue;
        if (buf[i] < *best_sq ||
            (buf[i] == *best_sq && *best >= 0 && id < *best)) {
          *best_sq = buf[i];
          *best = id;
        }
      }
      return;
    }
    // Descend the nearer child first so the bound tightens early.
    const double dl = MinSqToBox(nodes_[static_cast<size_t>(node.left)], q);
    const double dr = MinSqToBox(nodes_[static_cast<size_t>(node.right)], q);
    if (dl <= dr) {
      NearestRec(node.left, dl, q, accept, best, best_sq);
      NearestRec(node.right, dr, q, accept, best, best_sq);
    } else {
      NearestRec(node.right, dr, q, accept, best, best_sq);
      NearestRec(node.left, dl, q, accept, best, best_sq);
    }
  }

  const PointSet* points_ = nullptr;
  int dim_ = 0;
  std::vector<PointId> perm_;
  std::vector<Node> nodes_;
  std::vector<double> boxes_;
  PointSetSoA soa_;
};

}  // namespace dpc

#endif  // DPC_INDEX_KDTREE_H_
