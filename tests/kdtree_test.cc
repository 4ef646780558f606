// kd-tree vs brute force: range count, range report, and
// nearest-accepted-neighbor on random point sets across dimensions; the
// count-block traversals (RangeCount, JointRangeCount) around the block
// size and on lattice points lying exactly on the ball boundary; exact
// rho, one joint count per leaf (ExDpc::ComputeExactRho), for every point
// at 1 and 4 threads; the nearest search's ties and seeded bounds on the
// same lattices, and that it asks its predicate only about candidates no
// farther than the best so far; the leaves and leaf order the solves
// schedule by; the pool build, which must reproduce the serial tree
// exactly; the in-place median select on adversarial orders (including a
// quickselect killer that reaches its heap-sort fallback); and trees over
// an id subset.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/rng.h"
#include "index/kdtree.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet RandomPoints(int dim, dpc::PointId n, uint64_t seed) {
  dpc::Rng rng(seed);
  dpc::PointSet points(dim);
  points.Reserve(n);
  std::vector<double> p(static_cast<size_t>(dim));
  for (dpc::PointId i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) p[static_cast<size_t>(d)] = rng.Uniform(0, 1000);
    points.Add(p.data());
  }
  return points;
}

void TestDim(int dim) {
  const dpc::PointId n = 2000;
  const dpc::PointSet points = RandomPoints(dim, n, 7000 + static_cast<uint64_t>(dim));
  dpc::KdTree tree;
  tree.Build(points);
  CHECK(tree.MemoryBytes() > 0);

  dpc::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const dpc::PointId q = static_cast<dpc::PointId>(rng.NextBelow(n));
    const double radius = rng.Uniform(10.0, 400.0);
    const double r_sq = radius * radius;

    dpc::PointId brute_count = 0;
    std::vector<dpc::PointId> brute_ids;
    for (dpc::PointId j = 0; j < n; ++j) {
      if (dpc::SquaredDistance(points[q], points[j], dim) <= r_sq) {
        ++brute_count;
        brute_ids.push_back(j);
      }
    }

    CHECK_EQ(tree.RangeCount(points[q], radius), brute_count);

    std::vector<dpc::PointId> tree_ids;
    tree.RangeReport(points[q], radius, &tree_ids);
    std::sort(tree_ids.begin(), tree_ids.end());
    CHECK(tree_ids == brute_ids);

    // Nearest neighbor among even-id points, excluding the query itself.
    const auto accept = [q](dpc::PointId j) { return j % 2 == 0 && j != q; };
    double tree_dist = 0.0;
    const dpc::PointId tree_nn = tree.NearestAccepted(points[q], accept, &tree_dist);
    dpc::PointId brute_nn = -1;
    double brute_sq = std::numeric_limits<double>::infinity();
    for (dpc::PointId j = 0; j < n; ++j) {
      if (!accept(j)) continue;
      const double d_sq = dpc::SquaredDistance(points[q], points[j], dim);
      if (d_sq < brute_sq) {
        brute_sq = d_sq;
        brute_nn = j;
      }
    }
    CHECK_EQ(tree_nn, brute_nn);
    CHECK_NEAR(tree_dist * tree_dist, brute_sq, 1e-6);
  }

  // A predicate nothing satisfies must report "no neighbor".
  double dist = 0.0;
  const dpc::PointId none =
      tree.NearestAccepted(points[0], [](dpc::PointId) { return false; }, &dist);
  CHECK_EQ(none, -1);
  CHECK(std::isinf(dist));
}

dpc::PointId BruteCount(const dpc::PointSet& points, const double* q,
                        double r) {
  dpc::PointId count = 0;
  for (dpc::PointId j = 0; j < points.size(); ++j) {
    if (dpc::SquaredDistance(q, points[j], points.dim()) <= r * r) ++count;
  }
  return count;
}

/// JointRangeCount over `queries`, given their tight bounding box, against
/// per-query brute force.
void CheckJoint(const dpc::KdTree& tree, const dpc::PointSet& points,
                const std::vector<dpc::PointId>& queries, double r) {
  const size_t dim = static_cast<size_t>(points.dim());
  std::vector<double> box(2 * dim);  // lo then hi
  std::fill(box.begin(), box.begin() + dim, std::numeric_limits<double>::infinity());
  std::fill(box.begin() + dim, box.end(), -std::numeric_limits<double>::infinity());
  for (const dpc::PointId i : queries) {
    for (size_t d = 0; d < dim; ++d) {
      box[d] = std::min(box[d], points[i][d]);
      box[dim + d] = std::max(box[dim + d], points[i][d]);
    }
  }
  std::vector<dpc::PointId> counts(queries.size(), -1);
  tree.JointRangeCount(queries.data(), queries.size(), box.data(), r,
                       counts.data());
  for (size_t k = 0; k < queries.size(); ++k) {
    CHECK_EQ(counts[k], BruteCount(points, points[queries[k]], r));
  }
}

/// Both count traversals against brute force for member and non-member
/// queries, with radii from "a few neighbors" to "the whole set".
void CheckCounts(const dpc::KdTree& tree, const dpc::PointSet& points,
                 const std::vector<double>& radii, uint64_t seed) {
  const dpc::PointId n = points.size();
  const int dim = points.dim();
  dpc::Rng rng(seed);
  std::vector<double> q(static_cast<size_t>(dim));
  for (const double r : radii) {
    for (int trial = 0; trial < 12; ++trial) {
      const dpc::PointId i = static_cast<dpc::PointId>(rng.NextBelow(n));
      const dpc::PointId brute = BruteCount(points, points[i], r);
      CHECK_EQ(tree.RangeCount(points[i], r), brute);
      for (int d = 0; d < dim; ++d) {
        q[static_cast<size_t>(d)] = points[i][d] + rng.Uniform(-0.5, 0.5);
      }
      CHECK_EQ(tree.RangeCount(q.data(), r), BruteCount(points, q.data(), r));

      // A scattered subset, and a tight one like a grid cell's members:
      // up to 16 points within r/4 of point i.
      std::vector<dpc::PointId> scattered;
      for (int k = 0; k < 1 + trial; ++k) {
        scattered.push_back(static_cast<dpc::PointId>(rng.NextBelow(n)));
      }
      CheckJoint(tree, points, scattered, r);
      std::vector<dpc::PointId> tight;
      for (dpc::PointId j = 0; j < n && tight.size() < 16; ++j) {
        if (dpc::SquaredDistance(points[i], points[j], dim) <= r * r / 16) {
          tight.push_back(j);
        }
      }
      CheckJoint(tree, points, tight, r);
    }
  }
}

/// Count blocks at and around their size: a subtree of <= kCountBlock
/// points is swept whole, so n straddles the block in every dimension.
void TestCountBlocks() {
  constexpr dpc::PointId kBlock = dpc::KdTree::kCountBlock;
  for (const int dim : {1, 2, 7}) {
    for (const dpc::PointId n :
         {kBlock - 1, kBlock, kBlock + 1, 4 * kBlock + 3, dpc::PointId{5000}}) {
      const dpc::PointSet points =
          RandomPoints(dim, n, 9100 + static_cast<uint64_t>(dim * 10007 + n));
      dpc::KdTree tree;
      tree.Build(points);
      CheckCounts(tree, points, {5.0, 40.0, 150.0, 2000.0},
                  static_cast<uint64_t>(n));
    }
  }
}

/// 3000 random points of an integer lattice (side 40 in 2-D, 6 in 7-D),
/// plus an exact copy of every tenth of them: squared distances are exact
/// integers, many are equal, and duplicates tie at distance 0.
dpc::PointSet LatticePoints(int dim) {
  dpc::Rng rng(4242 + static_cast<uint64_t>(dim));
  dpc::PointSet points(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  const uint64_t side = dim == 2 ? 40 : 6;
  for (int i = 0; i < 3000; ++i) {
    for (int d = 0; d < dim; ++d) {
      p[static_cast<size_t>(d)] = static_cast<double>(rng.NextBelow(side));
    }
    points.Add(p.data());
  }
  for (dpc::PointId i = 0; i < 3000; i += 10) {
    p.assign(points[i], points[i] + dim);
    points.Add(p.data());
  }
  return points;
}

/// Integer radii for the lattices: r * r is exact and many lattice points
/// sit exactly at distance r from one another.
constexpr double kLatticeRadii[] = {1.0, 2.0, 3.0, 5.0, 10.0};

/// Integer lattices with integer radii: r * r is exact and many points sit
/// exactly at distance r, so a `<` where `<=` belongs (in a block sweep or
/// a whole-subtree test) changes the counts.
void TestLatticeBoundary() {
  for (const int dim : {2, 7}) {
    const dpc::PointSet points = LatticePoints(dim);
    const dpc::PointId n = points.size();
    dpc::KdTree tree;
    tree.Build(points);
    const std::vector<double> radii(std::begin(kLatticeRadii),
                                    std::end(kLatticeRadii));
    // The fixture is only meaningful if boundary points exist.
    dpc::PointId on_boundary = 0;
    for (const double r : radii) {
      for (dpc::PointId j = 0; j < n; ++j) {
        if (dpc::SquaredDistance(points[0], points[j], dim) == r * r) ++on_boundary;
      }
    }
    CHECK(on_boundary > 0);
    CheckCounts(tree, points, radii, 77 + static_cast<uint64_t>(dim));
  }
}

/// ExDpc::ComputeExactRho against brute force for every point and each
/// radius, at 1 and 4 threads. Each input holds enough points for
/// ParallelFor to use the pool but too few leaves for that, so the loop
/// over leaf-order positions runs pooled where a loop over leaves would
/// run inline.
void CheckExactRho(const dpc::PointSet& points,
                   const std::vector<double>& radii) {
  const dpc::PointId n = points.size();
  dpc::KdTree tree;
  tree.Build(points);
  CHECK(n >= dpc::internal::kMinParallelIterations);
  CHECK(static_cast<int64_t>(tree.Leaves().size()) <
        dpc::internal::kMinParallelIterations);
  std::vector<std::vector<double>> brute(
      radii.size(), std::vector<double>(static_cast<size_t>(n), 0.0));
  for (dpc::PointId i = 0; i < n; ++i) {
    for (dpc::PointId j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d_sq = dpc::SquaredDistance(points[i], points[j], points.dim());
      for (size_t k = 0; k < radii.size(); ++k) {
        if (d_sq <= radii[k] * radii[k]) ++brute[k][static_cast<size_t>(i)];
      }
    }
  }
  for (const int threads : {1, 4}) {
    const dpc::ExecutionContext exec(threads,
                                     std::make_shared<dpc::ThreadPool>(threads));
    for (size_t k = 0; k < radii.size(); ++k) {
      std::vector<double> rho(static_cast<size_t>(n), -1.0);
      dpc::ExDpc::ComputeExactRho(tree, radii[k], exec, &rho);
      CHECK(rho == brute[k]);
    }
  }
}

/// Random points (3000 in 128 leaves) at the count-block radii, and the
/// lattices at their boundary radii.
void TestExactRho() {
  for (const int dim : {2, 7}) {
    CheckExactRho(RandomPoints(dim, 3000, 8800 + static_cast<uint64_t>(dim)),
                  {5.0, 40.0, 150.0, 2000.0});
    CheckExactRho(LatticePoints(dim),
                  {std::begin(kLatticeRadii), std::end(kLatticeRadii)});
  }
}

/// Brute-force NearestAccepted: among accepted points strictly closer
/// than bound_sq, the smallest squared distance, then the smallest id.
template <typename Accept>
dpc::PointId BruteNearest(const dpc::PointSet& points, const double* q,
                          const Accept& accept, double bound_sq,
                          double* out_sq) {
  dpc::PointId best = -1;
  double best_sq = bound_sq;
  for (dpc::PointId j = 0; j < points.size(); ++j) {
    if (!accept(j)) continue;
    const double d_sq = dpc::SquaredDistance(q, points[j], points.dim());
    if (d_sq < best_sq) {
      best_sq = d_sq;
      best = j;
    }
  }
  *out_sq = best_sq;
  return best;
}

/// NearestAccepted on the lattices, where equal distances are common:
/// members (whose duplicates tie at 0) and half-integer offsets of them
/// (equidistant from many lattice points) query an id-parity predicate
/// with no bound, and with max_dist below, at and above the true nearest
/// distance. A point exactly at the bound never wins, so at the bound
/// the answer is -1 unless a strictly closer point exists. A prune that
/// skips boxes at exactly the current best, or that tests a child against
/// its sibling's box distance, loses ties or whole subtrees here.
void TestLatticeNearest() {
  for (const int dim : {2, 7}) {
    const dpc::PointSet points = LatticePoints(dim);
    const dpc::PointId n = points.size();
    dpc::KdTree tree;
    tree.Build(points);
    dpc::Rng rng(5151 + static_cast<uint64_t>(dim));
    std::vector<double> q(static_cast<size_t>(dim));
    int exact_at_bound = 0;
    for (int trial = 0; trial < 400; ++trial) {
      const dpc::PointId i = static_cast<dpc::PointId>(rng.NextBelow(n));
      const bool offset = trial % 2 == 1;
      for (int d = 0; d < dim; ++d) {
        q[static_cast<size_t>(d)] =
            points[i][d] + (offset && rng.NextBelow(2) == 0 ? 0.5 : 0.0);
      }
      const dpc::PointId parity = trial % 4 < 2 ? 0 : 1;
      const auto accept = [i, parity](dpc::PointId j) {
        return j % 2 == parity && j != i;
      };
      double true_sq = 0.0;
      const dpc::PointId true_nn =
          BruteNearest(points, q.data(), accept,
                       std::numeric_limits<double>::infinity(), &true_sq);
      CHECK(true_nn >= 0);
      double dist = 0.0;
      CHECK_EQ(tree.NearestAccepted(q.data(), accept, &dist), true_nn);
      CHECK_EQ(dist, std::sqrt(true_sq));

      const double true_dist = std::sqrt(true_sq);
      for (const double max_dist :
           {true_dist * 0.5, true_dist, true_dist + 0.5}) {
        const double bound_sq = max_dist * max_dist;
        double ref_sq = 0.0;
        const dpc::PointId ref =
            BruteNearest(points, q.data(), accept, bound_sq, &ref_sq);
        if (max_dist == true_dist && bound_sq == true_sq) {
          CHECK_EQ(ref, dpc::PointId{-1});
          ++exact_at_bound;
        }
        if (max_dist > true_dist) CHECK_EQ(ref, true_nn);
        const dpc::PointId got =
            tree.NearestAccepted(q.data(), accept, &dist, max_dist);
        CHECK_EQ(got, ref);
        if (ref >= 0) {
          CHECK_EQ(dist, std::sqrt(ref_sq));
        } else {
          CHECK(std::isinf(dist));
        }
      }
    }
    // The fixture is only meaningful if many bounds sit exactly on the
    // nearest distance (distance 0 or a perfect-square squared distance).
    CHECK(exact_at_bound > 100);
  }
}

/// The nearest search asks its predicate only about candidates that can
/// still win: a mirror of the delta phase's predicate (DenserThan over a
/// rho with many ties) recomputes each candidate's distance and counts a
/// violation whenever it is asked about a point farther than the nearest
/// it has already accepted (or than the seeded bound). Every lattice
/// point is queried, and the winners must equal a brute-force scan's.
void TestPredicateAfterDistance() {
  for (const int dim : {2, 7}) {
    const dpc::PointSet points = LatticePoints(dim);
    const dpc::PointId n = points.size();
    std::vector<double> rho(static_cast<size_t>(n));
    for (dpc::PointId j = 0; j < n; ++j) {
      rho[static_cast<size_t>(j)] = static_cast<double>((j * 37) % 11);
    }
    dpc::KdTree tree;
    tree.Build(points);
    int64_t calls = 0;
    int64_t violations = 0;
    int seeded = 0;
    for (dpc::PointId i = 0; i < n; ++i) {
      const double* q = points[i];
      const double rho_i = rho[static_cast<size_t>(i)];
      const auto denser = [&](dpc::PointId j) {
        return dpc::DenserThan(rho[static_cast<size_t>(j)], j, rho_i, i);
      };
      double true_sq = 0.0;
      const dpc::PointId true_nn =
          BruteNearest(points, q, denser,
                       std::numeric_limits<double>::infinity(), &true_sq);
      // Every third query also runs with a bound just above its answer.
      const bool seed = i % 3 == 0 && true_nn >= 0;
      const double max_dist = seed ? std::sqrt(true_sq) + 0.5
                                   : std::numeric_limits<double>::infinity();
      double accepted_sq = seed ? max_dist * max_dist
                                : std::numeric_limits<double>::infinity();
      const auto mirror = [&](dpc::PointId j) {
        ++calls;
        const double d_sq = dpc::SquaredDistance(q, points[j], dim);
        if (d_sq > accepted_sq) ++violations;
        const bool accept = denser(j);
        if (accept) accepted_sq = std::min(accepted_sq, d_sq);
        return accept;
      };
      double dist = 0.0;
      CHECK_EQ(tree.NearestAccepted(q, mirror, &dist, max_dist), true_nn);
      if (true_nn >= 0) {
        CHECK_EQ(dist, std::sqrt(true_sq));
      } else {
        CHECK(std::isinf(dist));
      }
      seeded += seed ? 1 : 0;
    }
    std::printf("predicate-after-distance dim=%d: %lld violations / %lld calls\n",
                dim, static_cast<long long>(violations),
                static_cast<long long>(calls));
    CHECK(calls > 0);
    CHECK(seeded > 0);
    CHECK_EQ(violations, int64_t{0});
  }
}

/// The leaf order is a permutation of the indexed ids (`ids`, or [0, n)
/// when null), and the leaves' runs tile it: each leaf owns one
/// contiguous [begin, end) of at most kLeafSize positions, in leaf order,
/// and every position belongs to one leaf. Each leaf's stored box is the
/// tight box of its points.
void CheckLeafOrder(const dpc::KdTree& tree, const dpc::PointSet& points,
                    const std::vector<dpc::PointId>* ids = nullptr) {
  const dpc::PointId n = tree.size();
  const int dim = points.dim();
  const std::vector<dpc::PointId>& order = tree.leaf_order();
  CHECK_EQ(static_cast<dpc::PointId>(order.size()), n);
  std::vector<dpc::PointId> expected(static_cast<size_t>(n));
  if (ids != nullptr) {
    CHECK_EQ(static_cast<dpc::PointId>(ids->size()), n);
    expected = *ids;
  } else {
    for (dpc::PointId i = 0; i < n; ++i) expected[static_cast<size_t>(i)] = i;
  }
  std::vector<dpc::PointId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::sort(expected.begin(), expected.end());
  CHECK(sorted == expected);
  dpc::PointId next = 0;
  for (const dpc::KdTree::Leaf& leaf : tree.Leaves()) {
    CHECK_EQ(leaf.begin, next);
    CHECK(leaf.end > leaf.begin && leaf.end - leaf.begin <= dpc::KdTree::kLeafSize);
    next = leaf.end;
    for (int d = 0; d < dim; ++d) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (dpc::PointId pos = leaf.begin; pos < leaf.end; ++pos) {
        lo = std::min(lo, points[order[static_cast<size_t>(pos)]][d]);
        hi = std::max(hi, points[order[static_cast<size_t>(pos)]][d]);
      }
      CHECK_EQ(leaf.box[d], lo);
      CHECK_EQ(leaf.box[dim + d], hi);
    }
  }
  CHECK_EQ(next, n);
}

/// The same leaves: equal runs and equal stored boxes.
bool SameLeaves(const dpc::KdTree& a, const dpc::KdTree& b, int dim) {
  const std::vector<dpc::KdTree::Leaf> la = a.Leaves();
  const std::vector<dpc::KdTree::Leaf> lb = b.Leaves();
  if (la.size() != lb.size()) return false;
  for (size_t k = 0; k < la.size(); ++k) {
    if (la[k].begin != lb[k].begin || la[k].end != lb[k].end ||
        !std::equal(la[k].box, la[k].box + 2 * dim, lb[k].box)) {
      return false;
    }
  }
  return true;
}

/// The pool build must be the serial tree node for node: same leaf
/// order, same leaves, same reports in the same order, same nearest
/// answers, same memory. With `ids`, both trees index points[ids].
void CheckSameTree(const dpc::PointSet& points,
                   const std::vector<dpc::PointId>* ids = nullptr) {
  const int dim = points.dim();
  dpc::KdTree serial;
  if (ids != nullptr) {
    serial.Build(points, *ids, dpc::ExecutionContext(1));
  } else {
    serial.Build(points);
  }
  CheckLeafOrder(serial, points, ids);
  for (const int threads : {1, 2, 3, 8}) {
    const dpc::ExecutionContext exec(threads,
                                     std::make_shared<dpc::ThreadPool>(threads));
    dpc::KdTree pooled;
    if (ids != nullptr) {
      pooled.Build(points, *ids, exec);
    } else {
      pooled.Build(points, exec);
    }
    CHECK_EQ(pooled.size(), serial.size());
    CHECK_EQ(pooled.MemoryBytes(), serial.MemoryBytes());
    CheckLeafOrder(pooled, points, ids);
    CHECK(pooled.leaf_order() == serial.leaf_order());
    CHECK(SameLeaves(pooled, serial, dim));
    if (points.size() == 0) continue;
    dpc::Rng rng(31 + static_cast<uint64_t>(threads));
    for (int trial = 0; trial < 200; ++trial) {
      const dpc::PointId i =
          static_cast<dpc::PointId>(rng.NextBelow(static_cast<uint64_t>(points.size())));
      const double r = dim == 2 ? rng.Uniform(5.0, 40.0) : rng.Uniform(50.0, 300.0);
      std::vector<dpc::PointId> a;
      std::vector<dpc::PointId> b;
      serial.RangeReport(points[i], r, &a);
      pooled.RangeReport(points[i], r, &b);
      CHECK(a == b);
      const auto accept = [i](dpc::PointId j) { return j % 3 != 0 && j != i; };
      double da = 0.0;
      double db = 0.0;
      CHECK_EQ(serial.NearestAccepted(points[i], accept, &da),
               pooled.NearestAccepted(points[i], accept, &db));
      CHECK(da == db || (std::isinf(da) && std::isinf(db)));
    }
  }
}

void TestPoolBuild() {
  for (const int dim : {2, 7}) {
    CheckSameTree(RandomPoints(dim, 50000, 600 + static_cast<uint64_t>(dim)));
  }
  CheckSameTree(dpc::PointSet(2));
  for (const dpc::PointId n : {dpc::PointId{1}, dpc::PointId{dpc::KdTree::kLeafSize}}) {
    CheckSameTree(RandomPoints(3, n, 5 + static_cast<uint64_t>(n)));
  }
}

/// Brute-force RangeCount and NearestAccepted (an id-parity predicate,
/// self excluded) over the ids `tree` indexes — all of points, or `ids`.
/// Ties break to the smallest global id.
void CheckAgainstBruteForce(const dpc::KdTree& tree, const dpc::PointSet& points,
                            const std::vector<double>& radii, uint64_t seed,
                            const std::vector<dpc::PointId>* ids = nullptr) {
  std::vector<dpc::PointId> members;
  if (ids != nullptr) {
    members = *ids;
  } else {
    for (dpc::PointId i = 0; i < points.size(); ++i) members.push_back(i);
  }
  if (members.empty()) return;
  const int dim = points.dim();
  dpc::Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    // Queries from the whole set: indexed or not.
    const dpc::PointId q =
        static_cast<dpc::PointId>(rng.NextBelow(static_cast<uint64_t>(points.size())));
    const double r = radii[static_cast<size_t>(trial) % radii.size()];
    dpc::PointId count = 0;
    for (const dpc::PointId j : members) {
      if (dpc::SquaredDistance(points[q], points[j], dim) <= r * r) ++count;
    }
    CHECK_EQ(tree.RangeCount(points[q], r), count);

    const dpc::PointId parity = trial % 2;
    const auto accept = [q, parity](dpc::PointId j) {
      return j % 2 == parity && j != q;
    };
    dpc::PointId best = -1;
    double best_sq = std::numeric_limits<double>::infinity();
    for (const dpc::PointId j : members) {
      if (!accept(j)) continue;
      const double d_sq = dpc::SquaredDistance(points[q], points[j], dim);
      if (d_sq < best_sq || (d_sq == best_sq && j < best)) {
        best_sq = d_sq;
        best = j;
      }
    }
    double dist = 0.0;
    CHECK_EQ(tree.NearestAccepted(points[q], accept, &dist), best);
    if (best >= 0) {
      CHECK_EQ(dist, std::sqrt(best_sq));
    } else {
      CHECK(std::isinf(dist));
    }
  }
}

/// McIlroy's adversary ("A Killer Adversary for Quicksort") run against
/// SelectInPlace itself: values are fixed lazily, so that every pivot
/// candidate turns out as small as the answers so far allow. The returned
/// values, in position order, make the median select on them partition
/// off a handful of elements per round.
std::vector<double> MedianOfThreeKiller(int64_t n) {
  const int64_t gas = n;  // not yet fixed: above every fixed value
  std::vector<int64_t> value(static_cast<size_t>(n), gas);  // by item
  std::vector<int64_t> item(static_cast<size_t>(n));       // by position
  for (int64_t i = 0; i < n; ++i) item[static_cast<size_t>(i)] = i;
  int64_t fixed = 0;
  int64_t candidate = -1;
  const auto less = [&](int64_t a, int64_t b) {
    const int64_t x = item[static_cast<size_t>(a)];
    const int64_t y = item[static_cast<size_t>(b)];
    int64_t& vx = value[static_cast<size_t>(x)];
    int64_t& vy = value[static_cast<size_t>(y)];
    if (vx == gas && vy == gas) (x == candidate ? vx : vy) = fixed++;
    if (vx == gas) {
      candidate = x;
    } else if (vy == gas) {
      candidate = y;
    }
    return vx < vy;
  };
  const auto swap = [&](int64_t a, int64_t b) {
    std::swap(item[static_cast<size_t>(a)], item[static_cast<size_t>(b)]);
  };
  CHECK(dpc::internal::SelectInPlace(0, n, n / 2, less, swap));
  return {value.begin(), value.end()};
}

/// SelectInPlace's contract on one sequence: position k holds the sorted
/// sequence's k-th value, with nothing larger before it and nothing
/// smaller after it. Returns whether the heap-sort fallback ran.
bool CheckSelect(std::vector<double> keys, int64_t k) {
  std::vector<double> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const int64_t n = static_cast<int64_t>(keys.size());
  const bool fell_back = dpc::internal::SelectInPlace(
      0, n, k,
      [&keys](int64_t a, int64_t b) {
        return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
      },
      [&keys](int64_t a, int64_t b) {
        std::swap(keys[static_cast<size_t>(a)], keys[static_cast<size_t>(b)]);
      });
  const double kth = keys[static_cast<size_t>(k)];
  CHECK_EQ(kth, sorted[static_cast<size_t>(k)]);
  for (int64_t i = 0; i < k; ++i) CHECK(keys[static_cast<size_t>(i)] <= kth);
  for (int64_t i = k; i < n; ++i) CHECK(keys[static_cast<size_t>(i)] >= kth);
  std::sort(keys.begin(), keys.end());
  CHECK(keys == sorted);  // a permutation of the input
  return fell_back;
}

/// 2-D points whose first coordinate follows `pattern` over i in [0, n)
/// and whose second is a scrambled value in [0, 1000), so the top splits
/// run on the pattern's dimension and the lower ones on the other.
template <typename Pattern>
dpc::PointSet PatternPoints(dpc::PointId n, const Pattern& pattern) {
  dpc::PointSet points(2);
  points.Reserve(n);
  for (dpc::PointId i = 0; i < n; ++i) {
    const double p[2] = {pattern(i, n), static_cast<double>((i * 7919) % 1000)};
    points.Add(p);
  }
  return points;
}

/// The median select on orders that break naive quickselects: all equal,
/// sorted, reverse sorted, organ pipe, a two-valued split dimension, and
/// McIlroy's killer, whose >= 10k points drive the select into its heap
/// sort at the root split. Sizes straddle kLeafSize and kCountBlock, and
/// 3000 points build on the pool. Each tree is checked against the
/// serial one, for tight leaves, and against brute force.
void TestAdversarialSelection() {
  using Pattern = double (*)(dpc::PointId, dpc::PointId);
  const Pattern patterns[] = {
      [](dpc::PointId, dpc::PointId) { return 5.0; },
      [](dpc::PointId i, dpc::PointId) { return static_cast<double>(i); },
      [](dpc::PointId i, dpc::PointId n) { return static_cast<double>(n - i); },
      [](dpc::PointId i, dpc::PointId n) {
        return static_cast<double>(std::min(i, n - 1 - i));
      },
      [](dpc::PointId i, dpc::PointId) { return (i * 31) % 7 < 3 ? 0.0 : 5000.0; },
  };
  constexpr dpc::PointId kLeaf = dpc::KdTree::kLeafSize;
  constexpr dpc::PointId kBlock = dpc::KdTree::kCountBlock;
  const std::vector<double> radii = {0.5, 3.0, 40.0, 600.0, 8000.0};
  for (const Pattern pattern : patterns) {
    for (const dpc::PointId n :
         {kLeaf - 1, kLeaf, kLeaf + 1, kBlock - 1, kBlock + 1, dpc::PointId{3000}}) {
      const dpc::PointSet points = PatternPoints(n, pattern);
      CheckSameTree(points);
      dpc::KdTree tree;
      tree.Build(points);
      CheckCounts(tree, points, radii, static_cast<uint64_t>(n));
      CheckAgainstBruteForce(tree, points, radii, static_cast<uint64_t>(n) + 1);
      std::vector<double> keys(static_cast<size_t>(n));
      for (dpc::PointId i = 0; i < n; ++i) keys[static_cast<size_t>(i)] = pattern(i, n);
      for (const int64_t k : {int64_t{0}, n / 2, n - 1}) CHECK(!CheckSelect(keys, k));
    }
  }

  const int64_t n = 12000;
  const std::vector<double> killer = MedianOfThreeKiller(n);
  // The values alone drive the select into the fallback, so the root
  // split of a tree over them does too (its first column, in input order,
  // is this sequence, and it is the widest).
  CHECK(CheckSelect(killer, n / 2));
  const dpc::PointSet points = PatternPoints(
      n, [&killer](dpc::PointId i, dpc::PointId) {
        return killer[static_cast<size_t>(i)];
      });
  CheckSameTree(points);
  dpc::KdTree tree;
  tree.Build(points);
  CheckCounts(tree, points, radii, 12);
  CheckAgainstBruteForce(tree, points, radii, 13);
  // Random orders never reach the fallback.
  dpc::Rng rng(8);
  std::vector<double> random(20000);
  for (double& v : random) v = rng.Uniform(0, 1);
  CHECK(!CheckSelect(random, 10000));
  // Short runs of few distinct values, at every k.
  for (int64_t m = 1; m <= 100; ++m) {
    std::vector<double> keys(static_cast<size_t>(m));
    for (double& v : keys) v = static_cast<double>(rng.NextBelow(4));
    for (int64_t k = 0; k < m; ++k) CheckSelect(keys, k);
  }
}

/// A tree over an unsorted, non-contiguous subset of the ids: its leaf
/// order is a permutation of the subset with tight leaf boxes, its
/// answers match brute force over the subset in global ids (including
/// the joint count per leaf), and the pool build is the serial one. Over
/// every id in order it is the whole-set tree.
void TestSubsetBuild() {
  for (const int dim : {2, 7}) {
    const dpc::PointSet points =
        RandomPoints(dim, 20000, 7100 + static_cast<uint64_t>(dim));
    std::vector<dpc::PointId> ids;
    for (dpc::PointId i = 0; i < points.size(); ++i) {
      if ((i * 37) % 5 != 0) ids.push_back(i);
    }
    dpc::Rng rng(9 + static_cast<uint64_t>(dim));
    for (size_t k = ids.size(); k > 1; --k) {
      std::swap(ids[k - 1], ids[static_cast<size_t>(rng.NextBelow(k))]);
    }
    ids.resize(ids.size() / 2);  // drop the tail: gaps everywhere
    CheckSameTree(points, &ids);

    const dpc::ExecutionContext exec(3, std::make_shared<dpc::ThreadPool>(3));
    dpc::KdTree tree;
    tree.Build(points, ids, exec);
    CHECK_EQ(tree.size(), static_cast<dpc::PointId>(ids.size()));
    const std::vector<double> radii =
        dim == 2 ? std::vector<double>{5.0, 40.0, 150.0}
                 : std::vector<double>{150.0, 400.0, 2000.0};
    CheckAgainstBruteForce(tree, points, radii, 21, &ids);
    const double r = radii[1];
    std::array<dpc::PointId, dpc::KdTree::kLeafSize> counts{};
    const std::vector<dpc::PointId>& order = tree.leaf_order();
    for (const dpc::KdTree::Leaf& leaf : tree.Leaves()) {
      const size_t count = static_cast<size_t>(leaf.end - leaf.begin);
      tree.JointRangeCount(order.data() + leaf.begin, count, leaf.box, r,
                           counts.data());
      for (size_t k = 0; k < count; ++k) {
        const dpc::PointId q = order[static_cast<size_t>(leaf.begin) + k];
        dpc::PointId brute = 0;
        for (const dpc::PointId j : ids) {
          if (dpc::SquaredDistance(points[q], points[j], dim) <= r * r) ++brute;
        }
        CHECK_EQ(counts[k], brute);
      }
    }

    std::vector<dpc::PointId> all(static_cast<size_t>(points.size()));
    for (dpc::PointId i = 0; i < points.size(); ++i) all[static_cast<size_t>(i)] = i;
    dpc::KdTree whole;
    whole.Build(points);
    dpc::KdTree over_all;
    over_all.Build(points, all, exec);
    CHECK(over_all.leaf_order() == whole.leaf_order());
    CHECK(SameLeaves(over_all, whole, dim));
  }
  // Empty and single-id subsets.
  const dpc::PointSet points = RandomPoints(3, 100, 4);
  for (const std::vector<dpc::PointId>& ids :
       {std::vector<dpc::PointId>{}, std::vector<dpc::PointId>{57}}) {
    CheckSameTree(points, &ids);
    dpc::KdTree tree;
    tree.Build(points, ids, dpc::ExecutionContext(2));
    CheckAgainstBruteForce(tree, points, {10.0, 2000.0}, 5, &ids);
  }
}

}  // namespace

int main() {
  for (const int dim : {1, 2, 3, 5, 8}) TestDim(dim);
  TestCountBlocks();
  TestLatticeBoundary();
  TestExactRho();
  TestLatticeNearest();
  TestPredicateAfterDistance();
  TestPoolBuild();
  TestAdversarialSelection();
  TestSubsetBuild();

  // Empty and tiny trees must not crash.
  dpc::PointSet empty(2);
  dpc::KdTree tree;
  tree.Build(empty);
  const double origin[2] = {0.0, 0.0};
  CHECK_EQ(tree.RangeCount(origin, 10.0), 0);
  std::vector<double> rho;
  dpc::ExDpc::ComputeExactRho(tree, 10.0, dpc::ExecutionContext(2), &rho);
  CHECK(rho.empty());

  std::printf("kdtree_test OK\n");
  return 0;
}
