// UniformGrid vs a brute-force floor reference: membership in dims
// {1, 2, 7} with negative coordinates and points exactly on cell
// boundaries; first-touch cell numbering along a caller's visit order;
// the d_cut diameter bound; every point in exactly one cell; own cells
// for coordinates without an exact integer cell; and the pool build,
// which must equal the serial one at every thread count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/dpc.h"
#include "core/rng.h"
#include "index/grid.h"
#include "parallel/execution_context.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

using dpc::CellId;
using dpc::PointId;

/// Random points in [-500, 500)^dim, plus lattice points sitting exactly
/// on cell boundaries (multiples of `side`, which is a power of two, so
/// x / side is an exact integer).
dpc::PointSet MixedPoints(int dim, PointId n, double side, uint64_t seed) {
  dpc::Rng rng(seed);
  dpc::PointSet points(dim);
  points.Reserve(n);
  std::vector<double> p(static_cast<size_t>(dim));
  for (PointId i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) {
      p[static_cast<size_t>(d)] =
          i % 3 == 0 ? side * (static_cast<double>(rng.NextBelow(3)) - 1.0)
                     : rng.Uniform(-500.0, 500.0);
    }
    points.Add(p.data());
  }
  return points;
}

std::vector<PointId> Shuffled(PointId n, uint64_t seed) {
  std::vector<PointId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), PointId{0});
  dpc::Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

bool SameGrid(const dpc::UniformGrid& a, const dpc::UniformGrid& b) {
  if (a.num_cells() != b.num_cells()) return false;
  for (CellId c = 0; c < a.num_cells(); ++c) {
    if (a.members(c) != b.members(c)) return false;
  }
  return true;
}

/// The grid partitions the points exactly as the per-point floor keys
/// do, lists each cell's members in visit order, and numbers cells by
/// first touch along that order.
void CheckAgainstReference(const dpc::UniformGrid& grid,
                           const dpc::PointSet& points, double side,
                           const std::vector<PointId>& visit) {
  const PointId n = points.size();
  const int dim = points.dim();
  std::vector<PointId> position(static_cast<size_t>(n));
  for (PointId pos = 0; pos < n; ++pos) {
    position[static_cast<size_t>(visit[static_cast<size_t>(pos)])] = pos;
  }
  std::map<std::vector<int64_t>, CellId> cell_of_key;
  auto key_of = [&](PointId i) {
    std::vector<int64_t> key(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      key[static_cast<size_t>(d)] =
          static_cast<int64_t>(std::floor(points[i][d] / side));
    }
    return key;
  };
  std::vector<int> seen(static_cast<size_t>(n), 0);
  PointId previous_first = -1;
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    const std::vector<PointId>& members = grid.members(c);
    CHECK(!members.empty());
    const std::vector<int64_t> key = key_of(members.front());
    CHECK(cell_of_key.emplace(key, c).second);  // one cell per key
    const PointId first = position[static_cast<size_t>(members.front())];
    CHECK(first > previous_first);  // first-touch numbering
    previous_first = first;
    for (size_t k = 0; k < members.size(); ++k) {
      const PointId i = members[k];
      CHECK(key_of(i) == key);
      ++seen[static_cast<size_t>(i)];
      if (k > 0) {  // visit order within the cell
        CHECK(position[static_cast<size_t>(i)] >
              position[static_cast<size_t>(members[k - 1])]);
      }
    }
  }
  for (const int count : seen) CHECK_EQ(count, 1);
}

void TestMembership() {
  for (const int dim : {1, 2, 7}) {
    const double side = dim == 7 ? 64.0 : 8.0;
    const PointId n = 6000;
    const dpc::PointSet points =
        MixedPoints(dim, n, side, 40 + static_cast<uint64_t>(dim));
    dpc::UniformGrid serial(points, side);
    std::vector<PointId> ids(static_cast<size_t>(n));
    std::iota(ids.begin(), ids.end(), PointId{0});
    CheckAgainstReference(serial, points, side, ids);

    // Boundary points exist, and some cells hold several points.
    PointId on_boundary = 0;
    for (PointId i = 0; i < n; ++i) {
      if (points[i][0] / side == std::floor(points[i][0] / side)) ++on_boundary;
    }
    CHECK(on_boundary > 0);
    CHECK(serial.num_cells() < n);

    const std::vector<PointId> visit = Shuffled(n, 7 + static_cast<uint64_t>(dim));
    const dpc::ExecutionContext exec(3, std::make_shared<dpc::ThreadPool>(3));
    dpc::UniformGrid pooled;
    pooled.Build(points, side, exec, visit);
    CheckAgainstReference(pooled, points, side, visit);
  }
}

/// The pool build at any thread count equals the serial build (id
/// order) and the single-threaded build of the same visit order.
void TestPoolBuild() {
  for (const int dim : {2, 7}) {
    const double side = dim == 7 ? 128.0 : 4.0;
    const PointId n = 30000;
    const dpc::PointSet points =
        MixedPoints(dim, n, side, 90 + static_cast<uint64_t>(dim));
    const dpc::UniformGrid serial(points, side);
    std::vector<PointId> ids(static_cast<size_t>(n));
    std::iota(ids.begin(), ids.end(), PointId{0});
    const std::vector<PointId> visit = Shuffled(n, 11);
    dpc::UniformGrid shuffled_one;
    for (const int threads : {1, 2, 3, 8}) {
      const dpc::ExecutionContext exec(threads,
                                       std::make_shared<dpc::ThreadPool>(threads));
      dpc::UniformGrid pooled;
      pooled.Build(points, side, exec, ids);
      CHECK(SameGrid(pooled, serial));
      CHECK_EQ(pooled.MemoryBytes(), serial.MemoryBytes());
      dpc::UniformGrid shuffled;
      shuffled.Build(points, side, exec, visit);
      if (threads == 1) shuffled_one = shuffled;
      CHECK(SameGrid(shuffled, shuffled_one));
      CHECK_EQ(shuffled.num_cells(), serial.num_cells());
    }
  }
}

/// With side = d_cut / sqrt(dim), any two members of a cell lie within
/// d_cut (up to the rounding of x / side at a boundary), and the member
/// lists hold every point once.
void TestDiameterAndCoverage() {
  for (const int dim : {1, 2, 7}) {
    const double d_cut = 60.0;
    const double side = d_cut / std::sqrt(static_cast<double>(dim));
    const dpc::PointSet points =
        MixedPoints(dim, 5000, side, 300 + static_cast<uint64_t>(dim));
    const dpc::UniformGrid grid(points, side);
    size_t total = 0;
    for (CellId c = 0; c < grid.num_cells(); ++c) {
      total += grid.members(c).size();
    }
    CHECK_EQ(total, static_cast<size_t>(points.size()));
    for (CellId c = 0; c < grid.num_cells(); ++c) {
      const std::vector<PointId>& members = grid.members(c);
      for (const PointId a : members) {
        for (const PointId b : members) {
          CHECK(dpc::Distance(points[a], points[b], dim) <= d_cut * (1 + 1e-12));
        }
      }
    }
  }
}

/// A quotient of magnitude >= 2^53 has no exact integer cell: such points
/// get a cell each, while the ordinary points still share theirs.
void TestHugeCoordinates() {
  dpc::PointSet points(2);
  const double coords[][2] = {{1e300, 0.0}, {1e300, 0.1}, {1e300, 0.2},
                              {-1e300, 0.0}, {-1e300, 0.1}, {0.5, 0.5},
                              {0.6, 0.5},   {9.1e15, 0.0}, {9.1e15, 0.0}};
  for (const auto& p : coords) points.Add(p);
  const dpc::UniformGrid grid(points, 1.0);
  CHECK_EQ(grid.num_cells(), 8);
  CHECK(grid.members(5) == std::vector<PointId>({5, 6}));
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    if (c != 5) CHECK_EQ(grid.members(c).size(), size_t{1});
  }
}

void TestTinySets() {
  const dpc::ExecutionContext exec(2, std::make_shared<dpc::ThreadPool>(2));
  const dpc::PointSet empty(3);
  dpc::UniformGrid grid(empty, 1.0);
  CHECK_EQ(grid.num_cells(), 0);
  grid.Build(empty, 1.0, exec, {});
  CHECK_EQ(grid.num_cells(), 0);

  dpc::PointSet one(3);
  const std::vector<double> p = {-1.5, 2.0, 7.25};
  one.Add(p.data());
  grid.Build(one, 1.0);
  CHECK_EQ(grid.num_cells(), 1);
  CHECK(grid.members(0) == std::vector<PointId>({0}));
  grid.Build(one, 1.0, exec, {0});
  CHECK_EQ(grid.num_cells(), 1);
  CHECK(grid.members(0) == std::vector<PointId>({0}));
}

}  // namespace

int main() {
  TestMembership();
  TestPoolBuild();
  TestDiameterAndCoverage();
  TestHugeCoordinates();
  TestTinySets();
  std::printf("grid_test OK\n");
  return 0;
}
