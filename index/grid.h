// Uniform grid over a PointSet — the substrate of the paper's grid-based
// approximations (Approx-DPC §4, S-Approx-DPC §5). Cells are hypercubes
// of a caller-chosen side; with side = d_cut / sqrt(dim) the cell
// diameter is bounded by d_cut, so any two points sharing a cell are
// within d_cut of each other — the property both algorithms lean on.
//
// A point's cell coordinates are floor(x_d / side), keyed exactly: a flat
// open-addressing table maps a 64-bit hash of the coordinates to a cell,
// and a hash match is confirmed by recomputing both points' coordinates,
// so distant cells can never silently merge. A quotient of magnitude
// >= 2^53 (or a non-finite one) has no exact integer coordinate — whole
// runs of neighboring cells would round together — so such a point gets a
// cell of its own.
//
// Cell order is visit order: the caller passes a permutation of the point
// ids (Approx-DPC passes the kd-tree's leaf order), cells are numbered in
// first-touch order along it, and each cell lists its members in visit
// order. CellIds, the cell loops and everything indexed by CellId
// thereby inherit the visit order's locality.
//
// Build(points, side, exec, visit_order) runs on exec's pool: workers
// hash the points and bucket them by the hash's high bits, then each one
// owns the cells of one partition — its own table — and assigns its
// points in visit order; first touches merge by visit position, and each
// cell's member vector is allocated once, at its final size. Build(points, side) is the serial
// build in id order. The grid is a function of the points, the side and
// the visit order only — never of the thread count.
#ifndef DPC_INDEX_GRID_H_
#define DPC_INDEX_GRID_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/dpc.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"

namespace dpc {

/// Index of a UniformGrid cell — the unit the grid solvers' cell loop
/// hands out, in grains of consecutive ids, across threads.
using CellId = int64_t;

class UniformGrid {
 public:
  UniformGrid() = default;
  UniformGrid(const PointSet& points, double cell_side) {
    Build(points, cell_side);
  }

  /// Serial build, visiting the points in id order.
  void Build(const PointSet& points, double cell_side) {
    BuildOn(points, cell_side, nullptr, nullptr);
  }

  /// Build on exec's pool (exec.threads() workers), visiting the points
  /// in `visit_order`, a permutation of [0, points.size()). Like
  /// KdTree::Build, never polls exec's stop state, so a cancelled context
  /// still gets a complete grid.
  void Build(const PointSet& points, double cell_side,
             const ExecutionContext& exec,
             const std::vector<PointId>& visit_order) {
    BuildOn(points, cell_side, &exec, &visit_order);
  }

  CellId num_cells() const { return static_cast<CellId>(cells_.size()); }
  /// Member ids of a cell, in visit order.
  const std::vector<PointId>& members(CellId cell) const {
    return cells_[static_cast<size_t>(cell)];
  }

  /// The member lists; the hash table lives only during Build.
  size_t MemoryBytes() const {
    size_t bytes = cells_.capacity() * sizeof(std::vector<PointId>);
    for (const auto& cell : cells_) bytes += cell.capacity() * sizeof(PointId);
    return bytes;
  }

 private:
  /// Doubles represent every integer of magnitude below 2^53, and no
  /// longer every one above it.
  static constexpr double kExactLimit = 9007199254740992.0;

  /// One cell of a partition's table — its hash, local index and
  /// first-touch point; cell < 0 marks an empty slot.
  struct Slot {
    uint64_t hash = 0;
    PointId cell = -1;
    PointId first_id = -1;
  };

  /// The cells one worker owns: those whose hash falls in its
  /// partition.
  struct Partition {
    std::vector<PointId> local;  ///< local cell of each owned position,
                                 ///< in visit order
    std::vector<PointId> first;  ///< first-touch position per local cell
    std::vector<PointId> count;  ///< population per local cell
  };

  /// murmur3's 64-bit finalizer.
  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  /// One Build's inputs: cell coordinates of the points along the visit
  /// order.
  struct Keys {
    const PointSet& points;
    double side;
    const std::vector<PointId>* visit;  ///< null: id order

    PointId Visit(PointId pos) const {
      return visit != nullptr ? (*visit)[static_cast<size_t>(pos)] : pos;
    }

    /// Hash of point id's cell coordinates; a point without exact
    /// coordinates hashes by its id (SameCell never matches it anyway).
    uint64_t CellHash(PointId id) const {
      const double* p = points[id];
      uint64_t h = 0;
      for (int d = 0; d < points.dim(); ++d) {
        const double q = std::floor(p[d] / side);
        if (!(std::fabs(q) < kExactLimit)) {
          return Mix(~static_cast<uint64_t>(id));
        }
        h = Mix(h ^ static_cast<uint64_t>(static_cast<int64_t>(q)));
      }
      return h;
    }

    /// Whether points a and b have the same exact cell coordinates.
    bool SameCell(PointId a, PointId b) const {
      const double* pa = points[a];
      const double* pb = points[b];
      for (int d = 0; d < points.dim(); ++d) {
        const double qa = std::floor(pa[d] / side);
        if (!(qa == std::floor(pb[d] / side) && std::fabs(qa) < kExactLimit)) {
          return false;
        }
      }
      return true;
    }
  };

  /// Runs fn(0) .. fn(num_tasks - 1) on exec's pool, or inline serially
  /// when there is no exec.
  template <typename Fn>
  static void Tasks(const ExecutionContext* exec, size_t num_tasks,
                    const Fn& fn) {
    if (exec == nullptr || num_tasks <= 1) {
      for (size_t k = 0; k < num_tasks; ++k) fn(k);
    } else {
      internal::RunTasks(*exec, num_tasks, fn);
    }
  }

  void BuildOn(const PointSet& points, double cell_side,
               const ExecutionContext* exec,
               const std::vector<PointId>* visit_order) {
    const Keys keys{points, cell_side, visit_order};
    cells_.clear();
    const size_t n = static_cast<size_t>(points.size());
    const size_t parts =
        exec != nullptr && points.size() >= internal::kMinParallelIterations
            ? static_cast<size_t>(exec->threads())
            : 1;

    // 1. Hash every point's cell in visit-position chunks, bucketing the
    // positions by partition: buckets[t * parts + p] lists chunk t's
    // positions whose hash falls in partition p, ascending.
    auto hashes = std::make_unique_for_overwrite<uint64_t[]>(n);
    std::vector<std::vector<PointId>> buckets(parts * parts);
    const size_t chunk = (n + parts - 1) / parts;
    Tasks(exec, parts, [&](size_t t) {
      const size_t begin = std::min(t * chunk, n);
      const size_t end = std::min(begin + chunk, n);
      for (size_t p = 0; p < parts; ++p) {
        buckets[t * parts + p].reserve((end - begin) / parts * 9 / 8 + 16);
      }
      for (size_t pos = begin; pos < end; ++pos) {
        const uint64_t h = keys.CellHash(keys.Visit(static_cast<PointId>(pos)));
        hashes[pos] = h;
        buckets[t * parts + PartitionOf(h, parts)].push_back(
            static_cast<PointId>(pos));
      }
    });

    // 2. Each partition assigns its positions to its cells, in visit
    // order, and marks every cell's first-touch position.
    std::vector<Partition> partitions(parts);
    std::vector<uint8_t> is_first(n, 0);
    Tasks(exec, parts, [&](size_t p) {
      Assign(keys, hashes.get(), buckets, p, parts, &partitions[p]);
      for (const PointId pos : partitions[p].first) {
        is_first[static_cast<size_t>(pos)] = 1;
      }
    });
    hashes.reset();

    // 3. CellIds in first-touch order: number the marked positions.
    auto cell_at = std::make_unique_for_overwrite<PointId[]>(n);
    PointId num_cells = 0;
    for (size_t pos = 0; pos < n; ++pos) {
      if (is_first[pos] != 0) cell_at[pos] = num_cells++;
    }
    cells_.resize(static_cast<size_t>(num_cells));

    // 4. Each partition fills its own cells, each sized once.
    Tasks(exec, parts, [&](size_t p) {
      const Partition& part = partitions[p];
      std::vector<PointId> global(part.first.size());
      for (size_t k = 0; k < part.first.size(); ++k) {
        global[k] = cell_at[static_cast<size_t>(part.first[k])];
        cells_[static_cast<size_t>(global[k])].reserve(
            static_cast<size_t>(part.count[k]));
      }
      const PointId* local = part.local.data();
      for (size_t t = 0; t < parts; ++t) {
        for (const PointId pos : buckets[t * parts + p]) {
          cells_[static_cast<size_t>(global[static_cast<size_t>(*local++)])]
              .push_back(keys.Visit(pos));
        }
      }
    });
  }

  /// The partition of `parts` a hash falls in, from its high bits (the
  /// table slots use the low ones).
  static size_t PartitionOf(uint64_t h, size_t parts) {
    return static_cast<size_t>(((h >> 32) * parts) >> 32);
  }

  /// Step 2 for partition p: its buckets in chunk order, through an
  /// open-addressing table with linear probing, kept at most half full.
  static void Assign(const Keys& keys, const uint64_t* hashes,
                     const std::vector<std::vector<PointId>>& buckets,
                     size_t p, size_t parts, Partition* out) {
    size_t owned = 0;
    for (size_t t = 0; t < parts; ++t) owned += buckets[t * parts + p].size();
    out->local.reserve(owned);
    std::vector<Slot> table(1024);
    for (size_t t = 0; t < parts; ++t) {
      for (const PointId pos : buckets[t * parts + p]) {
        const uint64_t h = hashes[static_cast<size_t>(pos)];
        const size_t mask = table.size() - 1;
        const PointId id = keys.Visit(pos);
        PointId cell = -1;
        for (size_t s = h & mask;; s = (s + 1) & mask) {
          Slot& slot = table[s];
          if (slot.cell < 0) {
            cell = static_cast<PointId>(out->first.size());
            slot = {h, cell, id};
            out->first.push_back(pos);
            out->count.push_back(0);
            break;
          }
          if (slot.hash == h && keys.SameCell(slot.first_id, id)) {
            cell = slot.cell;
            break;
          }
        }
        ++out->count[static_cast<size_t>(cell)];
        out->local.push_back(cell);
        if (2 * out->first.size() > table.size()) Grow(&table);
      }
    }
  }

  /// Doubles the table, reinserting every occupied slot.
  static void Grow(std::vector<Slot>* table) {
    std::vector<Slot> bigger(2 * table->size());
    const size_t mask = bigger.size() - 1;
    for (const Slot& slot : *table) {
      if (slot.cell < 0) continue;
      size_t s = slot.hash & mask;
      while (bigger[s].cell >= 0) s = (s + 1) & mask;
      bigger[s] = slot;
    }
    table->swap(bigger);
  }

  /// Member ids of each cell, in visit order; indexed by CellId.
  std::vector<std::vector<PointId>> cells_;
};

}  // namespace dpc

#endif  // DPC_INDEX_GRID_H_
