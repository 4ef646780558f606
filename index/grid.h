// Uniform grid over a PointSet — the substrate of the paper's grid-based
// approximations (Approx-DPC §4, S-Approx-DPC §5). Cells are hypercubes
// of a caller-chosen side; with side = d_cut / sqrt(dim) the cell
// diameter is bounded by d_cut, so any two points sharing a cell are
// within d_cut of each other — the property both algorithms lean on.
//
// Cells are keyed by their exact integer coordinates (hash collisions
// fall back to coordinate equality), so distant cells can never silently
// merge. Build is serial and cells are stored in first-touch (= point-id)
// order, which keeps every consumer deterministic regardless of thread
// count.
#ifndef DPC_INDEX_GRID_H_
#define DPC_INDEX_GRID_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/dpc.h"

namespace dpc {

/// Index of a UniformGrid cell — the unit the §4.5 LPT scheduler
/// partitions across threads.
using CellId = int64_t;

class UniformGrid {
 public:
  UniformGrid() = default;
  UniformGrid(const PointSet& points, double cell_side) {
    Build(points, cell_side);
  }

  void Build(const PointSet& points, double cell_side) {
    cells_.clear();
    index_.clear();
    const PointId n = points.size();
    const int dim = points.dim();
    index_.reserve(static_cast<size_t>(n) / 4 + 16);
    CellCoords key(static_cast<size_t>(dim));
    for (PointId i = 0; i < n; ++i) {
      for (int d = 0; d < dim; ++d) {
        key[static_cast<size_t>(d)] =
            static_cast<int64_t>(std::floor(points[i][d] / cell_side));
      }
      const auto [it, inserted] = index_.try_emplace(key, cells_.size());
      if (inserted) cells_.emplace_back();
      cells_[it->second].push_back(i);
    }
  }

  CellId num_cells() const { return static_cast<CellId>(cells_.size()); }
  const std::vector<PointId>& members(CellId cell) const {
    return cells_[static_cast<size_t>(cell)];
  }

  /// The cell-local point ordering the SoA hot path reorders by
  /// (core/soa.h): `order` concatenates every cell's members (so points
  /// sharing a cell are contiguous), and cell c spans positions
  /// [cell_begin[c], cell_begin[c + 1]) of that order. Build order is
  /// first-touch, so the ordering — like everything else about the grid
  /// — is deterministic for a fixed input.
  struct Ordering {
    std::vector<PointId> order;       ///< SoA position -> point id
    std::vector<PointId> cell_begin;  ///< num_cells() + 1 span offsets
  };

  Ordering CellOrdering() const {
    Ordering out;
    size_t total = 0;
    for (const auto& cell : cells_) total += cell.size();
    out.order.reserve(total);
    out.cell_begin.reserve(cells_.size() + 1);
    out.cell_begin.push_back(0);
    for (const auto& cell : cells_) {
      out.order.insert(out.order.end(), cell.begin(), cell.end());
      out.cell_begin.push_back(static_cast<PointId>(out.order.size()));
    }
    return out;
  }

  /// §4.5 cost-model hook for the LPT scheduler: the per-point phases do
  /// work proportional to a cell's population, so cost(c) = |P(c)|.
  /// Feed this straight into LptSchedule / ParallelForWithCosts.
  std::vector<double> CellCosts() const {
    std::vector<double> costs;
    costs.reserve(cells_.size());
    for (const auto& cell : cells_) {
      costs.push_back(static_cast<double>(cell.size()));
    }
    return costs;
  }

  size_t MemoryBytes() const {
    size_t bytes = cells_.capacity() * sizeof(std::vector<PointId>);
    for (const auto& cell : cells_) bytes += cell.capacity() * sizeof(PointId);
    // unordered_map: one bucket pointer per bucket, and per cell a node
    // (key vector, value, next pointer, cached hash) plus the key's
    // integer coordinates.
    bytes += index_.bucket_count() * sizeof(void*);
    for (const auto& entry : index_) {
      bytes += sizeof(CellCoords) + 2 * sizeof(void*) + sizeof(size_t) +
               entry.first.capacity() * sizeof(int64_t);
    }
    return bytes;
  }

 private:
  using CellCoords = std::vector<int64_t>;  ///< integer cell coordinates

  /// Member ids of each cell, ascending; indexed by CellId.
  std::vector<std::vector<PointId>> cells_;
  /// Cell coordinates -> CellId.
  std::unordered_map<CellCoords, size_t, Int64VectorHash> index_;
};

}  // namespace dpc

#endif  // DPC_INDEX_GRID_H_
