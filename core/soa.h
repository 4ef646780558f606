// Structure-of-arrays (dimension-major) hot-path view of a PointSet.
//
// PointSet stores points row-major (point-major), which is the right
// shape for building indexes and moving whole points around — but the
// wrong shape for the distance kernels every algorithm bottlenecks on:
// evaluating |batch| candidates against one query touches |batch| * dim
// scattered doubles. PointSetSoA transposes a (possibly permuted) set
// into dim contiguous columns, so the batched kernels in core/kernels.h
// stream each coordinate column with unit stride — the layout the
// auto-vectorizer (and the hardware prefetcher) wants.
//
// The view is a copy, not an alias: building one costs one O(n * dim)
// pass and n * dim doubles. Consumers therefore build it once per index
// (the R-tree builds its own in perm order at Build(); the kd-tree fills
// its own in input order and reorders it in place while it splits), so
// leaf ranges are contiguous.
//
// A view built with a permutation remembers it: position j in the view
// maps back to original id IdAt(j). Kernels return positions; callers
// translate to ids at the boundary.
#ifndef DPC_CORE_SOA_H_
#define DPC_CORE_SOA_H_

#include <cstdint>
#include <vector>

#include "core/dpc.h"

namespace dpc {

class PointSetSoA {
 public:
  PointSetSoA() = default;

  /// Identity-order view of the whole set.
  explicit PointSetSoA(const PointSet& points) { Assign(points); }

  void Assign(const PointSet& points) {
    Assign(points, nullptr, points.size(), /*store_ids=*/false);
  }

  /// Permuted view: position j holds points[order[j]]. When the caller
  /// already owns the permutation (the kd-tree's perm_),
  /// store_ids = false skips the redundant id copy and IdAt() must not
  /// be used.
  void Assign(const PointSet& points, const PointId* order, PointId count,
              bool store_ids = true) {
    Resize(points.dim(), count);
    FillRange(points, order, 0, count);
    if (order != nullptr && store_ids) ids_.assign(order, order + count);
  }

  /// The range fill behind Assign, for building a view in chunks: Resize
  /// once to `count` positions (no stored ids), then FillRange disjoint
  /// [begin, end) position ranges — concurrently if need be, since each
  /// writes only its own slots of every column. Position j receives
  /// points[order[j]] (points[j] when order is null).
  void Resize(int dim, PointId count) {
    dim_ = dim;
    n_ = count;
    data_.resize(static_cast<size_t>(dim_) * static_cast<size_t>(count));
    ids_.clear();
  }

  void FillRange(const PointSet& points, const PointId* order, PointId begin,
                 PointId end) {
    const double* raw = points.raw().data();
    const auto dim = static_cast<size_t>(dim_);
    for (int d = 0; d < dim_; ++d) {
      double* col = data_.data() + static_cast<size_t>(d) * static_cast<size_t>(n_);
      if (order != nullptr) {
        for (PointId j = begin; j < end; ++j) {
          col[j] = raw[static_cast<size_t>(order[j]) * dim + static_cast<size_t>(d)];
        }
      } else {
        for (PointId j = begin; j < end; ++j) {
          col[j] = raw[static_cast<size_t>(j) * dim + static_cast<size_t>(d)];
        }
      }
    }
  }

  int dim() const { return dim_; }
  PointId size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Coordinate column d: n() contiguous doubles.
  const double* Column(int d) const {
    return data_.data() + static_cast<size_t>(d) * static_cast<size_t>(n_);
  }

  /// Writable column d, for an owner that reorders its view in place
  /// (the kd-tree's build swaps whole points across every column). The
  /// columns are adjacent: column d starts size() doubles after d - 1.
  double* MutableColumn(int d) {
    return data_.data() + static_cast<size_t>(d) * static_cast<size_t>(n_);
  }

  /// Original id of the point at view position pos (identity when the
  /// view was built without a stored permutation).
  PointId IdAt(PointId pos) const {
    return ids_.empty() ? pos : ids_[static_cast<size_t>(pos)];
  }

  size_t MemoryBytes() const {
    return data_.capacity() * sizeof(double) + ids_.capacity() * sizeof(PointId);
  }

 private:
  int dim_ = 1;
  PointId n_ = 0;
  std::vector<double> data_;  ///< dim columns of n doubles each
  std::vector<PointId> ids_;  ///< position -> original id; empty = identity
};

}  // namespace dpc

#endif  // DPC_CORE_SOA_H_
