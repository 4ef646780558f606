// Cluster core/halo split, from the original CFSFDP paper (Rodriguez &
// Laio) that AmagataH21 accelerates: a cluster's border region is the set
// of its members within d_cut of a member of another cluster; the border
// density is the highest rho in that region; members below it form the
// halo (assignment is unreliable there), the rest the core.
#ifndef DPC_CORE_HALO_H_
#define DPC_CORE_HALO_H_

#include <cstdint>
#include <vector>

#include "core/dpc.h"
#include "index/kdtree.h"

namespace dpc {

struct HaloResult {
  std::vector<int64_t> halo_size;       ///< per cluster
  std::vector<double> border_density;   ///< per cluster (0 if no border)
  std::vector<uint8_t> in_halo;         ///< per point (noise is never halo)
};

/// The core/halo split of `labeling`'s clusters, with the border region
/// drawn at the solution's own d_cut.
inline HaloResult ComputeHalo(const PointSet& points, const DpcSolution& solution,
                              const Labeling& labeling) {
  HaloResult out;
  const size_t k = static_cast<size_t>(labeling.num_clusters());
  const PointId n = points.size();
  out.halo_size.assign(k, 0);
  out.border_density.assign(k, 0.0);
  out.in_halo.assign(static_cast<size_t>(n), 0);
  if (k == 0) return out;

  KdTree tree;
  tree.Build(points);
  std::vector<PointId> neighbors;
  for (PointId i = 0; i < n; ++i) {
    const int64_t c = labeling.label[static_cast<size_t>(i)];
    if (c < 0) continue;
    neighbors.clear();
    tree.RangeReport(points[i], solution.compute.d_cut, &neighbors);
    for (const PointId j : neighbors) {
      const int64_t cj = labeling.label[static_cast<size_t>(j)];
      if (cj >= 0 && cj != c) {
        // i sits in the border region of its cluster.
        auto& bd = out.border_density[static_cast<size_t>(c)];
        if (solution.rho[static_cast<size_t>(i)] > bd) {
          bd = solution.rho[static_cast<size_t>(i)];
        }
        break;
      }
    }
  }
  for (PointId i = 0; i < n; ++i) {
    const int64_t c = labeling.label[static_cast<size_t>(i)];
    if (c < 0) continue;
    if (solution.rho[static_cast<size_t>(i)] <
        out.border_density[static_cast<size_t>(c)]) {
      out.in_halo[static_cast<size_t>(i)] = 1;
      ++out.halo_size[static_cast<size_t>(c)];
    }
  }
  return out;
}

}  // namespace dpc

#endif  // DPC_CORE_HALO_H_
