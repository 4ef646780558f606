// S-Approx-DPC: the sampling-based variant of Approx-DPC (paper §5),
// with the epsilon knob trading dependent-phase work for label accuracy.
//
// It IS Approx-DPC — same grid (cells of side d_cut/sqrt(dim), cell
// diameter <= d_cut), same joint-range-search rho, same cell peaks and
// snapping, same solve body — plus one candidate mask. The epsilon knob
// subsamples the CANDIDATE SET of the peaks' nearest-denser search: every
// cell peak is kept unconditionally, and every other point with
// probability
//     keep_rate = 1 / (1 + 4 * epsilon)
// (stateless per-point hash, so samples are NESTED: a larger epsilon's
// candidates are a subset of a smaller epsilon's). Peaks then search the
// rho kd-tree under the predicate kept[j] && DenserThan(...): rejected
// points are skipped at the leaves, so the result is the nearest denser
// KEPT point. Exact-distance ties break to the smallest id, so the winner
// depends only on the candidate set: a kd-tree built over the kept points
// alone returns the same neighbor (s_approx_dpc_test checks this bitwise).
//
// Accuracy properties, relative to Ex-DPC:
//   * epsilon -> 0 keeps every point, collapsing to Approx-DPC exactly;
//   * a peak's delta is computed over a SUBSET of points, hence is an
//     overestimate that exceeds the exact value by at most d_cut + the
//     distance to the nearest denser CELL PEAK (cell peaks are always
//     candidates);
//   * centers are never lost (delta only grows); a spurious center can
//     appear only when an exact peak delta falls within that margin below
//     delta_min — with the usual delta_min >> d_cut, centers match
//     Ex-DPC's exactly, and only dependency targets (label attachment of
//     non-center peaks) drift with epsilon.
#ifndef DPC_CORE_S_APPROX_DPC_H_
#define DPC_CORE_S_APPROX_DPC_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/approx_dpc.h"
#include "core/dpc.h"
#include "core/rng.h"

namespace dpc {

class SApproxDpc : public ApproxDpc {
 public:
  /// Seed of the nested per-point sampling coins; fixed so labels are
  /// reproducible run to run.
  static constexpr uint64_t kSampleSeed = 0x5a94d9c;

  std::string_view name() const override { return "S-Approx-DPC"; }

  /// Every id in `peaks`, plus each point whose sampling coin falls
  /// below keep_rate.
  std::vector<uint8_t> CandidateMask(const std::vector<PointId>& peaks,
                                     PointId n, double epsilon) const override {
    const double keep_rate = 1.0 / (1.0 + 4.0 * epsilon);
    std::vector<uint8_t> kept(static_cast<size_t>(n));
    for (PointId i = 0; i < n; ++i) {
      kept[static_cast<size_t>(i)] =
          HashToUnit(kSampleSeed, static_cast<uint64_t>(i)) < keep_rate;
    }
    for (const PointId p : peaks) kept[static_cast<size_t>(p)] = 1;
    return kept;
  }
};

}  // namespace dpc

#endif  // DPC_CORE_S_APPROX_DPC_H_
