// S-Approx-DPC: the paper's §5 variant of Approx-DPC, with the epsilon
// knob trading label accuracy for time (Table 5).
//
// It runs Approx-DPC's solve (core/approx_dpc.h) with three differences:
//
//   * the grid's cell side is epsilon * d_cut / sqrt(dim), so the cell
//     diameter is epsilon * d_cut and a larger epsilon makes fewer,
//     fuller cells;
//   * rho is counted once per cell: the cell's smallest-id member m gets
//     its exact count |ball(m, d_cut)| - 1 and every member takes that
//     value: one range count per cell instead of one for every point.
//     The representatives are counted on the path Ex-DPC and
//     Approx-DPC count every point on (ExDpc::ComputeExactRho, given a
//     selection): one joint count per kd-tree leaf over the leaf's
//     representatives and their tight box;
//   * only cell peaks run the nearest-denser search, and only cell peaks
//     are its candidates: it runs on a kd-tree over the peaks alone, built
//     once the full tree and the grid are released, and queries the peaks
//     in that tree's leaf order.
//
// Every member of a cell shares one rho, so DenserThan's id tie-break
// makes m the cell's peak, and the other members snap to it as in
// Approx-DPC (dependency = m, delta = distance to m).
//
// Accuracy, relative to Ex-DPC:
//   * as epsilon -> 0 every cell holds one location: duplicates share a
//     cell, a rho and a peak, and snap at distance 0, and the solution is
//     Ex-DPC's bit for bit;
//   * for epsilon <= 1 the cell diameter is <= d_cut, so every non-peak's
//     delta is <= d_cut; with the usual delta_min > d_cut no non-peak can
//     become a center;
//   * a member's rho is m's count, off from its own by at most the points
//     in the shell between d_cut - epsilon*d_cut and d_cut + epsilon*d_cut
//     around m, so centers and labels drift as epsilon grows (perfbench's
//     1M-point 2-D random walk, seed 1, at epsilon = 1: 58 centers against
//     Ex-DPC's 54, Rand index 0.992);
//   * for epsilon > 1 the cell diameter exceeds d_cut: a cell's members
//     need no longer be d_cut-neighbors of each other, and once
//     epsilon * d_cut >= delta_min a non-peak's snap distance can make it
//     a center.
#ifndef DPC_CORE_S_APPROX_DPC_H_
#define DPC_CORE_S_APPROX_DPC_H_

#include <string_view>

#include "core/approx_dpc.h"

namespace dpc {

class SApproxDpc : public ApproxDpc {
 public:
  SApproxDpc() : ApproxDpc(/*s_approx=*/true) {}

  std::string_view name() const override { return "S-Approx-DPC"; }
};

}  // namespace dpc

#endif  // DPC_CORE_S_APPROX_DPC_H_
