// Batched distance kernels over SoA views — the raw-speed substrate
// every algorithm's range/density loops run on.
//
// Every kernel evaluates one query point against a contiguous run of
// SoA positions and is BIT-IDENTICAL to calling the scalar reference
// (core/dpc.h SquaredDistance) per point: both accumulate each point's
// per-dimension squares in ascending dimension order, so the only thing
// the batch changes is which point's partial sum is in flight — never
// the rounding of any individual result. That identity is what lets the
// fast path ship without perturbing a single label (tests/kernels_test,
// and the determinism suite on every tier).
//
// One fat binary carries the column kernels compiled three times
// (generic/SSE2, AVX2, AVX-512F) in per-tier translation units with
// per-file arch flags; a once-initialized function-pointer table routes
// every call to the widest tier CPUID/XGETBV proves the host can execute
// (core/kernels_dispatch.h, core/cpu_features.h). Overridable with
// DPC_FORCE_KERNEL_TIER=generic|avx2|avx512 or SetActiveTier();
// DPC_FORCE_KERNEL_TIER=generic gives baseline codegen end to end.
#ifndef DPC_CORE_KERNELS_H_
#define DPC_CORE_KERNELS_H_

#include <string>

#include "core/dpc.h"
#include "core/kernels_dispatch.h"
#include "core/soa.h"

namespace dpc::kernels {

/// One human-readable line for startup banners: the tier the kernels
/// route to and every host-supported tier.
inline std::string DescribeKernels() {
  std::string out = "tier ";
  out += ActiveTierName();
  out += " (supported:";
  for (const KernelTier tier : SupportedTiers()) {
    out += ' ';
    out += TierName(tier);
  }
  out += ')';
  if (TierOverrideFellBack()) {
    out += " [DPC_FORCE_KERNEL_TIER not usable; fell back]";
  }
  return out;
}

/// out[j] = SquaredDistance(q, soa[begin + j]) for j in [0, count).
inline void SquaredDistanceBatch(const PointSetSoA& soa, PointId begin,
                                 PointId count, const double* q, double* out) {
  Active().sqdist(soa, begin, count, q, out);
}

/// |{j in [0, count) : SquaredDistance(q, soa[begin + j]) <= r_sq}| —
/// the rho primitive. The query itself counts when it is in the range
/// (distance 0); callers subtract the self-hit.
inline PointId RangeCountBatch(const PointSetSoA& soa, PointId begin,
                               PointId count, const double* q, double r_sq) {
  return Active().range_count(soa, begin, count, q, r_sq);
}

/// out[j] = sum_d a[d] * soa[begin + j][d] — the projection primitive of
/// the LSH build (accumulation in ascending dimension order, matching a
/// scalar dot product bit for bit).
inline void DotBatch(const PointSetSoA& soa, PointId begin, PointId count,
                     const double* a, double* out) {
  Active().dot(soa, begin, count, a, out);
}

/// out[k] = SquaredDistance(q, points[ids[k]]) — the gather fallback for
/// loops whose candidates are scattered ids (LSH buckets, dynamic-tree
/// leaf buckets) where a transposed view cannot pay for itself. Row-major
/// reads; per-point arithmetic is the scalar reference verbatim.
inline void SquaredDistanceGather(const PointSet& points, const PointId* ids,
                                  PointId count, const double* q, double* out) {
  Active().gather(points, ids, count, q, out);
}

}  // namespace dpc::kernels

#endif  // DPC_CORE_KERNELS_H_
