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
// and the determinism suite under every dispatch mode).
//
// Three implementations, selected at configure time via the CMake
// option DPC_KERNEL_DISPATCH (see the root CMakeLists):
//
//   runtime (default) — one portable fat binary carrying the column
//     kernels compiled three times (generic/SSE2, AVX2, AVX-512F) in
//     per-tier translation units with per-file arch flags; a
//     once-initialized function-pointer table routes every call to the
//     widest tier CPUID/XGETBV proves the host can execute
//     (core/kernels_dispatch.h, core/cpu_features.h). Overridable with
//     DPC_FORCE_KERNEL_TIER=generic|avx2|avx512 or SetActiveTier().
//   vectorized (-DDPC_KERNEL_DISPATCH=vectorized, macro
//     DPC_KERNELS_VECTORIZED) — the same column loops inlined at
//     baseline target codegen, no dispatch indirection: for each
//     dimension, stream the coordinate column with unit stride and
//     accumulate into a per-point array. `#pragma omp simd` (enabled by
//     -fopenmp-simd, no runtime dependency) marks the loops.
//   portable (-DDPC_KERNEL_DISPATCH=portable, macro
//     DPC_KERNELS_PORTABLE) — point-major scalar loops in reference
//     order; the fallback for compilers/targets where the column form
//     pessimizes, and the oracle the CI matrix keeps compiled and
//     bit-compared.
#ifndef DPC_CORE_KERNELS_H_
#define DPC_CORE_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "core/kernels_common.h"
#include "core/soa.h"

#if defined(DPC_KERNELS_RUNTIME)
#include "core/kernels_dispatch.h"
#endif

namespace dpc::kernels {

/// True when the portable scalar fallback was selected at configure time.
inline constexpr bool kPortable =
#if defined(DPC_KERNELS_PORTABLE)
    true;
#else
    false;
#endif

/// True when the runtime CPU-dispatch mode was selected at configure time.
inline constexpr bool kRuntimeDispatch =
#if defined(DPC_KERNELS_RUNTIME)
    true;
#else
    false;
#endif

/// The compiled dispatch mode, for banners and BENCH_*.json config blocks.
inline const char* DispatchName() {
  return kRuntimeDispatch ? "runtime" : (kPortable ? "portable" : "vectorized");
}

#if !defined(DPC_KERNELS_RUNTIME)
// Uniform tier-introspection surface for the configure-time modes, so
// banners, stats lines, and tier sweeps compile against one API in
// every build. Without runtime dispatch there is exactly one compiled
// implementation and nothing to switch: SupportedTiers() is empty
// (nothing to sweep) and the "active tier" is the dispatch mode itself.
enum class KernelTier : int { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };
inline const char* TierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kGeneric:
      return "generic";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "?";
}
inline std::vector<KernelTier> SupportedTiers() { return {}; }
inline const char* ActiveTierName() { return DispatchName(); }
inline bool SetActiveTier(KernelTier) { return false; }
inline bool TierOverrideFellBack() { return false; }
#endif

/// One human-readable line for startup banners: dispatch mode, the tier
/// the kernels route to, and (runtime mode) every host-supported tier.
inline std::string DescribeKernels() {
  std::string out = DispatchName();
  out += " dispatch";
  if (kRuntimeDispatch) {
    out += ", tier ";
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
  }
  return out;
}

#if defined(DPC_KERNELS_VECTORIZED_INLINE)
#error "DPC_KERNELS_VECTORIZED_INLINE is an internal macro"
#endif

#if !defined(DPC_KERNELS_RUNTIME) && !defined(DPC_KERNELS_PORTABLE)
// Configure-time "vectorized" mode: inline the column-kernel bodies at
// the default target arch. Shares core/kernels_tier_impl.inc with the
// runtime tiers so there is exactly one copy of the loop bodies in the
// tree.
#define DPC_TIER_NS header_fused
#define DPC_TIER_LINKAGE inline
}  // namespace dpc::kernels
#include "core/kernels_tier_impl.inc"
namespace dpc::kernels {
#undef DPC_TIER_LINKAGE
#undef DPC_TIER_NS
#endif

/// out[j] = SquaredDistance(q, soa[begin + j]) for j in [0, count).
inline void SquaredDistanceBatch(const PointSetSoA& soa, PointId begin,
                                 PointId count, const double* q, double* out) {
#if defined(DPC_KERNELS_RUNTIME)
  Active().sqdist(soa, begin, count, q, out);
#elif defined(DPC_KERNELS_PORTABLE)
  const int dim = soa.dim();
  const PointId stride = soa.size();
  const double* base = soa.Column(0) + begin;
  for (PointId j = 0; j < count; ++j) {
    double s = 0.0;
    for (int d = 0; d < dim; ++d) {
      const double diff = base[static_cast<size_t>(d) * static_cast<size_t>(stride) +
                               static_cast<size_t>(j)] -
                          q[d];
      s += diff * diff;
    }
    out[j] = s;
  }
#else
  tiers::header_fused::SquaredDistanceBatch(soa, begin, count, q, out);
#endif
}

/// |{j in [0, count) : SquaredDistance(q, soa[begin + j]) <= r_sq}| —
/// the rho primitive. The query itself counts when it is in the range
/// (distance 0); callers subtract the self-hit.
inline PointId RangeCountBatch(const PointSetSoA& soa, PointId begin,
                               PointId count, const double* q, double r_sq) {
#if defined(DPC_KERNELS_RUNTIME)
  return Active().range_count(soa, begin, count, q, r_sq);
#elif defined(DPC_KERNELS_PORTABLE)
  const int dim = soa.dim();
  const PointId stride = soa.size();
  const double* base = soa.Column(0) + begin;
  PointId hits = 0;
  for (PointId j = 0; j < count; ++j) {
    double s = 0.0;
    for (int d = 0; d < dim; ++d) {
      const double diff = base[static_cast<size_t>(d) * static_cast<size_t>(stride) +
                               static_cast<size_t>(j)] -
                          q[d];
      s += diff * diff;
    }
    if (s <= r_sq) ++hits;
  }
  return hits;
#else
  return tiers::header_fused::RangeCountBatch(soa, begin, count, q, r_sq);
#endif
}

/// argmin_j SquaredDistance(q, soa[begin + j]) over [0, count) — the
/// delta primitive for predicate-free nearest-neighbor scans.
inline MinResult MinDistanceBatch(const PointSetSoA& soa, PointId begin,
                                  PointId count, const double* q) {
#if defined(DPC_KERNELS_RUNTIME)
  return Active().min_distance(soa, begin, count, q);
#elif defined(DPC_KERNELS_PORTABLE)
  MinResult best;
  const int dim = soa.dim();
  const PointId stride = soa.size();
  const double* base = soa.Column(0) + begin;
  for (PointId j = 0; j < count; ++j) {
    double s = 0.0;
    for (int d = 0; d < dim; ++d) {
      const double diff = base[static_cast<size_t>(d) * static_cast<size_t>(stride) +
                               static_cast<size_t>(j)] -
                          q[d];
      s += diff * diff;
    }
    if (s < best.d_sq) {
      best.d_sq = s;
      best.pos = begin + j;
    }
  }
  return best;
#else
  return tiers::header_fused::MinDistanceBatch(soa, begin, count, q);
#endif
}

/// out[j] = sum_d a[d] * soa[begin + j][d] — the projection primitive of
/// the LSH build (accumulation in ascending dimension order, matching a
/// scalar dot product bit for bit).
inline void DotBatch(const PointSetSoA& soa, PointId begin, PointId count,
                     const double* a, double* out) {
#if defined(DPC_KERNELS_RUNTIME)
  Active().dot(soa, begin, count, a, out);
#elif defined(DPC_KERNELS_PORTABLE)
  const int dim = soa.dim();
  const PointId stride = soa.size();
  const double* base = soa.Column(0) + begin;
  for (PointId j = 0; j < count; ++j) {
    double s = 0.0;
    for (int d = 0; d < dim; ++d) {
      s += a[d] * base[static_cast<size_t>(d) * static_cast<size_t>(stride) +
                       static_cast<size_t>(j)];
    }
    out[j] = s;
  }
#else
  tiers::header_fused::DotBatch(soa, begin, count, a, out);
#endif
}

/// out[k] = SquaredDistance(q, points[ids[k]]) — the gather fallback for
/// loops whose candidates are scattered ids (LSH buckets, dynamic-tree
/// leaf buckets) where a transposed view cannot pay for itself. Row-major
/// reads; per-point arithmetic is the scalar reference verbatim.
inline void SquaredDistanceGather(const PointSet& points, const PointId* ids,
                                  PointId count, const double* q, double* out) {
#if defined(DPC_KERNELS_RUNTIME)
  Active().gather(points, ids, count, q, out);
#else
  const int dim = points.dim();
  for (PointId k = 0; k < count; ++k) {
    out[k] = SquaredDistance(q, points[ids[k]], dim);
  }
#endif
}

}  // namespace dpc::kernels

#endif  // DPC_CORE_KERNELS_H_
