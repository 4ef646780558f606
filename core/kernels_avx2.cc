// The avx2 dispatch tier: the same column kernels auto-vectorized at
// 256-bit width (4 doubles per lane-set). This TU is compiled with
// -mavx2 -mfma -ffp-contract=off (per-file flags, root CMakeLists):
// the wide registers come from vectorizing ACROSS points, and contract
// =off keeps the compiler from fusing the accumulate path's mul+add
// into FMA (one rounding instead of two), which would break the
// bit-identity contract against the scalar reference.
//
// Nothing outside the tier TUs may be compiled with wide-arch flags;
// these functions are only reachable through the dispatch table after
// core/cpu_features.h proved the host executes AVX2 (CPUID + XGETBV).
#include <algorithm>

#include "core/kernels_dispatch.h"

#define DPC_TIER_NS avx2
#include "core/kernels_tier_impl.inc"
#undef DPC_TIER_NS
