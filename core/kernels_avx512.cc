// The avx512 dispatch tier: the column kernels auto-vectorized at
// 512-bit width (8 doubles per register), compiled with
// -mavx512f -ffp-contract=off per-file flags. Same bit-identity rules
// as the avx2 tier (see core/kernels_avx2.cc and the contract comment
// in core/kernels_tier_impl.inc); reachable only through the dispatch
// table after CPUID/XGETBV proved AVX-512F + ZMM/opmask OS state.
//
// When the configuring toolchain cannot compile -mavx512f, CMake
// defines DPC_KERNELS_AVX512_UNAVAILABLE for the whole dispatch
// library: this TU then compiles the generic-codegen bodies (keeping
// the symbol and table link-valid) and kernels_dispatch.cc drops the
// tier from SupportedTierMask(), so the binary never claims a width it
// does not have.
#include <algorithm>

#include "core/kernels_dispatch.h"

#define DPC_TIER_NS avx512
#include "core/kernels_tier_impl.inc"
#undef DPC_TIER_NS
