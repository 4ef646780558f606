// The generic dispatch tier: the column kernels at baseline target
// codegen (SSE2 on x86-64) — the portable floor every host can run and
// the tier DPC_FORCE_KERNEL_TIER=generic pins for fallback testing.
// Compiled with -ffp-contract=off like every tier TU (uniformity; the
// baseline ISA cannot contract anyway).
#include <algorithm>

#include "core/kernels_dispatch.h"

#define DPC_TIER_NS generic
#include "core/kernels_tier_impl.inc"
#undef DPC_TIER_NS
