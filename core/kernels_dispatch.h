// Runtime CPU dispatch for the batched distance kernels.
//
// One fat, portable binary carries three differently-compiled copies of
// the column kernels — per-tier translation units with per-file arch
// flags (see the root CMakeLists):
//
//   generic  core/kernels_generic.cc   baseline x86-64 (SSE2) codegen
//   avx2     core/kernels_avx2.cc      -mavx2 -mfma  -ffp-contract=off
//   avx512   core/kernels_avx512.cc    -mavx512f     -ffp-contract=off
//
// and a once-initialized function-pointer table routes every public
// kernel (core/kernels.h) to the best tier the host can execute
// (core/cpu_features.h: CPUID + XGETBV). All tiers are bit-identical to
// the scalar reference — see the contract comment in
// core/kernels_tier_impl.inc — so switching tiers (even mid-process)
// changes speed only, never a distance, a label, or a tie-break.
//
// Overriding: the environment variable DPC_FORCE_KERNEL_TIER
// (generic|avx2|avx512, read once at first kernel use) pins the tier
// for testing; naming a tier the host cannot execute (or an unknown
// name) falls back to the best supported tier and sets
// TierOverrideFellBack(). SetActiveTier() is the in-process equivalent
// for tier sweeps in benches and tests.
#ifndef DPC_CORE_KERNELS_DISPATCH_H_
#define DPC_CORE_KERNELS_DISPATCH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/dpc.h"
#include "core/soa.h"

namespace dpc::kernels {

/// The dispatch tiers, in ascending width order. Values double as bits
/// in the supported-tier mask (1 << tier).
enum class KernelTier : int { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kNumKernelTiers = 3;

/// One tier's implementation of every public kernel. POD of function
/// pointers so a tier switch is a single atomic pointer store.
struct KernelTable {
  void (*sqdist)(const PointSetSoA&, PointId, PointId, const double*, double*);
  PointId (*range_count)(const PointSetSoA&, PointId, PointId, const double*,
                         double);
  void (*dot)(const PointSetSoA&, PointId, PointId, const double*, double*);
  void (*gather)(const PointSet&, const PointId*, PointId, const double*,
                 double*);
};

namespace tiers {
namespace generic {
extern const KernelTable kTable;
}
namespace avx2 {
extern const KernelTable kTable;
}
namespace avx512 {
extern const KernelTable kTable;
}
}  // namespace tiers

/// "generic" / "avx2" / "avx512".
const char* TierName(KernelTier tier);

/// Bit i set = tier i executable on this host AND compiled into this
/// binary (a toolchain without -mavx512f support drops that tier at
/// build time). Bit kGeneric is always set. Detected once, cached.
uint32_t SupportedTierMask();

/// Pure tier-selection policy, exposed for tests: `forced` is the
/// DPC_FORCE_KERNEL_TIER value (nullptr/empty = no override),
/// `supported_mask` a SupportedTierMask()-shaped bitmask. Returns the
/// forced tier when it names a supported tier, otherwise the widest
/// supported tier; *fell_back reports whether a non-empty override was
/// ignored (unknown name or unsupported tier).
KernelTier ChooseTier(const char* forced, uint32_t supported_mask,
                      bool* fell_back);

/// The supported tiers in ascending width order (always starts with
/// kGeneric).
std::vector<KernelTier> SupportedTiers();

/// The tier the kernels currently route to.
KernelTier ActiveTier();
const char* ActiveTierName();

/// Re-points the dispatch table at `tier`; returns false (and changes
/// nothing) when the tier is unsupported on this host/binary. Safe at
/// any time — every tier computes bit-identical results, so in-flight
/// solves only change speed — but intended for tier sweeps in benches
/// and tests.
bool SetActiveTier(KernelTier tier);

/// True when DPC_FORCE_KERNEL_TIER named an unknown or unsupported
/// tier and the dispatcher fell back to the best supported one.
bool TierOverrideFellBack();

namespace internal {

/// The published table pointer. A function-local static in an inline
/// function so the header needs no out-of-line storage; null until the
/// first kernel call resolves detection + override.
inline std::atomic<const KernelTable*>& ActiveSlot() {
  static std::atomic<const KernelTable*> slot{nullptr};
  return slot;
}

/// First-use initialization: detection, env override, publish. Defined
/// in core/kernels_dispatch.cc; thread-safe (idempotent publish).
const KernelTable* InitActiveTable();

}  // namespace internal

/// The table every public kernel routes through. Hot-path cost is one
/// relaxed-ish atomic load + indirect call per batch (hundreds to
/// thousands of points), noise next to the kernel body itself.
inline const KernelTable& Active() {
  const KernelTable* table =
      internal::ActiveSlot().load(std::memory_order_acquire);
  if (table == nullptr) table = internal::InitActiveTable();
  return *table;
}

}  // namespace dpc::kernels

#endif  // DPC_CORE_KERNELS_DISPATCH_H_
