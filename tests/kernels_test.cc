// Batched kernels vs the scalar reference: every kernel in
// core/kernels.h must be BIT-identical (==, not near) to per-point
// SquaredDistance / dot calls, across dimensions, odd batch lengths and
// permuted views. The whole sweep repeats once per host-supported tier
// (SetActiveTier), so generic/avx2/avx512 codegen all face the same
// `==` oracle in a single process; the ChooseTier policy (env override,
// graceful fallback from unsupported/unknown tiers) is unit-tested
// against synthetic support masks.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <vector>

#include "core/dpc.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "core/soa.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet RandomPoints(int dim, dpc::PointId n, uint64_t seed) {
  dpc::Rng rng(seed);
  dpc::PointSet points(dim);
  points.Reserve(n);
  std::vector<double> p(static_cast<size_t>(dim));
  for (dpc::PointId i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) p[static_cast<size_t>(d)] = rng.Uniform(0, 1000);
    points.Add(p.data());
  }
  return points;
}

// Exercises every kernel over [begin, begin + count) of `soa`, whose
// position j maps to points[ids[j]].
void CheckRange(const dpc::PointSet& points, const dpc::PointSetSoA& soa,
                const std::vector<dpc::PointId>& ids, dpc::PointId begin,
                dpc::PointId count, const double* q, double r_sq) {
  const int dim = points.dim();

  std::vector<double> batch(static_cast<size_t>(count) + 1,
                            std::numeric_limits<double>::quiet_NaN());
  batch.back() = -42.0;  // overrun canary
  dpc::kernels::SquaredDistanceBatch(soa, begin, count, q, batch.data());
  CHECK_EQ(batch.back(), -42.0);

  dpc::PointId scalar_hits = 0;
  for (dpc::PointId j = 0; j < count; ++j) {
    const double d_sq = dpc::SquaredDistance(
        q, points[ids[static_cast<size_t>(begin + j)]], dim);
    CHECK(batch[static_cast<size_t>(j)] == d_sq);  // bitwise
    if (d_sq <= r_sq) ++scalar_hits;
  }

  CHECK_EQ(dpc::kernels::RangeCountBatch(soa, begin, count, q, r_sq),
           scalar_hits);

  // DotBatch vs an ascending-dimension scalar dot (q doubles as the
  // projection direction).
  std::vector<double> dots(static_cast<size_t>(count));
  dpc::kernels::DotBatch(soa, begin, count, q, dots.data());
  for (dpc::PointId j = 0; j < count; ++j) {
    const double* p = points[ids[static_cast<size_t>(begin + j)]];
    double s = 0.0;
    for (int d = 0; d < dim; ++d) s += q[d] * p[d];
    CHECK(dots[static_cast<size_t>(j)] == s);
  }

  // The row-major gather agrees with the transposed batch on the same
  // candidates.
  std::vector<double> gathered(static_cast<size_t>(count));
  dpc::kernels::SquaredDistanceGather(points,
                                      ids.data() + static_cast<size_t>(begin),
                                      count, q, gathered.data());
  for (dpc::PointId j = 0; j < count; ++j) {
    CHECK(gathered[static_cast<size_t>(j)] == batch[static_cast<size_t>(j)]);
  }
}

void TestDim(int dim) {
  const dpc::PointId n = 1337;  // odd on purpose
  const dpc::PointSet points =
      RandomPoints(dim, n, 4200 + static_cast<uint64_t>(dim));

  // Identity view and a reversed-permutation view.
  std::vector<dpc::PointId> identity(static_cast<size_t>(n));
  std::iota(identity.begin(), identity.end(), dpc::PointId{0});
  std::vector<dpc::PointId> reversed(identity.rbegin(), identity.rend());

  const dpc::PointSetSoA soa(points);
  dpc::PointSetSoA perm_soa;
  perm_soa.Assign(points, reversed.data(), n, /*store_ids=*/true);
  CHECK_EQ(perm_soa.IdAt(0), n - 1);
  CHECK_EQ(soa.IdAt(5), 5);
  CHECK(soa.MemoryBytes() >= static_cast<size_t>(n) * dim * sizeof(double));

  dpc::Rng rng(7);
  std::vector<double> q(static_cast<size_t>(dim));
  // Batch lengths chosen to hit every tiling edge: empty, one, odd
  // lengths straddling the 512-wide vector tile, and the full set.
  const dpc::PointId lens[] = {0, 1, 3, 31, 511, 512, 513, 1023, n};
  for (int trial = 0; trial < 8; ++trial) {
    for (int d = 0; d < dim; ++d) q[static_cast<size_t>(d)] = rng.Uniform(0, 1000);
    const double r = rng.Uniform(50.0, 600.0);
    for (const dpc::PointId len : lens) {
      const dpc::PointId begin =
          len >= n ? 0
                   : static_cast<dpc::PointId>(rng.NextBelow(
                         static_cast<uint64_t>(n - len + 1)));
      CheckRange(points, soa, identity, begin, std::min(len, n), q.data(),
                 r * r);
      CheckRange(points, perm_soa, reversed, begin, std::min(len, n), q.data(),
                 r * r);
    }
  }

  std::printf("kernels dim=%d OK (tier %s)\n", dim,
              dpc::kernels::ActiveTierName());
}

}  // namespace

constexpr int kDims[] = {1, 2, 3, 4, 7, 8, 16};

// The ChooseTier policy as a pure function: forced name x synthetic
// support mask, independent of what this host actually supports.
void TestChooseTier() {
  using dpc::kernels::ChooseTier;
  using dpc::kernels::KernelTier;
  constexpr uint32_t kGenericOnly = 0b001;
  constexpr uint32_t kUpToAvx2 = 0b011;
  constexpr uint32_t kAll = 0b111;
  bool fell_back = true;

  // No override: widest supported, no fallback reported.
  CHECK(ChooseTier(nullptr, kAll, &fell_back) == KernelTier::kAvx512);
  CHECK(!fell_back);
  CHECK(ChooseTier("", kUpToAvx2, &fell_back) == KernelTier::kAvx2);
  CHECK(!fell_back);
  CHECK(ChooseTier(nullptr, kGenericOnly, &fell_back) == KernelTier::kGeneric);
  CHECK(!fell_back);

  // Forced supported tier is honored — including deliberately narrower
  // than the widest available.
  CHECK(ChooseTier("generic", kAll, &fell_back) == KernelTier::kGeneric);
  CHECK(!fell_back);
  CHECK(ChooseTier("avx2", kAll, &fell_back) == KernelTier::kAvx2);
  CHECK(!fell_back);
  CHECK(ChooseTier("avx512", kAll, &fell_back) == KernelTier::kAvx512);
  CHECK(!fell_back);

  // Forced-but-unsupported falls back to the widest supported tier and
  // reports it; same for unknown names.
  CHECK(ChooseTier("avx512", kUpToAvx2, &fell_back) == KernelTier::kAvx2);
  CHECK(fell_back);
  CHECK(ChooseTier("avx2", kGenericOnly, &fell_back) == KernelTier::kGeneric);
  CHECK(fell_back);
  CHECK(ChooseTier("pentium-mmx", kAll, &fell_back) == KernelTier::kAvx512);
  CHECK(fell_back);

  std::printf("ChooseTier policy OK\n");
}

void TestTierSweep() {
  const std::vector<dpc::kernels::KernelTier> tiers =
      dpc::kernels::SupportedTiers();
  // Generic is compiled into every binary and runs on every host.
  CHECK(!tiers.empty());
  CHECK(tiers.front() == dpc::kernels::KernelTier::kGeneric);

  // Forcing an unsupported tier must fail without touching the active one.
  const dpc::kernels::KernelTier before = dpc::kernels::ActiveTier();
  for (int t = 0; t < dpc::kernels::kNumKernelTiers; ++t) {
    const auto tier = static_cast<dpc::kernels::KernelTier>(t);
    if ((dpc::kernels::SupportedTierMask() & (1u << t)) == 0) {
      CHECK(!dpc::kernels::SetActiveTier(tier));
      CHECK(dpc::kernels::ActiveTier() == before);
    }
  }

  // Every supported tier faces the full bitwise sweep in-process.
  for (const dpc::kernels::KernelTier tier : tiers) {
    CHECK(dpc::kernels::SetActiveTier(tier));
    CHECK(dpc::kernels::ActiveTier() == tier);
    std::printf("--- tier %s ---\n", dpc::kernels::ActiveTierName());
    for (const int dim : kDims) TestDim(dim);
  }
  // Leave the widest tier active, as first-use detection would have.
  CHECK(dpc::kernels::SetActiveTier(tiers.back()));
}

int main() {
  TestChooseTier();
  TestTierSweep();
  std::printf("kernels_test OK\n");
  return 0;
}
