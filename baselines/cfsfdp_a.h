// CFSFDP-A baseline (§6): CFSFDP with an approximate density phase.
//
// rho is estimated by counting neighbors only among a fixed Bernoulli
// sample of the input and scaling by the inverse sampling rate — the
// classic way to cut the quadratic density pass by a constant factor.
// The dependent-point pass is the SAME quadratic scan as the Scan
// baseline (internal::QuadraticDeltas), which is why CFSFDP-A stays
// Theta(n^2) overall in the paper's Table 1 while its rho phase sits
// below Scan's in Table 6.
//
// The sample is drawn with the stateless per-point hash (core/rng.h), so
// the estimate — and every downstream label — is deterministic and
// thread-count independent.
#ifndef DPC_BASELINES_CFSFDP_A_H_
#define DPC_BASELINES_CFSFDP_A_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "baselines/scan_dpc.h"
#include "core/dpc.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "core/soa.h"
#include "parallel/parallel_for.h"

namespace dpc {

class CfsfdpA : public DpcAlgorithm {
 public:
  /// Fraction of points the density estimate counts against (the paper's
  /// fixed 25%).
  static constexpr double kSampleRate = 0.25;
  /// Seed of the Bernoulli sampling coins; fixed so labels are
  /// reproducible run to run.
  static constexpr uint64_t kSampleSeed = 0xcf5fd9a5;

  std::string_view name() const override { return "CFSFDP-A"; }

 protected:
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& exec) override {
    DpcSolution result;
    const PointId n = points.size();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer phase;
    std::vector<PointId> sample;
    sample.reserve(
        static_cast<size_t>(static_cast<double>(n) * kSampleRate) + 16);
    for (PointId j = 0; j < n; ++j) {
      if (HashToUnit(kSampleSeed, static_cast<uint64_t>(j)) < kSampleRate) {
        sample.push_back(j);
      }
    }
    // Transposed views for the batched kernels: the sample in draw order
    // for the density pass, the full set for the dependent pass.
    const PointId m = static_cast<PointId>(sample.size());
    PointSetSoA sample_soa;
    sample_soa.Assign(points, sample.data(), m, /*store_ids=*/false);
    const PointSetSoA soa(points);
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = sample.capacity() * sizeof(PointId) +
                                      sample_soa.MemoryBytes() +
                                      soa.MemoryBytes();

    // rho: scaled count of sampled neighbors (self excluded when sampled).
    // The inner scan is quadratic-family work (O(|sample|) per index), so
    // it polls ShouldStop every ~kDistanceEvalsPerPoll evaluations like
    // the Scan loops — see baselines/scan_dpc.h. The batch counts the
    // self-hit whenever i itself was sampled (distance 0), which the
    // same Bernoulli coin that built the sample detects in O(1).
    const double r_sq = compute.d_cut * compute.d_cut;
    ParallelFor(exec, n, [&](PointId begin, PointId end) {
      for (PointId i = begin; i < end; ++i) {
        PointId count = 0;
        for (PointId k0 = 0; k0 < m; k0 += internal::kDistanceEvalsPerPoll) {
          if (exec.ShouldStop()) return;
          const PointId k_end =
              std::min(k0 + internal::kDistanceEvalsPerPoll, m);
          count += kernels::RangeCountBatch(sample_soa, k0, k_end - k0,
                                            points[i], r_sq);
        }
        const bool self_sampled =
            HashToUnit(kSampleSeed, static_cast<uint64_t>(i)) < kSampleRate;
        if (self_sampled) --count;
        result.rho[static_cast<size_t>(i)] =
            static_cast<double>(count) / kSampleRate;
      }
    });
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(exec, &result)) return result;

    internal::QuadraticDeltas(points, soa, result.rho, exec, &result.delta,
                              &result.dependency);
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(exec, &result);
    return result;
  }
};

}  // namespace dpc

#endif  // DPC_BASELINES_CFSFDP_A_H_
