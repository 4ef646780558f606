// Core vocabulary of the density-peaks clustering (DPC) library
// reproducing Amagata & Hara, "Fast Density-Peaks Clustering:
// Multicore-based Parallelization Approach" (SIGMOD'21).
//
// DPC assigns each point p
//   rho(p)   — local density: |{q != p : dist(p, q) <= d_cut}|
//   delta(p) — dependent distance: distance to the nearest point denser
//              than p (+inf for the globally densest point)
// Centers are the points with rho >= rho_min and delta >= delta_min;
// every other non-noise point joins the cluster of its dependent point
// (its nearest denser neighbor). Points with rho < rho_min are noise.
//
// The pipeline splits into two phases with wildly different costs, and
// the split is first-class in the API:
//
//   compute   — rho/delta/dependency. Depends only on ComputeParams
//               (d_cut, epsilon) and dominates the runtime: this is what
//               the paper parallelizes. An algorithm's canonical output
//               is a DpcSolution, the reusable artifact of this phase.
//   threshold — center selection + label propagation from a
//               ThresholdSpec (rho_min, delta_min). A pure O(n) pass
//               over a solution (LabelSolution) that yields a Labeling,
//               so decision-graph exploration — many thresholds against
//               one compute — never re-runs the expensive phase.
//
// Clustering is always the two calls in sequence: Solve(points,
// params.compute(), ctx), then LabelSolution with params.threshold().
// The caller keeps both results: the DpcSolution (rho/delta/dependency)
// and the Labeling (labels + centers). Re-thresholding keeps the
// solution and repeats only the second call.
//
// Ties in rho are broken by point id (smaller id counts as denser), which
// makes every phase — and therefore every label — deterministic for a
// fixed input, independent of thread count.
#ifndef DPC_CORE_DPC_H_
#define DPC_CORE_DPC_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "parallel/execution_context.h"
#include "parallel/parallel_for.h"

namespace dpc {

using PointId = int64_t;

/// Label values with special meaning in Labeling::label.
inline constexpr int64_t kNoise = -1;
inline constexpr int64_t kUnassigned = -2;

/// A dense row-major set of dim-dimensional points.
class PointSet {
 public:
  explicit PointSet(int dim) : dim_(dim > 0 ? dim : 1) {}

  PointId size() const {
    return static_cast<PointId>(coords_.size()) / dim_;
  }
  int dim() const { return dim_; }
  bool empty() const { return coords_.empty(); }

  const double* operator[](PointId i) const {
    return coords_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }
  double* MutablePoint(PointId i) {
    return coords_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }
  double Coord(PointId i, int d) const { return (*this)[i][d]; }

  void Reserve(PointId n) {
    coords_.reserve(static_cast<size_t>(n) * static_cast<size_t>(dim_));
  }
  /// Appends one point; p must hold dim() doubles.
  void Add(const double* p) { coords_.insert(coords_.end(), p, p + dim_); }
  /// Appends one uninitialized point and returns its mutable storage.
  double* AddUninitialized() {
    coords_.resize(coords_.size() + static_cast<size_t>(dim_));
    return coords_.data() + coords_.size() - static_cast<size_t>(dim_);
  }

  /// A deterministic Bernoulli(fraction) subsample (order-preserving).
  PointSet Sample(double fraction, uint64_t seed) const {
    PointSet out(dim_);
    if (fraction >= 1.0) {
      out.coords_ = coords_;
      return out;
    }
    Rng rng(seed);
    const PointId n = size();
    out.Reserve(static_cast<PointId>(static_cast<double>(n) * fraction) + 16);
    for (PointId i = 0; i < n; ++i) {
      if (rng.NextDouble() < fraction) out.Add((*this)[i]);
    }
    return out;
  }

  const std::vector<double>& raw() const { return coords_; }

 private:
  int dim_;
  std::vector<double> coords_;
};

inline double SquaredDistance(const double* a, const double* b, int dim) {
  double s = 0.0;
  for (int d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

inline double Distance(const double* a, const double* b, int dim) {
  return std::sqrt(SquaredDistance(a, b, dim));
}

/// Knobs of the expensive compute phase. Everything rho/delta/dependency
/// depend on besides the points and the algorithm lives here; two runs
/// of one algorithm sharing ComputeParams share their DpcSolution.
struct ComputeParams {
  double d_cut = 0.0;    ///< density ball radius (> 0)
  double epsilon = 1.0;  ///< S-Approx-DPC approximation knob (ignored elsewhere)

  Status Validate() const {
    if (!(d_cut > 0.0)) {
      return Status::InvalidArgument("d_cut must be positive");
    }
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    return Status::Ok();
  }
};

/// Knobs of the cheap threshold phase: how labels are derived from a
/// DpcSolution's decision graph. Changing these never requires recompute.
struct ThresholdSpec {
  double rho_min = 0.0;    ///< points below this density are noise
  double delta_min = 0.0;  ///< center threshold on the decision graph (> d_cut)

  /// d_cut is the compute-phase radius the thresholds must respect:
  /// grid-based algorithms guarantee exact centers only above the cell
  /// diameter (= d_cut).
  Status Validate(double d_cut) const {
    if (rho_min < 0.0) {
      return Status::InvalidArgument("rho_min must be non-negative");
    }
    if (!(delta_min > d_cut)) {
      return Status::InvalidArgument(
          "delta_min must exceed d_cut (grid-based algorithms guarantee "
          "exact centers only above the cell diameter)");
    }
    return Status::Ok();
  }
};

/// User-facing knobs, shared by every algorithm: the flat request bundle
/// (CLI flags, serving requests) that projects onto the two phases — see
/// compute() / threshold(). Execution policy lives in ExecutionContext.
struct DpcParams {
  double d_cut = 0.0;      ///< density ball radius (> 0)
  double rho_min = 0.0;    ///< points below this density are noise
  double delta_min = 0.0;  ///< center threshold on the decision graph (> d_cut)
  double epsilon = 1.0;    ///< S-Approx-DPC approximation knob (ignored elsewhere)

  /// The compute-phase projection of these params.
  ComputeParams compute() const { return ComputeParams{d_cut, epsilon}; }
  /// The threshold-phase projection of these params.
  ThresholdSpec threshold() const { return ThresholdSpec{rho_min, delta_min}; }

  Status Validate() const {
    if (const Status s = compute().Validate(); !s.ok()) return s;
    return threshold().Validate(d_cut);
  }
};

/// Per-phase wall times plus index footprint, filled by every solve.
struct DpcStats {
  double build_seconds = 0.0;  ///< index (kd-tree / grid) construction
  double rho_seconds = 0.0;    ///< local-density phase
  double delta_seconds = 0.0;  ///< dependent-distance phase
  size_t index_memory_bytes = 0;
  /// True when the run stopped early because the ExecutionContext's
  /// deadline passed or RequestCancel() was called; every label is
  /// kUnassigned and later-phase stats are zero.
  bool interrupted = false;
};

/// True iff q ranks denser than p (rho desc, id asc tie-break). This is
/// the total order used for dependency targets everywhere.
inline bool DenserThan(double rho_q, PointId q, double rho_p, PointId p) {
  return rho_q > rho_p || (rho_q == rho_p && q < p);
}

/// Ids sorted densest-first under DenserThan. When every rho is a
/// non-negative integer below rho.size() — true of any exact range count,
/// which sees at most n - 1 neighbors — this is an O(n) counting sort:
/// buckets run in descending rho and fill with ids in ascending order,
/// which is exactly DenserThan's tie-break. Any other density (sampled,
/// scaled, or beyond the cap) falls back to the comparison sort.
///
/// With an `exec` of several threads, n of at least
/// internal::kMinParallelIterations and no more buckets than ids per
/// thread, the counting sort runs on exec's pool: one static id chunk per
/// thread, each with its own histogram. Slots are handed out bucket by
/// bucket and, within a bucket, chunk by chunk, so each chunk's ids land
/// where the serial pass puts them and the order is the serial one. It
/// never polls exec's stop state.
inline std::vector<PointId> DensityOrder(const std::vector<double>& rho,
                                         const ExecutionContext* exec = nullptr) {
  const size_t n = rho.size();
  const int threads = exec != nullptr && n >= static_cast<size_t>(
                                              internal::kMinParallelIterations)
                          ? exec->threads()
                          : 1;
  const size_t chunk = (n + static_cast<size_t>(threads) - 1) /
                       static_cast<size_t>(threads);
  const auto for_each_chunk = [&](const auto& fn) {
    if (threads <= 1) {
      fn(size_t{0}, size_t{0}, n);
      return;
    }
    internal::RunTasks(*exec, static_cast<size_t>(threads), [&](size_t t) {
      const size_t begin = std::min(t * chunk, n);
      fn(t, begin, std::min(begin + chunk, n));
    });
  };
  // Per chunk: the largest rho, or n when some rho is not countable.
  std::vector<size_t> chunk_max(static_cast<size_t>(threads), 0);
  for_each_chunk([&](size_t t, size_t begin, size_t end) {
    size_t max_rho = 0;
    for (size_t i = begin; i < end; ++i) {
      const double r = rho[i];
      if (!(r >= 0.0 && r < static_cast<double>(n) && r == std::floor(r))) {
        max_rho = n;
        break;
      }
      max_rho = std::max(max_rho, static_cast<size_t>(r));
    }
    chunk_max[t] = max_rho;
  });
  const size_t max_rho = *std::max_element(chunk_max.begin(), chunk_max.end());
  if (max_rho >= n) {
    std::vector<PointId> order(n);
    std::iota(order.begin(), order.end(), PointId{0});
    std::sort(order.begin(), order.end(), [&rho](PointId a, PointId b) {
      return DenserThan(rho[static_cast<size_t>(a)], a, rho[static_cast<size_t>(b)], b);
    });
    return order;
  }
  // Bucket b holds rho == max_rho - b. next[t][b] is chunk t's next free
  // slot in bucket b: first its count, then its offset.
  const size_t buckets = max_rho + 1;
  if (threads > 1 && buckets > chunk) {
    // Histograms larger than the chunks they count cost more than they
    // save; the serial pass is the same order.
    return DensityOrder(rho);
  }
  std::vector<PointId> order(n);
  std::vector<std::vector<PointId>> next(static_cast<size_t>(threads));
  for_each_chunk([&](size_t t, size_t begin, size_t end) {
    next[t].assign(buckets, 0);
    for (size_t i = begin; i < end; ++i) {
      ++next[t][max_rho - static_cast<size_t>(rho[i])];
    }
  });
  PointId offset = 0;
  for (size_t b = 0; b < buckets; ++b) {
    for (std::vector<PointId>& counts : next) {
      const PointId count = counts[b];
      counts[b] = offset;
      offset += count;
    }
  }
  for_each_chunk([&](size_t t, size_t begin, size_t end) {
    PointId* const slots = next[t].data();
    for (size_t i = begin; i < end; ++i) {
      order[static_cast<size_t>(slots[max_rho - static_cast<size_t>(rho[i])]++)] =
          static_cast<PointId>(i);
    }
  });
  return order;
}

/// The compute phase's reusable artifact: everything the expensive
/// phases produced, plus the algorithm and compute params it ran under
/// and what it cost. The input's identity is the caller's to keep (the
/// serving layer keys its caches by the registry's content fingerprint).
/// Any ThresholdSpec can be applied to it with LabelSolution at O(n) —
/// the paper's decision-graph workflow.
struct DpcSolution {
  std::string algorithm;            ///< producing DpcAlgorithm::name()
  ComputeParams compute;            ///< params the phases ran under

  std::vector<double> rho;          ///< local density per point
  std::vector<double> delta;        ///< dependent distance (+inf for the peak)
  std::vector<PointId> dependency;  ///< nearest denser neighbor (-1 for the peak)
  /// Ids densest-first (DensityOrder(rho)), precomputed once so every
  /// re-threshold is a sort-free O(n) pass. Empty for interrupted solves.
  std::vector<PointId> density_order;

  DpcStats stats;  ///< compute phases only
  /// Wall cost of producing this solution (build + rho + delta, whose
  /// laps tile the algorithm body) — what a cache gives back per hit,
  /// and what cost-aware eviction weighs.
  double compute_cost_seconds = 0.0;

  PointId size() const { return static_cast<PointId>(rho.size()); }
  bool interrupted() const { return stats.interrupted; }
};

/// The threshold phase's output (LabelSolution): labels and centers of
/// one ThresholdSpec over a DpcSolution the caller keeps. To re-threshold,
/// keep the solution and label it again — the decision-graph workflow of
/// the paper's Figure 1.
struct Labeling {
  std::vector<int64_t> label;    ///< cluster id, kNoise, or kUnassigned
  std::vector<PointId> centers;  ///< point id of each cluster center

  int64_t num_clusters() const { return static_cast<int64_t>(centers.size()); }
  bool is_noise(PointId i) const { return label[static_cast<size_t>(i)] == kNoise; }
};

namespace internal {

/// The shared labeling pass: center selection by (rho_min, delta_min),
/// then propagation along dependency chains in density order. `order`
/// must be DensityOrder(rho).
inline void LabelWithOrder(const std::vector<double>& rho,
                           const std::vector<double>& delta,
                           const std::vector<PointId>& dependency,
                           const std::vector<PointId>& order,
                           const ThresholdSpec& spec,
                           std::vector<int64_t>* label,
                           std::vector<PointId>* centers) {
  centers->clear();
  label->assign(rho.size(), kNoise);
  for (const PointId id : order) {
    const size_t i = static_cast<size_t>(id);
    if (rho[i] < spec.rho_min) continue;  // noise
    if (delta[i] >= spec.delta_min) {
      (*label)[i] = static_cast<int64_t>(centers->size());
      centers->push_back(id);
    } else {
      const PointId dep = dependency[i];
      // dep is denser than id, hence already labeled and never noise
      // (rho[dep] >= rho[id] >= rho_min); dep == -1 only for the global
      // peak, whose delta is +inf >= delta_min.
      (*label)[i] = dep >= 0 ? (*label)[static_cast<size_t>(dep)] : kNoise;
    }
  }
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Phase-boundary cancellation/deadline check shared by every algorithm:
/// when the context says stop, marks the solution interrupted (rho/delta
/// keep whatever phases completed; labeling never runs on it).
inline bool Interrupted(const ExecutionContext& ctx, DpcSolution* solution) {
  if (!ctx.ShouldStop()) return false;
  solution->stats.interrupted = true;
  return true;
}

/// Re-tiles a solve's phase laps as back-to-back child spans. Every
/// algorithm times its phases with consecutive WallTimer::Lap() calls
/// from the top of SolveImpl, so [solve_start, solve_start + build),
/// [.., + rho), [.., + delta) reconstructs the real phase intervals to
/// lap precision — which is how ALL SEVEN algorithms emit per-phase
/// spans from one integration point (DpcAlgorithm::Solve) with zero
/// instrumentation inside their bodies. An interrupted run only emits
/// the phases that actually accumulated time.
inline void RecordSolvePhaseSpans(obs::Trace* trace, uint64_t parent,
                                  uint64_t solve_start_ns,
                                  const DpcStats& stats) {
  const struct {
    const char* name;
    double seconds;
  } phases[] = {{"solve/build", stats.build_seconds},
                {"solve/rho", stats.rho_seconds},
                {"solve/delta", stats.delta_seconds}};
  uint64_t t = solve_start_ns;
  for (const auto& [name, seconds] : phases) {
    if (seconds <= 0.0) continue;
    const uint64_t end = t + static_cast<uint64_t>(seconds * 1e9);
    trace->RecordComplete(name, parent, t, end);
    t = end;
  }
}

}  // namespace internal

/// The threshold phase over a solution: labels + centers at O(n) (the
/// solution's precomputed density order makes it sort-free). For an
/// interrupted solution every label is kUnassigned. Every finished
/// solution carries its full density order: Solve stamps it, and
/// store::DecodeSolution refuses a record without it.
inline Labeling LabelSolution(const DpcSolution& solution,
                              const ThresholdSpec& spec) {
  Labeling out;
  if (solution.interrupted()) {
    out.label.assign(solution.rho.size(), kUnassigned);
    return out;
  }
  internal::LabelWithOrder(solution.rho, solution.delta, solution.dependency,
                           solution.density_order, spec, &out.label,
                           &out.centers);
  return out;
}

class DpcAlgorithm {
 public:
  virtual ~DpcAlgorithm() = default;
  virtual std::string_view name() const = 0;

  /// The compute phase: produces this algorithm's DpcSolution (rho /
  /// delta / dependency + metadata). The ExecutionContext carries the
  /// execution policy (thread pool, parallelism degree,
  /// deadline/cancellation).
  DpcSolution Solve(const PointSet& points, const ComputeParams& compute,
                    const ExecutionContext& ctx) {
    obs::Trace* const trace = ctx.trace();
    const uint64_t solve_start_ns = trace != nullptr ? obs::Trace::NowNs() : 0;
    DpcSolution solution = SolveImpl(points, compute, ctx);
    const uint64_t impl_end_ns = trace != nullptr ? obs::Trace::NowNs() : 0;
    solution.algorithm = std::string(name());
    solution.compute = compute;
    solution.compute_cost_seconds = solution.stats.build_seconds +
                                    solution.stats.rho_seconds +
                                    solution.stats.delta_seconds;
    if (!solution.interrupted()) {
      solution.density_order = DensityOrder(solution.rho, &ctx);
    }
    if (trace != nullptr) {
      internal::RecordSolvePhaseSpans(trace, ctx.span_parent(), solve_start_ns,
                                      solution.stats);
      // The stamping above (the density-order sort) is real wall time
      // too; spanning it keeps the children of a "solve" span summing to
      // its wall.
      trace->RecordComplete("solve/stamp", ctx.span_parent(), impl_end_ns,
                            obs::Trace::NowNs());
    }
    return solution;
  }

 protected:
  /// Algorithm body: fill rho/delta/dependency and the phase stats
  /// (ctx.threads() is the resolved degree); Solve stamps the metadata
  /// (name, compute params, cost, density order) afterward.
  virtual DpcSolution SolveImpl(const PointSet& points,
                                const ComputeParams& compute,
                                const ExecutionContext& ctx) = 0;
};

}  // namespace dpc

#endif  // DPC_CORE_DPC_H_
