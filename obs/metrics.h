// obs/ — the dependency-free telemetry layer of the serving stack:
// a process-local MetricRegistry of named counters, log-bucketed
// histograms and scrape-time collectors (which emit every gauge), built
// for the two consumers the repo already has: the `dpc_server` `metrics`
// command (Prometheus text / JSON, see obs/export.h) and bench_serving's
// p50/p99/p999 recorder.
//
// Design constraints, in order:
//
//   hot path      — Counter::Inc and Histogram::Observe are lock-free
//                   (relaxed atomics; the histogram's bucket index is a
//                   branch-free-ish binary search over a constexpr-built
//                   bounds table). Neither allocates.
//   determinism   — bucket bounds are a FIXED geometric ladder,
//                   4 sub-buckets per octave (ratio 2^(1/4) ≈ 1.19)
//                   from 1ns to ~925s, built with ldexp so every bound
//                   is bit-identical on every platform. Percentile(q)
//                   is a pure function of the counts array: two
//                   snapshots with equal counts report equal quantiles,
//                   across machines and runs.
//   coherence     — registries accept COLLECTORS: callbacks that emit
//                   samples at scrape time, so a subsystem with its own
//                   lock (SolutionCache, SolutionStore) can publish a
//                   multi-field snapshot taken under ONE critical
//                   section — cross-field invariants like
//                   hits + misses == lookups hold in every scrape.
//
// Registered metric objects live as long as the registry; counter() /
// histogram() return stable references a hot loop can cache.
#ifndef DPC_OBS_METRICS_H_
#define DPC_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dpc::obs {

/// Monotonic counter; relaxed increments, no lock, no allocation.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// The shared bucket ladder: bounds[i] = kSub[i mod 4] * 2^(i div 4) ns,
/// i.e. four sub-buckets per power-of-two octave, covering [1ns, ~925s]
/// in 160 bounds with ~19% relative resolution. One extra overflow
/// bucket catches everything above the last bound (it reports +inf from
/// Percentile, so "p99 is finite" is a meaningful health assertion).
/// Values at or below the first bound (including 0 and negatives) land
/// in bucket 0.
struct HistogramBuckets {
  static constexpr int kSubBuckets = 4;
  static constexpr int kOctaves = 40;
  static constexpr int kNumBounds = kSubBuckets * kOctaves;  // 160
  static constexpr int kNumBuckets = kNumBounds + 1;         // + overflow

  /// The bounds table in seconds, built once. ldexp(sub, octave) is
  /// exact scaling by a power of two, and the four sub-bucket constants
  /// are fixed 2^(k/4) literals, so the table is deterministic down to
  /// the last bit everywhere.
  static const std::array<double, kNumBounds>& Bounds() {
    static const std::array<double, kNumBounds> bounds = [] {
      // 2^(0/4), 2^(1/4), 2^(2/4), 2^(3/4) to 17 significant digits.
      constexpr double kSub[kSubBuckets] = {
          1.0, 1.1892071150027210667, 1.4142135623730950488,
          1.6817928305074290860};
      std::array<double, kNumBounds> b{};
      for (int i = 0; i < kNumBounds; ++i) {
        b[static_cast<size_t>(i)] =
            std::ldexp(kSub[i % kSubBuckets], i / kSubBuckets) * 1e-9;
      }
      return b;
    }();
    return bounds;
  }

  static double Bound(int i) { return Bounds()[static_cast<size_t>(i)]; }

  /// Index of the bucket counting v: the first i with v <= Bound(i), or
  /// the overflow bucket (kNumBounds) when v exceeds the last bound.
  /// NaN lands in the overflow bucket (every comparison fails).
  static int BucketFor(double v) {
    const std::array<double, kNumBounds>& bounds = Bounds();
    int lo = 0;
    int hi = kNumBounds;  // overflow sentinel
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (v <= bounds[static_cast<size_t>(mid)]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
};

/// A consistent-enough copy of a histogram's state: counts are read
/// bucket-by-bucket while observers may still be appending, so `count`
/// and `sum` can trail each other by in-flight observations — fine for
/// monitoring, and exact whenever the histogram is quiescent (tests).
struct HistogramSnapshot {
  std::array<uint64_t, HistogramBuckets::kNumBuckets> counts{};
  uint64_t count = 0;  ///< sum of counts
  double sum = 0.0;    ///< sum of observed values

  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// The q-th percentile (q in [0, 100]), linearly interpolated inside
  /// the winning bucket — a pure, deterministic function of `counts`.
  /// Returns 0 for an empty histogram and +inf when the rank falls in
  /// the overflow bucket.
  double Percentile(double q) const {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 100.0) q = 100.0;
    uint64_t rank =
        static_cast<uint64_t>(std::ceil(q / 100.0 * static_cast<double>(count)));
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    uint64_t cumulative = 0;
    for (int i = 0; i < HistogramBuckets::kNumBuckets; ++i) {
      const uint64_t in_bucket = counts[static_cast<size_t>(i)];
      if (cumulative + in_bucket >= rank) {
        if (i >= HistogramBuckets::kNumBounds) {
          return std::numeric_limits<double>::infinity();
        }
        const double lower = i == 0 ? 0.0 : HistogramBuckets::Bound(i - 1);
        const double upper = HistogramBuckets::Bound(i);
        const double fraction = static_cast<double>(rank - cumulative) /
                                static_cast<double>(in_bucket);
        return lower + (upper - lower) * fraction;
      }
      cumulative += in_bucket;
    }
    return std::numeric_limits<double>::infinity();  // unreachable
  }
};

/// Log-bucketed distribution recorder. Observe is lock-free: one binary
/// search, one relaxed fetch_add, one CAS loop on the sum — and never
/// allocates (the zero-allocation contract tests/obs_test.cc asserts).
class Histogram {
 public:
  void Observe(double v) {
    buckets_[static_cast<size_t>(HistogramBuckets::BucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    double sum = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(sum, sum + v,
                                       std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snapshot;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      snapshot.counts[i] = buckets_[i].load(std::memory_order_relaxed);
      snapshot.count += snapshot.counts[i];
    }
    snapshot.sum = sum_.load(std::memory_order_relaxed);
    return snapshot;
  }

 private:
  std::array<std::atomic<uint64_t>, HistogramBuckets::kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exposition row: a named value (counter/gauge) or distribution.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;           ///< kCounter / kGauge
  HistogramSnapshot histogram;  ///< kHistogram

  static MetricSample FromCounter(std::string name, double value) {
    MetricSample s;
    s.name = std::move(name);
    s.kind = MetricKind::kCounter;
    s.value = value;
    return s;
  }
  static MetricSample FromGauge(std::string name, double value) {
    MetricSample s;
    s.name = std::move(name);
    s.kind = MetricKind::kGauge;
    s.value = value;
    return s;
  }
  static MetricSample FromHistogram(std::string name,
                                    HistogramSnapshot snapshot) {
    MetricSample s;
    s.name = std::move(name);
    s.kind = MetricKind::kHistogram;
    s.histogram = std::move(snapshot);
    return s;
  }
};

/// A named bag of metrics. Registration takes the registry lock once and
/// returns a stable reference (metrics are heap nodes that live as long
/// as the registry); the returned objects' hot-path operations never
/// touch the lock again. Snapshot() = the registered objects' current
/// values plus whatever the collectors emit, sorted by name.
///
/// Collectors exist for subsystems whose stats already live under their
/// own lock: the callback runs at scrape time and can copy a whole
/// multi-field snapshot in one critical section, which is how the serve
/// layer keeps hits + warm + misses == lookups observable as an
/// invariant rather than a race.
class MetricRegistry {
 public:
  using Collector = std::function<void(std::vector<MetricSample>*)>;

  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Counter>& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return *slot;
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Histogram>& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return *slot;
  }

  void AddCollector(Collector collector) {
    std::lock_guard<std::mutex> lock(mu_);
    collectors_.push_back(std::move(collector));
  }

  /// Every registered metric's current value plus the collectors'
  /// samples, sorted by name (collector samples override registered ones
  /// on a name clash — the collector's copy is the coherent one).
  std::vector<MetricSample> Snapshot() const {
    std::vector<MetricSample> samples;
    std::vector<Collector> collectors;
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples.reserve(counters_.size() + histograms_.size());
      for (const auto& [name, counter] : counters_) {
        samples.push_back(MetricSample::FromCounter(
            name, static_cast<double>(counter->value())));
      }
      for (const auto& [name, histogram] : histograms_) {
        samples.push_back(
            MetricSample::FromHistogram(name, histogram->Snapshot()));
      }
      collectors = collectors_;  // run outside mu_: collectors take their
                                 // own subsystem locks
    }
    for (const Collector& collect : collectors) collect(&samples);
    std::sort(samples.begin(), samples.end(),
              [](const MetricSample& a, const MetricSample& b) {
                return a.name < b.name;
              });
    return samples;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<Collector> collectors_;
};

}  // namespace dpc::obs

#endif  // DPC_OBS_METRICS_H_
