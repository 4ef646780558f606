// Micro-benchmarks of the distance kernels and index substrates: the
// scalar-vs-batched kernel comparison (the SoA fast path's headline
// numbers), kd-tree build (serial and pool) / range count / NN /
// nearest-denser search, R-tree range count, grid build (serial and
// pool), LSH partitioning. These are the primitive costs behind every
// row of Tables 1 and 6.
//
// Self-contained harness (no external benchmark framework): each case
// auto-calibrates its iteration count until the timed region exceeds
// ~0.12 s. `--json <path>` additionally writes the eval/bench_json.h
// document; scripts/record_bench.py turns that into the committed
// BENCH_kernels.json trajectory and scripts/check_bench_regression.py
// gates CI on the kernel speedups (ratios within one run are stable
// across machines; absolute ns are reported but never gated).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "core/soa.h"
#include "data/real_like.h"
#include "eval/bench_json.h"
#include "eval/table.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "index/lsh.h"
#include "index/rtree.h"

namespace dpc {
namespace {

// Keeps `value` observable so the optimizer cannot delete the benchmark
// body.
template <typename T>
inline void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Runs fn() repeatedly, growing the iteration count until the timed
/// region exceeds `min_seconds`; returns seconds per call.
template <typename Fn>
double SecondsPerOp(Fn&& fn, double min_seconds = 0.12) {
  fn();  // warm caches and touch the data once, untimed
  int64_t iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (s >= min_seconds) return s / static_cast<double>(iters);
    const double grow =
        s <= 1e-9 ? 64.0 : std::min(64.0, 1.3 * min_seconds / s);
    iters = static_cast<int64_t>(static_cast<double>(iters) * grow) + 1;
  }
}

PointSet MakeData(int64_t n, int dim = 0) {
  PointSet base = data::MakeRealLike(data::RealDatasetSpecByName("Household"),
                                     static_cast<PointId>(n));
  if (dim <= 0 || dim == base.dim()) return base;
  // Re-shape to `dim` by tiling coordinates (keeps realistic value
  // ranges without a second generator).
  PointSet out(dim);
  out.Reserve(base.size());
  std::vector<double> p(static_cast<size_t>(dim));
  for (PointId i = 0; i < base.size(); ++i) {
    for (int d = 0; d < dim; ++d) {
      p[static_cast<size_t>(d)] =
          base[i][d % base.dim()] * (1.0 + 0.01 * (d / base.dim()));
    }
    out.Add(p.data());
  }
  return out;
}

struct KernelNumbers {
  double scalar_ns = 0.0;
  double batch_ns = 0.0;
  double speedup() const { return batch_ns > 0.0 ? scalar_ns / batch_ns : 0.0; }
};

/// One scalar-vs-batched comparison over a full sweep of `points`
/// (n per-point distance evaluations per op, fresh query each op).
/// kind: 0 = squared distances into a buffer, 1 = range count.
/// Alternates the two sides over `kRepeats` rounds and keeps each
/// side's minimum — the noise-robust estimator for the gated
/// speedup ratios (this box shares its core, so a single round can see a
/// 2x swing from a noisy neighbor). Many short rounds beat few long
/// ones: a slow phase — a noisy neighbor, a frequency dip — lasts
/// longer than one 60ms window, so at least some rounds land clean.
KernelNumbers MeasureKernel(const PointSet& points, const PointSetSoA& soa,
                            int kind, double radius) {
  const PointId n = points.size();
  const int dim = points.dim();
  const double r_sq = radius * radius;
  std::vector<double> buf(static_cast<size_t>(n));
  KernelNumbers out;
  out.scalar_ns = std::numeric_limits<double>::infinity();
  out.batch_ns = std::numeric_limits<double>::infinity();

  constexpr int kRepeats = 16;
  constexpr double kRoundSeconds = 0.06;
  for (int rep = 0; rep < kRepeats; ++rep) {
    // Scalar reference: the row-major per-point loops every hot path ran
    // before the SoA view existed.
    {
      Rng rng(17);
      const double ns =
          1e9 / static_cast<double>(n) * SecondsPerOp([&] {
            const double* q =
                points[static_cast<PointId>(rng.NextBounded(
                    static_cast<uint64_t>(n)))];
            if (kind == 0) {
              for (PointId j = 0; j < n; ++j) {
                buf[static_cast<size_t>(j)] = SquaredDistance(q, points[j], dim);
              }
              Sink(buf[static_cast<size_t>(n - 1)]);
            } else {
              PointId count = 0;
              for (PointId j = 0; j < n; ++j) {
                if (SquaredDistance(q, points[j], dim) <= r_sq) ++count;
              }
              Sink(count);
            }
          }, kRoundSeconds);
      out.scalar_ns = std::min(out.scalar_ns, ns);
    }

    // Batched kernel over the identity SoA view, same query sequence.
    {
      Rng rng(17);
      const double ns =
          1e9 / static_cast<double>(n) * SecondsPerOp([&] {
            const double* q =
                points[static_cast<PointId>(rng.NextBounded(
                    static_cast<uint64_t>(n)))];
            if (kind == 0) {
              kernels::SquaredDistanceBatch(soa, 0, n, q, buf.data());
              Sink(buf[static_cast<size_t>(n - 1)]);
            } else {
              Sink(kernels::RangeCountBatch(soa, 0, n, q, r_sq));
            }
          }, kRoundSeconds);
      out.batch_ns = std::min(out.batch_ns, ns);
    }
  }
  return out;
}

}  // namespace
}  // namespace dpc

int main(int argc, char** argv) {
  using namespace dpc;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("index micro",
                     "distance-kernel and index primitive costs", cfg);

  eval::BenchJsonWriter json("index_micro");
  bench::AddStandardConfig(cfg, &json);
  eval::Table table({"case", "metric", "value"});
  const auto emit = [&](const std::string& name, const std::string& metric,
                        double value, const char* fmt = "%.1f") {
    table.AddRow({name, metric, StrFormat(fmt, value)});
    json.AddMetric(metric, value);
  };

  // --- Kernel comparison: the PR-gated numbers. ------------------------
  // n = 4096 matches the baselines' poll-block batch size; dim 2 is the
  // Syn/S1-S4 shape, dim 7 the Household shape.
  //
  // The whole comparison repeats once per host-supported tier
  // (SetActiveTier). The generic tier keeps the
  // historical row names, so the committed trajectory and its 15%
  // regression gate stay comparable across hosts; wide tiers get a
  // _avx2 / _avx512 name suffix, and the `kernel_tiers` config key
  // records which tiers this run measured (the gate skips suffixed
  // baseline rows for tiers the measuring host lacks).
  const std::vector<kernels::KernelTier> tiers = kernels::SupportedTiers();
  {
    std::string tier_list;
    for (const kernels::KernelTier tier : tiers) {
      if (!tier_list.empty()) tier_list += ',';
      tier_list += kernels::TierName(tier);
    }
    json.AddConfig("kernel_tiers", tier_list);
  }
  const struct {
    const char* name;
    int kind;
  } kKernels[] = {{"sqdist", 0}, {"range_count", 1}};
  const size_t tier_passes = tiers.empty() ? 1 : tiers.size();
  for (size_t pass = 0; pass < tier_passes; ++pass) {
    std::string suffix;
    if (!tiers.empty()) {
      kernels::SetActiveTier(tiers[pass]);
      if (tiers[pass] != kernels::KernelTier::kGeneric) {
        suffix = std::string("_") + kernels::TierName(tiers[pass]);
      }
    }
    for (const int dim : {2, 7}) {
      const PointSet points = MakeData(4096, dim);
      const PointSetSoA soa(points);
      const double radius = 1000.0;
      for (const auto& k : kKernels) {
        const KernelNumbers nums = MeasureKernel(points, soa, k.kind, radius);
        const std::string name =
            StrFormat("kernel_%s_dim%d%s", k.name, dim, suffix.c_str());
        json.BeginResult(name);
        emit(name, "scalar_ns_per_point", nums.scalar_ns, "%.2f");
        emit(name, "batch_ns_per_point", nums.batch_ns, "%.2f");
        emit(name, "speedup", nums.speedup(), "%.2fx");
      }
    }
  }
  // Back to the widest tier for the index primitives below, as
  // first-use detection would have chosen.
  if (!tiers.empty()) kernels::SetActiveTier(tiers.back());

  // --- Index primitives (same cases the earlier framework version ran). -
  for (const int64_t n : {int64_t{10000}, int64_t{50000}}) {
    const PointSet ps = MakeData(n);
    const double s = SecondsPerOp([&] {
      KdTree tree(ps);
      Sink(tree.size());
    });
    const std::string name =
        StrFormat("kdtree_build_n%lld", static_cast<long long>(n));
    json.BeginResult(name);
    emit(name, "ns_per_point", 1e9 * s / static_cast<double>(n));
  }
  {
    const PointSet ps = MakeData(20000);
    const KdTree tree(ps);
    for (const double radius : {500.0, 1000.0, 2000.0}) {
      Rng rng(1);
      const double s = SecondsPerOp([&] {
        const PointId q = static_cast<PointId>(
            rng.NextBounded(static_cast<uint64_t>(ps.size())));
        Sink(tree.RangeCount(ps[q], radius) - 1);
      });
      const std::string name = StrFormat("kdtree_range_count_r%.0f", radius);
      json.BeginResult(name);
      emit(name, "us_per_query", 1e6 * s, "%.2f");
    }
    Rng rng(2);
    const double s = SecondsPerOp([&] {
      const PointId q = static_cast<PointId>(
          rng.NextBounded(static_cast<uint64_t>(ps.size())));
      Sink(tree.NearestAccepted(
          ps[q], [q](PointId id) { return id != q; }, nullptr));
    });
    json.BeginResult("kdtree_nearest");
    emit("kdtree_nearest", "us_per_query", 1e6 * s, "%.2f");
  }
  {
    // Range counts at the Household shape the perfbench solve-household7d
    // workload runs (100k 7-D points, d_cut 1000): one point's count-block
    // traversal, the paper's per-point rho query. The solves count rho
    // one joint traversal per leaf instead (ExDpc::ComputeExactRho).
    const PointSet ps = MakeData(100000);
    const KdTree tree(ps);
    for (const double radius : {500.0, 1000.0, 2000.0}) {
      Rng rng(4);
      const double s = SecondsPerOp([&] {
        const PointId q = static_cast<PointId>(
            rng.NextBounded(static_cast<uint64_t>(ps.size())));
        Sink(tree.RangeCount(ps[q], radius) - 1);
      });
      const std::string name =
          StrFormat("kdtree_range_count_dim%d_r%.0f", ps.dim(), radius);
      json.BeginResult(name);
      emit(name, "us_per_query", 1e6 * s, "%.2f");
    }
    // The nearest-denser search every Ex-DPC delta query runs
    // (ExDpc::ExactDeltaFor: NearestAccepted under DenserThan), over the
    // rho a d_cut = 1000 solve gives these points, and a plain nearest
    // neighbour from the same query stream: the gap is what the predicate
    // costs on top of the tree search. Informational.
    std::vector<double> rho(static_cast<size_t>(ps.size()));
    ExDpc::ComputeExactRho(tree, 1000.0, ExecutionContext(cfg.max_threads),
                           &rho);
    std::vector<double> delta(rho.size());
    std::vector<PointId> dependency(rho.size());
    Rng rng(5);
    const double s = SecondsPerOp([&] {
      const PointId q = static_cast<PointId>(
          rng.NextBounded(static_cast<uint64_t>(ps.size())));
      ExDpc::ExactDeltaFor(ps, tree, rho, q, &delta, &dependency);
      Sink(dependency[static_cast<size_t>(q)]);
    });
    const std::string name =
        StrFormat("kdtree_nearest_denser_dim%d", ps.dim());
    json.BeginResult(name);
    emit(name, "us_per_query", 1e6 * s, "%.2f");
    Rng nn_rng(5);
    const double nn_s = SecondsPerOp([&] {
      const PointId q = static_cast<PointId>(
          nn_rng.NextBounded(static_cast<uint64_t>(ps.size())));
      Sink(tree.NearestAccepted(
          ps[q], [q](PointId id) { return id != q; }, nullptr));
    });
    const std::string nn_name = StrFormat("kdtree_nearest_dim%d", ps.dim());
    json.BeginResult(nn_name);
    emit(nn_name, "us_per_query", 1e6 * nn_s, "%.2f");
  }
  {
    // Serial Build against the pool build at the bench thread cap; the
    // two produce the same tree, so the ratio is pure build parallelism.
    const int64_t n = 1000000;
    const PointSet ps = MakeData(n);
    const ExecutionContext exec(cfg.max_threads);
    const double serial_s = SecondsPerOp([&] {
      KdTree tree;
      tree.Build(ps);
      Sink(tree.size());
    });
    const double pool_s = SecondsPerOp([&] {
      KdTree tree;
      tree.Build(ps, exec);
      Sink(tree.size());
    });
    const std::string name =
        StrFormat("kdtree_build_n%lld", static_cast<long long>(n));
    json.BeginResult(name);
    emit(name, "serial_ns_per_point", 1e9 * serial_s / static_cast<double>(n));
    emit(name, "pool_ns_per_point", 1e9 * pool_s / static_cast<double>(n));
    emit(name, "pool_over_serial", pool_s / serial_s, "%.2f");
  }
  {
    const PointSet ps = MakeData(20000);
    const RTree tree(ps);
    Rng rng(3);
    const double s = SecondsPerOp([&] {
      const PointId q = static_cast<PointId>(
          rng.NextBounded(static_cast<uint64_t>(ps.size())));
      Sink(tree.RangeCount(ps[q], 1000.0, q));
    });
    json.BeginResult("rtree_range_count");
    emit("rtree_range_count", "us_per_query", 1e6 * s, "%.2f");
  }
  for (const int64_t n : {int64_t{10000}, int64_t{50000}}) {
    const PointSet ps = MakeData(n);
    const double side = 1000.0 / std::sqrt(static_cast<double>(ps.dim()));
    const double s = SecondsPerOp([&] {
      UniformGrid grid(ps, side);
      Sink(grid.num_cells());
    });
    const std::string name =
        StrFormat("grid_build_n%lld", static_cast<long long>(n));
    json.BeginResult(name);
    emit(name, "ns_per_point", 1e9 * s / static_cast<double>(n));
  }
  {
    // Serial Build against the pool build over the same (id) visit
    // order: the two produce the same grid, so the ratio is pure build
    // parallelism.
    const int64_t n = 1000000;
    const PointSet ps = MakeData(n);
    const double side = 1000.0 / std::sqrt(static_cast<double>(ps.dim()));
    const ExecutionContext exec(cfg.max_threads);
    std::vector<PointId> ids(static_cast<size_t>(n));
    for (PointId i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
    const double serial_s = SecondsPerOp([&] {
      UniformGrid grid;
      grid.Build(ps, side);
      Sink(grid.num_cells());
    });
    const double pool_s = SecondsPerOp([&] {
      UniformGrid grid;
      grid.Build(ps, side, exec, ids);
      Sink(grid.num_cells());
    });
    const std::string name =
        StrFormat("grid_build_n%lld", static_cast<long long>(n));
    json.BeginResult(name);
    emit(name, "serial_ns_per_point", 1e9 * serial_s / static_cast<double>(n));
    emit(name, "pool_ns_per_point", 1e9 * pool_s / static_cast<double>(n));
    emit(name, "pool_over_serial", pool_s / serial_s, "%.2f");
  }
  {
    const PointSet ps = MakeData(20000);
    LshParams params;
    params.num_tables = 4;
    params.num_projections = 6;
    params.bucket_width = 4000.0;
    const double s = SecondsPerOp([&] {
      LshPartitioner lsh(ps, params);
      Sink(lsh.num_buckets());
    });
    json.BeginResult("lsh_partition");
    emit("lsh_partition", "ns_per_point",
         1e9 * s / static_cast<double>(ps.size()));
  }

  table.Print();
  if (args.WantJson()) {
    if (!json.WriteFile(args.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", args.json_path.c_str());
  }
  return 0;
}
