// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Each bench binary reproduces one table or figure of §6 (see the binary
// table in docs/BENCHMARKING.md). They share: the dataset registry (four
// real-like datasets plus the synthetic Syn / S1-S4 families), per-dataset
// default parameters (the paper's defaults), and an algorithm factory.
//
// Environment knobs: DPC_BENCH_SCALE, DPC_BENCH_THREADS, DPC_BENCH_HEAVY
// (see eval/bench_config.h).
#ifndef DPC_BENCH_BENCH_UTIL_H_
#define DPC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "baselines/scan_dpc.h"
#include "core/approx_dpc.h"
#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "data/real_like.h"
#include "eval/bench_config.h"
#include "eval/bench_json.h"
#include "eval/table.h"

namespace dpc::bench {

/// Command-line arguments shared by the bench binaries. Today that is
/// one flag: `--json <path>` writes the machine-readable result document
/// (eval/bench_json.h) alongside the human table on stdout.
struct BenchArgs {
  std::string json_path;  ///< empty = table output only

  bool WantJson() const { return !json_path.empty(); }
};

/// Parses argv; unknown arguments abort with usage (benches take no
/// positional inputs — sizing comes from the DPC_BENCH_* environment).
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Stamps the config block every bench JSON document carries: bench
/// sizing knobs plus the active kernel tier. Machine-identifying fields
/// stay out so committed baselines do not churn (see eval/bench_json.h).
inline void AddStandardConfig(const eval::BenchConfig& cfg,
                              eval::BenchJsonWriter* json) {
  json->AddConfig("kernel_tier", std::string(kernels::ActiveTierName()));
  json->AddConfig("scale", cfg.scale);
  json->AddConfig("max_threads", static_cast<int64_t>(cfg.max_threads));
  json->AddConfig("heavy", static_cast<int64_t>(cfg.heavy ? 1 : 0));
}

/// A dataset plus the paper's default parameters for it.
struct Workload {
  std::string name;
  PointSet points;
  DpcParams params;   ///< d_cut/rho_min/delta_min defaults; threads unset

  Workload() : points(1) {}
};

/// Builds the four real-like workloads at their (scaled) default sizes
/// with the paper's default d_cut (1000/1000/1000/5000).
inline std::vector<Workload> RealWorkloads(const eval::BenchConfig& cfg) {
  std::vector<Workload> out;
  for (const auto& spec : data::RealDatasetSpecs()) {
    Workload w;
    w.name = spec.name;
    w.points = data::MakeRealLike(spec, cfg.Scaled(spec.default_cardinality));
    w.params.d_cut = spec.default_d_cut;
    w.params.rho_min = 10.0;  // the paper's example value (§2.1)
    w.params.delta_min = 5.0 * spec.default_d_cut;
    out.push_back(std::move(w));
  }
  return out;
}

/// The Syn workload (2-d random walk, d_cut = 250 as in Figure 6) at
/// cfg.Scaled(full_cardinality) points.
inline Workload SynWorkload(const eval::BenchConfig& cfg, double noise_rate = 0.01,
                            PointId full_cardinality = 100000) {
  Workload w;
  w.name = "Syn";
  data::RandomWalkParams p;
  p.num_points = cfg.Scaled(full_cardinality);
  p.noise_rate = noise_rate;
  p.seed = 320;
  w.points = data::RandomWalk(p);
  w.params.d_cut = 250.0;
  w.params.rho_min = 10.0;
  w.params.delta_min = 2500.0;
  return w;
}

/// An S1..S4-style workload: 15 Gaussian clusters with growing overlap
/// (index 1..4), 5000 points scaled.
inline Workload SxWorkload(const eval::BenchConfig& cfg, int index) {
  Workload w;
  // Built char-wise: gcc-12 flags string-literal concatenation here with
  // a spurious -Wrestrict.
  w.name.push_back('S');
  w.name += std::to_string(index);
  data::GaussianBenchmarkParams p;
  p.num_points = cfg.Scaled(20000);
  p.num_clusters = 15;
  p.overlap = 0.015 + 0.01 * index;  // S1 mild ... S4 strong
  p.noise_rate = 0.005;
  p.seed = 1600 + static_cast<uint64_t>(index);
  w.points = data::GaussianBenchmark(p);
  w.params.d_cut = 1000.0;
  w.params.rho_min = 5.0;
  w.params.delta_min = 8000.0;
  return w;
}

/// Identifier for each evaluated algorithm, in the paper's order.
enum class AlgoId { kScan, kRtreeScan, kLshDdp, kCfsfdpA, kExDpc, kApproxDpc, kSApproxDpc };

inline const std::vector<AlgoId>& AllAlgoIds() {
  static const std::vector<AlgoId> kIds = {
      AlgoId::kScan,  AlgoId::kRtreeScan,  AlgoId::kLshDdp,    AlgoId::kCfsfdpA,
      AlgoId::kExDpc, AlgoId::kApproxDpc, AlgoId::kSApproxDpc};
  return kIds;
}

inline const char* AlgoName(AlgoId id) {
  switch (id) {
    case AlgoId::kScan:
      return "Scan";
    case AlgoId::kRtreeScan:
      return "R-tree + Scan";
    case AlgoId::kLshDdp:
      return "LSH-DDP";
    case AlgoId::kCfsfdpA:
      return "CFSFDP-A";
    case AlgoId::kExDpc:
      return "Ex-DPC";
    case AlgoId::kApproxDpc:
      return "Approx-DPC";
    case AlgoId::kSApproxDpc:
      return "S-Approx-DPC";
  }
  return "?";
}

inline std::unique_ptr<DpcAlgorithm> MakeAlgo(AlgoId id) {
  switch (id) {
    case AlgoId::kScan:
      return std::make_unique<ScanDpc>();
    case AlgoId::kRtreeScan:
      return std::make_unique<RtreeScanDpc>();
    case AlgoId::kLshDdp:
      return std::make_unique<LshDdp>();
    case AlgoId::kCfsfdpA:
      return std::make_unique<CfsfdpA>();
    case AlgoId::kExDpc:
      return std::make_unique<ExDpc>();
    case AlgoId::kApproxDpc:
      return std::make_unique<ApproxDpc>();
    case AlgoId::kSApproxDpc:
      return std::make_unique<SApproxDpc>();
  }
  return nullptr;
}

/// True for algorithms with an O(n^2) phase that must be capped on this
/// machine unless DPC_BENCH_HEAVY=1 (Scan's density pass and the shared
/// Scan-style dependent pass).
inline bool IsQuadratic(AlgoId id) {
  return id == AlgoId::kScan || id == AlgoId::kRtreeScan || id == AlgoId::kCfsfdpA;
}

/// Runs `algo` on (a possibly sub-sampled copy of) the workload; for
/// quadratic algorithms the input is capped at cfg.QuadraticCap() and the
/// measured time is scaled by (n/capped)^2 to give an honest estimate —
/// the printout marks such rows with '~'. The time is the solve's
/// (solution.compute_cost_seconds); the O(n) label pass is not in it.
struct TimedRun {
  DpcSolution solution;
  Labeling labeling;
  double seconds = 0.0;
  bool extrapolated = false;
  PointId n_used = 0;
  /// (n / n_used)^2 for an extrapolated run, else 1: multiply any of the
  /// solution's phase times by it to put them on the full-n scale.
  double time_scale = 1.0;
};

inline TimedRun RunTimed(AlgoId id, const Workload& w, const eval::BenchConfig& cfg,
                         int threads) {
  TimedRun out;
  const DpcParams params = w.params;
  // All bench runs share the process-wide pool (ExecutionContext's
  // default); `threads` only caps the parallelism degree per run.
  const ExecutionContext ctx(threads);
  const PointId n = w.points.size();
  out.extrapolated = IsQuadratic(id) && n > cfg.QuadraticCap();
  const PointSet sub =
      out.extrapolated
          ? w.points.Sample(static_cast<double>(cfg.QuadraticCap()) /
                                static_cast<double>(n),
                            /*seed=*/97)
          : PointSet(w.points.dim());
  const PointSet& input = out.extrapolated ? sub : w.points;
  out.solution = MakeAlgo(id)->Solve(input, params.compute(), ctx);
  out.labeling = LabelSolution(out.solution, params.threshold());
  out.n_used = input.size();
  const double ratio = static_cast<double>(n) / static_cast<double>(out.n_used);
  out.time_scale = out.extrapolated ? ratio * ratio : 1.0;
  out.seconds = out.solution.compute_cost_seconds * out.time_scale;
  return out;
}

/// Formats seconds with the extrapolation marker used across tables.
inline std::string FmtSeconds(double s, bool extrapolated = false) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.3f", extrapolated ? "~" : "", s);
  return buf;
}

/// Standard banner: what this binary reproduces and at what scale.
inline void PrintBanner(const char* artifact, const char* description,
                        const eval::BenchConfig& cfg) {
  std::printf("=== %s — %s ===\n", artifact, description);
  std::printf("scale=%.2f threads_cap=%d heavy=%d kernels=%s  (set "
              "DPC_BENCH_SCALE / DPC_BENCH_THREADS / DPC_BENCH_HEAVY to "
              "adjust)\n",
              cfg.scale, cfg.max_threads, cfg.heavy ? 1 : 0,
              kernels::DescribeKernels().c_str());
  std::printf("'~' marks O(n^2) baselines measured on a capped sample and "
              "extrapolated quadratically.\n\n");
}

}  // namespace dpc::bench

#endif  // DPC_BENCH_BENCH_UTIL_H_
