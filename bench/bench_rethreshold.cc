// Re-threshold fast path — not a paper figure: quantifies the
// compute/threshold split that serves the paper's decision-graph
// exploration workload (§2, Figure 1). A user exploring the decision
// graph sweeps delta_min (and rho_min) over one compute configuration;
// with the split, that sweep is one Solve plus K O(n) finalizes instead
// of K full pipelines.
//
// Two CI-enforced gates:
//   1. the cached-solution sweep is >= 20x faster than per-threshold
//      recompute, and
//   2. every finalized labeling is bit-identical to a fresh solve
//      labeled at the same thresholds.
//
// The dataset size is floored at 20k points regardless of
// DPC_BENCH_SCALE: the gate measures a ratio, and at toy sizes the
// finalize pass is all fixed overhead. DPC_BENCH_THREADS applies as
// usual. Exits non-zero if a gate fails, so CI can smoke-run it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/registry.h"
#include "eval/table.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("re-threshold fast path",
                     "one Solve + K finalizes vs K full runs", cfg);

  // S2-style workload, floored at 20k points so the ratio is meaningful.
  eval::BenchConfig floored = cfg;
  floored.scale = std::max(cfg.scale, 1.0);
  bench::Workload w = bench::SxWorkload(floored, 2);
  const ExecutionContext ctx(cfg.max_threads);

  // The thresholds a decision-graph exploration would walk through: a
  // delta_min ladder plus a few rho_min variants.
  std::vector<ThresholdSpec> sweep;
  for (int i = 0; i < 20; ++i) {
    ThresholdSpec spec = w.params.threshold();
    spec.delta_min = w.params.d_cut * (1.5 + 0.5 * i);
    sweep.push_back(spec);
  }
  for (const double rho_min : {2.0, 10.0, 20.0, 40.0}) {
    ThresholdSpec spec = w.params.threshold();
    spec.rho_min = rho_min;
    sweep.push_back(spec);
  }

  bool ok = true;
  eval::Table table({"algorithm", "solve [s]", "sweep cached [ms]",
                     "sweep recompute [s]", "speedup"});
  for (const char* name : {"approx-dpc", "ex-dpc"}) {
    auto algo = MakeAlgorithmByName(name);
    const auto solve_begin = std::chrono::steady_clock::now();
    const DpcSolution solution =
        algo.value()->Solve(w.points, w.params.compute(), ctx);
    const double solve_seconds = Seconds(solve_begin);

    // Cached path: K finalizes against the one solution.
    std::vector<Labeling> cached;
    cached.reserve(sweep.size());
    const auto cached_begin = std::chrono::steady_clock::now();
    for (const ThresholdSpec& spec : sweep) {
      cached.push_back(LabelSolution(solution, spec));
    }
    const double cached_seconds = Seconds(cached_begin);

    // Recompute path: the full pipeline per threshold (what a serving
    // layer without the solution tier would pay), verifying labels
    // bit-identical along the way.
    const auto recompute_begin = std::chrono::steady_clock::now();
    for (size_t k = 0; k < sweep.size(); ++k) {
      const Labeling fresh = LabelSolution(
          algo.value()->Solve(w.points, w.params.compute(), ctx), sweep[k]);
      if (fresh.label != cached[k].label ||
          fresh.centers != cached[k].centers) {
        std::printf("FAIL: %s labels diverge at delta_min=%g rho_min=%g\n",
                    name, sweep[k].delta_min, sweep[k].rho_min);
        ok = false;
      }
    }
    const double recompute_seconds = Seconds(recompute_begin);

    const double speedup =
        recompute_seconds / std::max(cached_seconds, 1e-9);
    table.AddRow({name, bench::FmtSeconds(solve_seconds),
                  StrFormat("%.2f", cached_seconds * 1e3),
                  bench::FmtSeconds(recompute_seconds),
                  StrFormat("%.0fx", speedup)});
    if (speedup < 20.0) {
      std::printf("FAIL: %s cached sweep only %.1fx faster than recompute "
                  "(gate: >= 20x)\n",
                  name, speedup);
      ok = false;
    }
  }
  table.Print();

  if (ok) {
    std::printf("\nPASS: cached-solution threshold sweeps are >= 20x faster "
                "than recompute and bit-identical to fresh runs\n");
  }
  std::printf("\n%s\n", ok ? "bench_rethreshold OK" : "bench_rethreshold FAILED");
  return ok ? 0 : 1;
}
