// Table 7 — index memory usage per algorithm per dataset.
//
// Expected shapes (paper): Ex-DPC smallest (one kd-tree); the grid-based
// approximations somewhat larger than Ex-DPC; LSH-DDP larger still;
// CFSFDP-A by far the largest in the paper (its implementation caches
// pivot distance lists; ours stores only per-point pivot distances, so
// the gap is smaller here — noted in EXPERIMENTS.md).
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Table 7", "index memory usage [MB]", cfg);

  std::vector<std::string> headers = {"algorithm"};
  auto workloads = bench::RealWorkloads(cfg);
  for (const auto& w : workloads) headers.push_back(w.name);
  eval::Table table(headers);

  for (const auto id : bench::AllAlgoIds()) {
    if (id == bench::AlgoId::kScan) continue;  // Scan has no index
    std::vector<std::string> cells = {bench::AlgoName(id)};
    for (const auto& w : workloads) {
      const auto run = bench::RunTimed(id, w, cfg, cfg.max_threads);
      double mb =
          static_cast<double>(run.solution.stats.index_memory_bytes) / (1024.0 * 1024.0);
      if (run.extrapolated) {
        // Index memory scales ~linearly with n.
        mb *= static_cast<double>(w.points.size()) / static_cast<double>(run.n_used);
      }
      cells.push_back(StrFormat("%s%.1f", run.extrapolated ? "~" : "", mb));
    }
    table.AddRow(cells);
  }
  table.Print();
  std::printf("\nexpected shape (Table 7): Ex-DPC lowest; Approx/S-Approx add "
              "a grid on top; LSH-DDP adds M bucket tables.\n");
  return 0;
}
