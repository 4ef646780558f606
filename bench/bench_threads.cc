// Figure 9 — running time vs number of threads.
//
// Reproduces the thread sweep (the paper uses 1..48 on dual 12-core
// Xeons) on Household, Sensor and Syn (2-D, d_cut 250). One table per
// dataset: a row per algorithm, its wall time at each thread count up to
// DPC_BENCH_THREADS, and its delta-phase time at the largest count.
// Expected shapes on multicore hardware:
//   * Approx-DPC and S-Approx-DPC speed up with threads (their cell loop
//     hands out grains of cells like every other pool loop),
//   * Ex-DPC speeds up in both phases: its exact rho runs one joint
//     range count per kd leaf on the pool, and its dependent phase
//     (ExDpc::ComputeExactDeltas) is a ParallelFor of nearest-denser
//     queries,
//   * LSH-DDP scales irregularly (no load balancing),
//   * Scan/CFSFDP-A remain slowest even with all threads.
//
// Speedups need as many hardware cores as threads: the banner prints the
// hardware thread count, and on fewer cores the rows flatten. The
// per-phase decomposition of Table 6 (bench_decomposed) shows which
// phases are parallelized.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "parallel/omp_utils.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Figure 9", "running time [s] vs number of threads", cfg);
  std::printf("hardware threads available: %d\n\n", HardwareThreads());

  std::vector<int> threads = {1, 2, 4, 8};
  if (cfg.max_threads > 0) {
    threads.erase(std::remove_if(threads.begin(), threads.end(),
                                 [&](int t) { return t > cfg.max_threads; }),
                  threads.end());
    if (threads.empty()) threads.push_back(1);
  }

  // Household-like (the paper's middle case) and Sensor, then the 2-D
  // Syn random walk at perfbench's solve-syn2d size: 1M points at the
  // default scale (0.02), 100k at CI's 0.002 smoke run.
  std::vector<bench::Workload> workloads;
  for (auto& w : bench::RealWorkloads(cfg)) {
    if (w.name == "Household" || w.name == "Sensor") {
      workloads.push_back(std::move(w));
    }
  }
  workloads.push_back(bench::SynWorkload(cfg, /*noise_rate=*/0.01,
                                         /*full_cardinality=*/50000000));
  for (const auto& w : workloads) {
    std::printf("%s (n=%lld)\n", w.name.c_str(), static_cast<long long>(w.points.size()));
    std::vector<std::string> headers = {"algorithm"};
    for (const int t : threads) headers.push_back(StrFormat("t=%d", t));
    headers.push_back("delta phase t=max");
    eval::Table table(headers);

    // One untimed run of the table's first algorithm at the largest
    // thread count: otherwise that row alone pays the workload's
    // first-touch and pool warm-up inside its timed cells.
    bench::RunTimed(bench::AllAlgoIds().front(), w, cfg, threads.back());
    for (const auto id : bench::AllAlgoIds()) {
      std::vector<std::string> cells = {bench::AlgoName(id)};
      std::string last_delta;
      for (const int t : threads) {
        const auto run = bench::RunTimed(id, w, cfg, t);
        cells.push_back(bench::FmtSeconds(run.seconds, run.extrapolated));
        last_delta = bench::FmtSeconds(
            run.solution.stats.delta_seconds * run.time_scale, run.extrapolated);
      }
      cells.push_back(last_delta);
      table.AddRow(cells);
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("expected shape (Figure 9, on real multicore hardware): "
              "Approx/S-Approx near-linear speedup; Ex-DPC speeds up too "
              "(its rho and delta phases both run on the pool); LSH-DDP "
              "irregular. Rows flatten once threads exceed the hardware "
              "threads printed above.\n");
  return 0;
}
