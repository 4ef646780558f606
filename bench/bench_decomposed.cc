// Table 6 — decomposed running time: local density (rho) vs dependent
// point (delta) computation, per algorithm per dataset.
//
// Expected shapes:
//   * Scan: both phases huge; R-tree+Scan fixes rho but not delta,
//   * CFSFDP-A: rho below Scan's but the same quadratic delta,
//   * Ex-DPC: both phases small; delta no longer dominated by n^2,
//   * Approx-DPC: rho below Ex-DPC's (the paper's §4.2 joint range
//     search) and delta tiny (O(1) approximations + small P'). Here both
//     solves count rho the same way (ExDpc::ComputeExactRho), so their
//     rho phases tie, Approx-DPC's plus its peak snap,
//   * S-Approx-DPC: the smallest rho and delta.
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"

int main() {
  using namespace dpc;
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("Table 6", "decomposed time [s]: rho comp. vs delta comp.", cfg);

  for (auto& w : bench::RealWorkloads(cfg)) {
    std::printf("%s (n=%lld, d_cut=%.0f)\n", w.name.c_str(),
                static_cast<long long>(w.points.size()), w.params.d_cut);
    eval::Table table({"algorithm", "build", "rho comp.", "delta comp.", "total"});
    for (const auto id : bench::AllAlgoIds()) {
      const auto run = bench::RunTimed(id, w, cfg, cfg.max_threads);
      auto full_n = [&](double phase_seconds) {
        return bench::FmtSeconds(phase_seconds * run.time_scale, run.extrapolated);
      };
      table.AddRow({bench::AlgoName(id), full_n(run.solution.stats.build_seconds),
                    full_n(run.solution.stats.rho_seconds),
                    full_n(run.solution.stats.delta_seconds),
                    bench::FmtSeconds(run.seconds, run.extrapolated)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("expected shape (Table 6): Approx-DPC's rho < Ex-DPC's rho "
              "(paper's joint range search; here both share one exact rho, "
              "so they tie); Approx/S-Approx delta phases tiny; "
              "Scan-family delta quadratic.\n");
  return 0;
}
