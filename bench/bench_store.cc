// Warm-restart serving through the persistent solution store — not a
// paper figure: quantifies the store/ tentpole. A server with a store
// attached writes every computed DpcSolution through to the append-only
// log; after a restart (process death included — the log is the only
// state that survives), a re-threshold request promotes the solution
// back from disk and finalizes it in O(n), instead of re-running the
// clustering pipeline.
//
// Three CI-enforced gates:
//   1. the restarted server answers a threshold sweep >= 10x faster than
//      per-threshold recompute would,
//   2. every warm answer is bit-identical to the labels the FIRST server
//      served before the restart (decode -> finalize can never diverge
//      from in-memory -> finalize), and
//   3. the restarted server's recompute counter stays at ZERO — warm
//      means promoted, never re-solved.
//
// The dataset is floored at 20k points regardless of DPC_BENCH_SCALE
// (the gate measures a ratio; at toy sizes the finalize pass is all
// fixed overhead). Exits non-zero if a gate fails.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/registry.h"
#include "eval/table.h"
#include "serve/request.h"
#include "serve/server.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpc;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const eval::BenchConfig cfg = eval::LoadBenchConfig();
  bench::PrintBanner("persistent solution store",
                     "warm restart: promote + finalize vs recompute", cfg);

  eval::BenchConfig floored = cfg;
  floored.scale = std::max(cfg.scale, 1.0);
  const bench::Workload w = bench::SxWorkload(floored, 2);

  const std::string store_path =
      "/tmp/dpc_bench_store_" + std::to_string(::getpid()) + ".log";
  std::remove(store_path.c_str());

  // The threshold ladder a decision-graph exploration would walk after
  // the restart.
  std::vector<ThresholdSpec> sweep;
  for (int i = 0; i < 8; ++i) {
    ThresholdSpec spec = w.params.threshold();
    spec.delta_min = w.params.d_cut * (1.5 + 0.5 * i);
    sweep.push_back(spec);
  }

  auto make_request = [&](const ThresholdSpec& spec) {
    serve::ClusterRequest request;
    request.dataset = w.name;
    request.algorithm = "ex-dpc";
    request.params = w.params;
    request.params.rho_min = spec.rho_min;
    request.params.delta_min = spec.delta_min;
    request.kind = serve::RequestKind::kRethreshold;
    return request;
  };

  serve::ServerOptions options;
  options.pool_threads = cfg.max_threads;
  options.store_path = store_path;

  // ---- Phase 1: a server computes once, serves the sweep, and dies.
  // Only the log survives it.
  std::vector<std::vector<int64_t>> labels_before;
  double solve_seconds = 0.0;
  uint64_t store_bytes = 0;
  {
    serve::ClusterServer server(options);
    server.datasets().Register(w.name, w.points);
    serve::ClusterRequest compute;
    compute.dataset = w.name;
    compute.algorithm = "ex-dpc";
    compute.params = w.params;
    const auto solve_begin = std::chrono::steady_clock::now();
    const auto computed = server.Submit(compute).get();
    solve_seconds = Seconds(solve_begin);
    if (!computed.status.ok()) {
      std::printf("FAIL: compute request: %s\n",
                  computed.status.ToString().c_str());
      return 1;
    }
    for (const ThresholdSpec& spec : sweep) {
      const auto r = server.Submit(make_request(spec)).get();
      if (!r.status.ok()) {
        std::printf("FAIL: pre-restart rethreshold: %s\n",
                    r.status.ToString().c_str());
        return 1;
      }
      labels_before.push_back(r.result->label);
    }
    store_bytes = server.stats().store_bytes;
  }

  // ---- Phase 2: a fresh server over the same log answers the same
  // sweep warm. The first request pays the promotion (log read + decode);
  // the rest are label-memo-free finalizes against the promoted artifact.
  bool ok = true;
  double warm_seconds = 0.0;
  uint64_t warm_promotions = 0;
  uint64_t warm_recomputes = 0;
  {
    serve::ClusterServer server(options);
    server.datasets().Register(w.name, w.points);
    const auto warm_begin = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<const Labeling>> warm;
    for (const ThresholdSpec& spec : sweep) {
      const auto r = server.Submit(make_request(spec)).get();
      if (!r.status.ok()) {
        std::printf("FAIL: warm rethreshold after restart: %s\n",
                    r.status.ToString().c_str());
        return 1;
      }
      warm.push_back(r.result);
    }
    warm_seconds = Seconds(warm_begin);
    const serve::ServerStats stats = server.stats();
    warm_promotions = stats.promotions;
    warm_recomputes = stats.recomputes;
    if (stats.recomputes != 0) {
      std::printf("FAIL: restarted server recomputed %llu times (gate: 0)\n",
                  static_cast<unsigned long long>(stats.recomputes));
      ok = false;
    }
    if (stats.promotions < 1) {
      std::printf("FAIL: restarted server never promoted from the store\n");
      ok = false;
    }
    // Gate 2: promotion is bit-identical to the in-memory answers.
    for (size_t k = 0; k < sweep.size(); ++k) {
      if (warm[k]->label != labels_before[k]) {
        std::printf("FAIL: warm labels diverge at delta_min=%g\n",
                    sweep[k].delta_min);
        ok = false;
      }
    }
  }

  // ---- Baseline: what the sweep costs without the store — a full
  // pipeline per threshold against the same dataset.
  auto algo = MakeAlgorithmByName("ex-dpc");
  const ExecutionContext ctx(cfg.max_threads);
  const auto recompute_begin = std::chrono::steady_clock::now();
  for (const ThresholdSpec& spec : sweep) {
    (void)LabelSolution(algo.value()->Solve(w.points, w.params.compute(), ctx),
                        spec);
  }
  const double recompute_seconds = Seconds(recompute_begin);

  const double speedup = recompute_seconds / std::max(warm_seconds, 1e-9);
  eval::Table table({"phase", "seconds", "notes"});
  table.AddRow({"solve (phase 1)", bench::FmtSeconds(solve_seconds),
                "one Ex-DPC compute, written through to the log"});
  table.AddRow({"warm sweep (restarted)", bench::FmtSeconds(warm_seconds),
                StrFormat("%zu thresholds, %llu promotion(s), %llu recomputes",
                          sweep.size(),
                          static_cast<unsigned long long>(warm_promotions),
                          static_cast<unsigned long long>(warm_recomputes))});
  table.AddRow({"recompute sweep", bench::FmtSeconds(recompute_seconds),
                StrFormat("%.0fx slower than warm", speedup)});
  table.Print();
  std::printf("store log: %llu bytes on disk\n",
              static_cast<unsigned long long>(store_bytes));

  if (speedup < 10.0) {
    std::printf("FAIL: warm restart only %.1fx faster than recompute "
                "(gate: >= 10x)\n",
                speedup);
    ok = false;
  }

  if (args.WantJson()) {
    eval::BenchJsonWriter json("bench_store");
    bench::AddStandardConfig(cfg, &json);
    json.AddConfig("dataset", w.name);
    json.AddConfig("sweep_size", static_cast<int64_t>(sweep.size()));
    json.BeginResult("warm_restart");
    json.AddMetric("solve_seconds", solve_seconds);
    json.AddMetric("warm_sweep_seconds", warm_seconds);
    json.AddMetric("recompute_sweep_seconds", recompute_seconds);
    json.AddMetric("speedup", speedup);
    json.AddMetric("promotions", static_cast<double>(warm_promotions));
    json.AddMetric("recomputes", static_cast<double>(warm_recomputes));
    json.AddMetric("store_bytes", static_cast<double>(store_bytes));
    if (!json.WriteFile(args.json_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }

  std::remove(store_path.c_str());
  if (ok) {
    std::printf("\nPASS: a restarted server answers threshold sweeps "
                ">= 10x faster than recompute, promoting bit-identical "
                "solutions from the log with zero recomputes\n");
  }
  std::printf("\n%s\n", ok ? "bench_store OK" : "bench_store FAILED");
  return ok ? 0 : 1;
}
