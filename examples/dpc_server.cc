// dpc_server — a line-protocol driver for the serve/ layer: register
// datasets once, then fire clustering requests at the shared engine and
// read per-request responses (cache hits, deadline outcomes, timings).
//
// Usage:
//   dpc_server [--batch FILE] [--threads N] [--cache-mb N] [--store PATH]
//              [--store-mb N]
//
// --threads is the worker-thread budget (0 = all hardware threads); each
// executor lane runs its solves on its own pool of an even share of it.
// Every number, flag value or request key, must parse whole and fit its
// type: `priority=abc` and `d_cut=5km` are errors, not 0 and 5.
//
// --store points at a persistent solution log (store/solution_store.h):
// computed solutions write through to it, cache evictions demote to it
// instead of discarding, and a RESTARTED server replays it so
// rethreshold/graph requests against pre-restart compute configurations
// are answered warm (finalize-only, zero recomputes). --cache-mb bounds
// the in-memory tier in megabytes (0 disables caching), --store-mb
// bounds the on-disk log (0 = unbounded).
//
// Commands are read from FILE (one per line; '#' starts a comment) or
// interactively from stdin:
//
//   load NAME PATH            register a dataset from CSV (header row ok)
//                             or DPCB binary (by .bin/.dpcb extension)
//   gen NAME N [CLUSTERS] [SEED]
//                             register a generated Gaussian benchmark
//   drop NAME                 unregister a dataset handle
//   run NAME ALGO k=v ...     submit a clustering request. Keys:
//                               d_cut= rho_min= delta_min= epsilon=
//                               deadline_ms= priority=
//                             Any other key is an error.
//                             delta_min defaults to 2*d_cut, rho_min to 10.
//   rethreshold NAME ALGO k=v ...
//                             threshold-only request against the cached
//                             solution of the same compute configuration
//                             (same keys as run); answered synchronously
//                             without touching the thread pool, NOT_FOUND
//                             when the solution cache is cold.
//   graph NAME ALGO k=v ...   top-k gamma = rho*delta points of the cached
//                             solution's decision graph; extra key top_k=
//                             (default 10). Same warm-only contract.
//   wait                      resolve pending requests, print responses
//   stats                     one JSON line: server + cache counters from
//                             ONE coherent snapshot, and the store under
//                             "store" (null without --store)
//   store                     one JSON line of persistent-store occupancy
//                             (log bytes, live solutions, puts, ...)
//   metrics [json]            the server's MetricRegistry: Prometheus
//                             text format (counters, gauges, request-
//                             latency histograms with _p50/_p99/_p999
//                             convenience gauges), or one JSON line with
//                             `json`
//   trace on|off|dump FILE    per-request span tracing: `on` attaches a
//                             fresh trace (queue-wait, cache-probe,
//                             solve with per-phase children, finalize),
//                             `off` detaches it, `dump` writes
//                             everything collected so far as
//                             Chrome trace-event JSON (chrome://tracing)
//   quit                      drain, shut down, exit
//
// Submissions are asynchronous: issuing several `run` lines before `wait`
// queues them for the executor lanes (identical ones compute once, via
// the in-flight map or the cache). EOF implies `wait` + `quit`.
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/kernels.h"
#include "data/generators.h"
#include "data/io.h"
#include "eval/cluster_stats.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace {

struct Pending {
  uint64_t id = 0;
  dpc::serve::RequestKind kind = dpc::serve::RequestKind::kCluster;
  std::string dataset;
  std::string algorithm;
  std::future<dpc::serve::ClusterResponse> future;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--batch FILE] [--threads N] [--cache-mb N] "
               "[--store PATH] [--store-mb N]\n"
               "commands: load NAME PATH | gen NAME N [CLUSTERS] [SEED] | "
               "drop NAME |\n"
               "          run NAME ALGO k=v ... | rethreshold NAME ALGO "
               "k=v ... |\n"
               "          graph NAME ALGO k=v ... top_k=N | wait | stats | "
               "store |\n"
               "          metrics [json] | trace on|off|dump FILE | quit\n",
               argv0);
  return 2;
}

int BadFlag(const char* argv0, const std::string& flag, const char* value) {
  std::fprintf(stderr, "bad value for %s: '%s'\n", flag.c_str(), value);
  return Usage(argv0);
}

/// Splits a command line on whitespace runs.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

void PrintResponse(const Pending& p, const dpc::serve::ClusterResponse& r) {
  const char* kind = dpc::serve::ToString(p.kind);
  if (!r.status.ok()) {
    std::printf("#%llu %s %s %s -> %s (queue %.1fms)\n",
                static_cast<unsigned long long>(p.id), kind, p.dataset.c_str(),
                p.algorithm.c_str(), r.status.ToString().c_str(),
                r.queue_seconds * 1e3);
    return;
  }
  if (p.kind == dpc::serve::RequestKind::kGraph) {
    std::printf("#%llu %s %s %s -> ok: %zu gamma points%s\n",
                static_cast<unsigned long long>(p.id), kind, p.dataset.c_str(),
                p.algorithm.c_str(), r.graph.size(),
                r.cache_hit ? " [cache hit]" : "");
    for (size_t rank = 0; rank < r.graph.size(); ++rank) {
      const dpc::GammaEntry& e = r.graph[rank];
      std::printf("  %2zu. id=%lld rho=%.1f delta=%.6g gamma=%.6g\n", rank + 1,
                  static_cast<long long>(e.id), e.rho, e.delta, e.gamma);
    }
    return;
  }
  const dpc::eval::ClusterSummary summary = dpc::eval::Summarize(*r.result);
  std::printf(
      "#%llu %s %s %s -> ok: %s%s (queue %.1fms, run %.1fms)\n",
      static_cast<unsigned long long>(p.id), kind, p.dataset.c_str(),
      p.algorithm.c_str(), dpc::eval::ToString(summary).c_str(),
      r.cache_hit ? " [cache hit]" : "", r.queue_seconds * 1e3,
      r.run_seconds * 1e3);
}

/// The `stats` line: ONE ServerStats snapshot (whose cache block is one
/// coherent SolutionCache copy — hits + warm + misses == lookups holds
/// in the printed object) rendered as a single JSON line with a fixed
/// key order, so CI sessions parse it instead of grepping free text.
std::string StatsJson(const dpc::serve::ClusterServer& server) {
  const dpc::serve::ServerStats s = server.stats();
  const dpc::serve::SolutionCache::Stats& c = s.cache;
  char buf[1024];
  std::string out;
  std::snprintf(
      buf, sizeof(buf),
      "{\"server\":{\"submitted\":%llu,\"completed\":%llu,"
      "\"cache_hits\":%llu,\"recomputes\":%llu,\"rethreshold_served\":%llu,"
      "\"deadline_exceeded\":%llu,\"errors\":%llu,\"peak_concurrency\":%llu,"
      "\"leases_granted\":%llu,\"lease_width_total\":%llu,"
      "\"kernel_tier\":\"%s\"},",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.recomputes),
      static_cast<unsigned long long>(s.rethreshold_served),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.peak_concurrency),
      static_cast<unsigned long long>(s.leases_granted),
      static_cast<unsigned long long>(s.lease_width_total),
      dpc::kernels::ActiveTierName());
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"cache\":{\"lookups\":%llu,\"solution_hits\":%llu,"
      "\"solution_misses\":%llu,\"warm_misses\":%llu,\"promotions\":%llu,"
      "\"demotions\":%llu,\"insertions\":%llu,\"evictions\":%llu,"
      "\"label_hits\":%llu,\"finalizations\":%llu,\"entries\":%llu,"
      "\"bytes_in_use\":%llu,\"budget_bytes\":%llu},",
      static_cast<unsigned long long>(c.lookups),
      static_cast<unsigned long long>(c.solution_hits),
      static_cast<unsigned long long>(c.solution_misses),
      static_cast<unsigned long long>(c.warm_misses),
      static_cast<unsigned long long>(c.promotions),
      static_cast<unsigned long long>(c.demotions),
      static_cast<unsigned long long>(c.insertions),
      static_cast<unsigned long long>(c.evictions),
      static_cast<unsigned long long>(c.label_hits),
      static_cast<unsigned long long>(c.finalizations),
      static_cast<unsigned long long>(c.entries),
      static_cast<unsigned long long>(c.bytes_in_use),
      static_cast<unsigned long long>(c.budget_bytes));
  out += buf;
  if (server.store() != nullptr) {
    std::snprintf(buf, sizeof(buf), "\"store\":{\"log_bytes\":%llu}}",
                  static_cast<unsigned long long>(s.store_bytes));
    out += buf;
  } else {
    out += "\"store\":null}";
  }
  return out;
}

/// The `store` line: SolutionStore::stats() is already one coherent
/// snapshot under the store's own lock.
std::string StoreJson(const dpc::store::SolutionStore& store) {
  const dpc::store::SolutionStore::Stats t = store.stats();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"path\":\"%s\",\"log_bytes\":%llu,\"live_solutions\":%llu,"
      "\"live_payload_bytes\":%llu,\"puts\":%llu,\"fetches\":%llu,"
      "\"log_reads\":%llu,\"decode_failures\":%llu,"
      "\"compactions\":%llu,\"budget_evictions\":%llu}",
      dpc::JsonEscape(store.path()).c_str(),
      static_cast<unsigned long long>(t.log_bytes),
      static_cast<unsigned long long>(t.live_solutions),
      static_cast<unsigned long long>(t.live_payload_bytes),
      static_cast<unsigned long long>(t.puts),
      static_cast<unsigned long long>(t.fetches),
      static_cast<unsigned long long>(t.log_reads),
      static_cast<unsigned long long>(t.decode_failures),
      static_cast<unsigned long long>(t.compactions),
      static_cast<unsigned long long>(t.budget_evictions));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string batch_path;
  dpc::serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--batch" && i + 1 < argc) {
      batch_path = argv[++i];
    } else if (a == "--threads" && i + 1 < argc) {
      if (!dpc::ParseNumber(argv[++i], &options.pool_threads)) {
        return BadFlag(argv[0], a, argv[i]);
      }
    } else if ((a == "--cache-mb" || a == "--store-mb") && i + 1 < argc) {
      // Megabytes as a uint32: no negative sizes, and the shift to bytes
      // cannot overflow.
      uint32_t mb = 0;
      if (!dpc::ParseNumber(argv[++i], &mb)) return BadFlag(argv[0], a, argv[i]);
      const uint64_t bytes = uint64_t{mb} << 20;
      if (a == "--cache-mb") {
        options.memory_budget_bytes = bytes;
      } else {
        options.disk_budget_bytes = bytes;
      }
    } else if (a == "--store" && i + 1 < argc) {
      options.store_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return Usage(argv[0]);
    }
  }

  std::FILE* in = stdin;
  if (!batch_path.empty()) {
    in = std::fopen(batch_path.c_str(), "r");
    if (in == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", batch_path.c_str());
      return 1;
    }
  }
  // In scripted (batch) mode both command errors and non-OK responses
  // are fatal, so a CI session cannot "pass" with failing requests;
  // interactively everything just prints.
  const bool strict = !batch_path.empty();

  // Banner on stderr: batch-mode stdout stays machine-parseable.
  std::fprintf(stderr, "kernels: %s\n", dpc::kernels::DescribeKernels().c_str());

  dpc::serve::ClusterServer server(options);
  // Survives `trace off` so a later `trace dump` can still export.
  std::shared_ptr<dpc::obs::Trace> trace_handle;
  std::vector<Pending> pending;
  uint64_t next_id = 1;
  int exit_code = 0;

  auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    if (strict) exit_code = 1;
    return strict;  // true = abort the session
  };

  auto wait_all = [&] {
    for (Pending& p : pending) {
      const dpc::serve::ClusterResponse response = p.future.get();
      PrintResponse(p, response);
      if (strict && !response.status.ok()) exit_code = 1;
    }
    pending.clear();
  };

  char buf[4096];
  while (exit_code == 0 && std::fgets(buf, sizeof(buf), in) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    // '#' starts a comment only at the line start or after whitespace,
    // so paths containing '#' survive.
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' &&
          (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) {
        line.resize(i);
        break;
      }
    }
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];

    if (cmd == "load" && tokens.size() == 3) {
      const std::string& name = tokens[1];
      const std::string& path = tokens[2];
      auto loaded = path.ends_with(".bin") || path.ends_with(".dpcb")
                        ? dpc::data::LoadBinary(path)
                        : dpc::data::LoadCsv(path);
      if (!loaded.ok()) {
        if (fail(loaded.status().ToString())) break;
        continue;
      }
      dpc::PointSet points = std::move(loaded).value();
      const long long n = points.size();
      const int dim = points.dim();
      const uint64_t fp = server.datasets().Register(name, std::move(points));
      std::printf("loaded %s: n=%lld dim=%d fingerprint=%016llx\n",
                  name.c_str(), n, dim, static_cast<unsigned long long>(fp));
    } else if (cmd == "gen" && (tokens.size() >= 3 && tokens.size() <= 5)) {
      dpc::data::GaussianBenchmarkParams gen;
      gen.num_clusters = 15;
      gen.seed = 42;
      if (!dpc::ParseNumber(tokens[2], &gen.num_points) ||
          (tokens.size() > 3 && !dpc::ParseNumber(tokens[3], &gen.num_clusters)) ||
          (tokens.size() > 4 && !dpc::ParseNumber(tokens[4], &gen.seed)) ||
          gen.num_points <= 0 || gen.num_clusters <= 0) {
        if (fail("gen needs positive integer N and CLUSTERS and an unsigned "
                 "integer SEED")) {
          break;
        }
        continue;
      }
      const uint64_t fp = server.datasets().Register(
          tokens[1], dpc::data::GaussianBenchmark(gen));
      std::printf("generated %s: n=%lld clusters=%d fingerprint=%016llx\n",
                  tokens[1].c_str(), static_cast<long long>(gen.num_points),
                  gen.num_clusters, static_cast<unsigned long long>(fp));
    } else if (cmd == "drop" && tokens.size() == 2) {
      std::printf("drop %s: %s\n", tokens[1].c_str(),
                  server.datasets().Unregister(tokens[1]) ? "ok" : "unknown");
    } else if ((cmd == "run" || cmd == "rethreshold" || cmd == "graph") &&
               tokens.size() >= 3) {
      dpc::serve::ClusterRequest request;
      request.kind = cmd == "run" ? dpc::serve::RequestKind::kCluster
                     : cmd == "rethreshold"
                         ? dpc::serve::RequestKind::kRethreshold
                         : dpc::serve::RequestKind::kGraph;
      request.dataset = tokens[1];
      request.algorithm = tokens[2];
      request.params.rho_min = 10.0;
      request.params.delta_min = 0.0;  // defaulted below once d_cut is known
      std::string bad;
      for (size_t t = 3; t < tokens.size(); ++t) {
        const size_t eq = tokens[t].find('=');
        if (eq == std::string::npos || eq == 0) {
          bad = "'" + tokens[t] + "' is not key=value";
          break;
        }
        const std::string key = tokens[t].substr(0, eq);
        const std::string value = tokens[t].substr(eq + 1);
        bool parsed = true;
        if (key == "d_cut") {
          parsed = dpc::ParseNumber(value, &request.params.d_cut);
        } else if (key == "rho_min") {
          parsed = dpc::ParseNumber(value, &request.params.rho_min);
        } else if (key == "delta_min") {
          parsed = dpc::ParseNumber(value, &request.params.delta_min);
        } else if (key == "epsilon") {
          parsed = dpc::ParseNumber(value, &request.params.epsilon);
        } else if (key == "deadline_ms") {
          // An int of milliseconds: the steady_clock conversion cannot
          // overflow.
          int ms = 0;
          parsed = dpc::ParseNumber(value, &ms);
          request.deadline = std::chrono::milliseconds(ms);
        } else if (key == "priority") {
          parsed = dpc::ParseNumber(value, &request.priority);
        } else if (key == "top_k" &&
                   request.kind == dpc::serve::RequestKind::kGraph) {
          parsed = dpc::ParseNumber(value, &request.graph_top_k);
        } else {
          bad = "unknown key '" + key +
                "' (expected d_cut, rho_min, delta_min, epsilon, "
                "deadline_ms, priority, or top_k (graph))";
          break;
        }
        if (!parsed) {
          bad = "bad value for " + key + ": '" + value + "'";
          break;
        }
      }
      if (!bad.empty()) {
        if (fail(bad)) break;
        continue;
      }
      if (request.params.delta_min <= 0.0) {
        request.params.delta_min = 2.0 * request.params.d_cut;
      }
      Pending p;
      p.id = next_id++;
      p.kind = request.kind;
      p.dataset = request.dataset;
      p.algorithm = request.algorithm;
      p.future = server.Submit(std::move(request));
      pending.push_back(std::move(p));
    } else if (cmd == "wait" && tokens.size() == 1) {
      wait_all();
    } else if (cmd == "stats" && tokens.size() == 1) {
      std::printf("%s\n", StatsJson(server).c_str());
    } else if (cmd == "store" && tokens.size() == 1) {
      if (server.store() == nullptr) {
        if (fail("no store attached (run with --store PATH)")) break;
        continue;
      }
      std::printf("%s\n", StoreJson(*server.store()).c_str());
    } else if (cmd == "metrics" &&
               (tokens.size() == 1 ||
                (tokens.size() == 2 && tokens[1] == "json"))) {
      const std::vector<dpc::obs::MetricSample> samples =
          server.metrics().Snapshot();
      if (tokens.size() == 2) {
        std::printf("%s\n", dpc::obs::ToJson(samples).c_str());
      } else {
        std::fputs(dpc::obs::ToPrometheusText(samples).c_str(), stdout);
      }
    } else if (cmd == "trace" && tokens.size() >= 2) {
      if (tokens[1] == "on" && tokens.size() == 2) {
        if (trace_handle == nullptr) {
          trace_handle = std::make_shared<dpc::obs::Trace>();
        }
        server.set_trace(trace_handle);
        std::printf("trace on\n");
      } else if (tokens[1] == "off" && tokens.size() == 2) {
        // Keep the handle so `trace dump` still works after `off`.
        server.set_trace(nullptr);
        std::printf("trace off\n");
      } else if (tokens[1] == "dump" && tokens.size() == 3) {
        if (trace_handle == nullptr) {
          if (fail("no trace captured (use `trace on` first)")) break;
          continue;
        }
        const std::string json = trace_handle->ToChromeJson();
        std::FILE* out = std::fopen(tokens[2].c_str(), "w");
        if (out == nullptr) {
          if (fail("cannot open " + tokens[2] + " for writing")) break;
          continue;
        }
        std::fwrite(json.data(), 1, json.size(), out);
        std::fclose(out);
        std::printf("trace dump %s: %zu spans\n", tokens[2].c_str(),
                    trace_handle->size());
      } else {
        if (fail("trace needs on, off, or dump FILE")) break;
      }
    } else if (cmd == "quit" && tokens.size() == 1) {
      break;
    } else {
      if (fail("unknown or malformed command: '" + line + "'")) break;
    }
  }

  wait_all();
  server.Shutdown();
  if (in != stdin) std::fclose(in);
  return exit_code;
}
