// perfbench — the repository benchmark. It drives the library from the
// outside, through its public entry points only:
//
//   solve-syn2d, solve-household7d
//       DpcAlgorithm::Solve + LabelSolution for Ex-DPC, Approx-DPC and
//       S-Approx-DPC, repeated after one warm-up solve each.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 attaches obs::Trace,
// times standalone calls into each layer (ClusterServer::Submit included)
// on the workload's own data and prints the per-layer metrics. The last
// stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// README.md in this directory maps every metric to its layer.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/approx_dpc.h"
#include "core/dpc.h"
#include "core/ex_dpc.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "core/s_approx_dpc.h"
#include "core/soa.h"
#include "data/generators.h"
#include "data/real_like.h"
#include "eval/rand_index.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "obs/trace.h"
#include "parallel/execution_context.h"
#include "parallel/omp_utils.h"
#include "serve/request.h"
#include "serve/server.h"
#include "store/solution_format.h"
#include "store/solution_store.h"

namespace {

using dpc::PointId;
using dpc::PointSet;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  ///< dataset-size multiplier (tiny for self-tests)
};

/// Store logs live here, inside the checkout the benchmark runs from.
constexpr const char* kScratchDir = ".bench_build/perfbench-scratch";

/// Keeps a probe's result observable so its loop is not optimized away.
template <class T>
void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// ---------------------------------------------------------------- stats

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double TimeMedian(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    f();
    t.push_back(SecondsSince(start));
  }
  return Median(t);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;
}

PointId Scaled(PointId n, double scale) {
  return std::max<PointId>(200, static_cast<PointId>(std::llround(
                                    static_cast<double>(n) * scale)));
}

/// Total length of the union of [start, end) intervals.
double UnionSeconds(std::vector<std::pair<uint64_t, uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  uint64_t total = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [s, e] : spans) {
    if (!open || s > hi) {
      if (open) total += hi - lo;
      lo = s;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) total += hi - lo;
  return static_cast<double>(total) * 1e-9;
}

// --------------------------------------------------------------- report

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// One checked operation; a false `ok` counts as failed.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }

  void Print() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit);
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------- data

enum class Shape { kSyn, kHousehold };

/// The paper's 2-D Syn random walk (Figure 6), 1% uniform noise.
PointSet SynPoints(PointId n, uint64_t seed) {
  dpc::data::RandomWalkParams p;
  p.num_points = n;
  p.noise_rate = 0.01;
  p.seed = seed;
  return dpc::data::RandomWalk(p);
}

/// The Household-like 7-D stand-in (data/real_like.h).
PointSet HouseholdPoints(PointId n, uint64_t seed) {
  return dpc::data::MakeRealLike(dpc::data::RealDatasetSpecByName("Household"), n,
                                 seed);
}

PointSet MakePoints(Shape shape, PointId n, uint64_t seed) {
  switch (shape) {
    case Shape::kSyn:
      return SynPoints(n, seed);
    case Shape::kHousehold:
      return HouseholdPoints(n, seed);
  }
  return PointSet(1);
}

void PrintInputFingerprint(const PointSet& points) {
  std::printf("input_fingerprint=%016" PRIx64 "\n", dpc::FingerprintPoints(points));
}

// -------------------------------------------------------- solve workloads

struct SolveWorkload {
  PointId n;
  Shape shape;
  double d_cut, rho_min, delta_min;
};

struct Algo {
  const char* tag;
  std::unique_ptr<dpc::DpcAlgorithm> impl;
};

std::vector<Algo> PaperAlgorithms() {
  std::vector<Algo> algos;
  algos.push_back({"exdpc", std::make_unique<dpc::ExDpc>()});
  algos.push_back({"approx", std::make_unique<dpc::ApproxDpc>()});
  algos.push_back({"sapprox", std::make_unique<dpc::SApproxDpc>()});
  return algos;
}

bool SameLabels(const dpc::Labeling& a, const dpc::Labeling& b) {
  return a.label == b.label && a.centers == b.centers;
}

/// store: a write-through append and a log read + decode of `solution`
/// on a scratch store. Each fetch follows a put of the same key, which
/// drops any decoded copy the store kept, so every fetch reads the log.
/// Returns log bytes per put.
double ProbeStore(const dpc::DpcSolution& solution, Report* report) {
  std::filesystem::create_directories(kScratchDir);
  const std::string path = std::string(kScratchDir) + "/probe-store.log";
  std::filesystem::remove(path);
  double bytes_per_put = 0.0;
  {
    auto opened = dpc::store::SolutionStore::Open(path);
    report->Check(opened.ok(), "open probe store");
    if (opened.ok()) {
      dpc::store::SolutionStore& st = *opened.value();
      constexpr int kReps = 3;
      std::vector<double> put_s, fetch_s;
      std::shared_ptr<const dpc::DpcSolution> fetched;
      for (int r = 0; r < kReps; ++r) {
        auto start = Clock::now();
        report->Check(st.Put("probe", solution).ok(), "store put");
        put_s.push_back(SecondsSince(start));
        start = Clock::now();
        fetched = st.Fetch("probe");
        fetch_s.push_back(SecondsSince(start));
      }
      report->Add("store.put_s", Median(put_s), "s");
      report->Add("store.fetch_s", Median(fetch_s), "s");
      report->Check(fetched != nullptr && fetched->rho == solution.rho &&
                        fetched->dependency == solution.dependency,
                    "store round trip");
      bytes_per_put = static_cast<double>(st.stats().log_bytes) / kReps;
    }
  }
  std::filesystem::remove(path);
  return bytes_per_put;
}

/// Traced-run probes: standalone calls into index, kernels, core's stamp
/// helpers, Approx-DPC's subset search and the store, on the workload's
/// own data.
void ProbeLayers(const Options& opt, const SolveWorkload& w, const PointSet& points,
                 const dpc::ExecutionContext& ctx,
                 const std::vector<dpc::DpcSolution>& ref_sol,
                 const dpc::ThresholdSpec& threshold, double approx_delta_s,
                 Report* report) {
  const PointId n = points.size();
  const int dim = points.dim();
  const std::vector<double>& ex_rho = ref_sol[0].rho;

  report->Add("core.label_s",
              TimeMedian(5, [&] { (void)dpc::LabelSolution(ref_sol[0], threshold); }),
              "s");

  // index: kd-tree build, per-query range count and nearest-denser search.
  dpc::KdTree tree;
  report->Add("index.kdtree_build_s", TimeMedian(3, [&] { tree.Build(points); }), "s");
  dpc::Rng rng(Mix(opt.seed, 0x9be5));
  const PointId queries = std::min<PointId>(2000, n);
  std::vector<PointId> ids(static_cast<size_t>(queries));
  for (PointId& id : ids) {
    id = static_cast<PointId>(rng.NextBelow(static_cast<uint64_t>(n)));
  }
  int64_t sink = 0;
  auto start = Clock::now();
  for (const PointId i : ids) sink += tree.RangeCount(points[i], w.d_cut);
  report->Add("index.range_count_us",
              SecondsSince(start) * 1e6 / static_cast<double>(queries), "us");
  size_t delta_mismatches = 0;
  start = Clock::now();
  for (const PointId i : ids) {
    const size_t si = static_cast<size_t>(i);
    double dist = 0.0;
    tree.NearestAccepted(
        points[i],
        [&ex_rho, i, si](PointId j) {
          return dpc::DenserThan(ex_rho[static_cast<size_t>(j)], j, ex_rho[si], i);
        },
        &dist);
    if (dist != ref_sol[0].delta[si]) ++delta_mismatches;
  }
  report->Add("index.nearest_denser_us",
              SecondsSince(start) * 1e6 / static_cast<double>(queries), "us");
  report->Check(delta_mismatches == 0, "NearestAccepted reproduces Ex-DPC delta");

  dpc::UniformGrid grid;
  const double side = w.d_cut / std::sqrt(static_cast<double>(dim));
  report->Add("index.grid_build_s", TimeMedian(3, [&] { grid.Build(points, side); }),
              "s");
  report->Add("index.grid_cells", static_cast<double>(grid.num_cells()), "count");
  report->Add("index.points_per_cell",
              static_cast<double>(n) / static_cast<double>(grid.num_cells()), "count");

  // kernels: one 4096-point SoA block per query, on the active tier.
  const dpc::PointSetSoA soa(points);
  const PointId block = std::min<PointId>(4096, n);
  const PointId kernel_queries = 512;
  start = Clock::now();
  for (PointId q = 0; q < kernel_queries; ++q) {
    sink += dpc::kernels::RangeCountBatch(soa, 0, block, points[q % n],
                                          w.d_cut * w.d_cut);
  }
  const double kernel_points = static_cast<double>(kernel_queries * block);
  report->Add("kernels.range_count_ns_per_point",
              SecondsSince(start) * 1e9 / kernel_points, "ns");
  std::vector<double> out(static_cast<size_t>(block));
  double dsink = 0.0;
  start = Clock::now();
  for (PointId q = 0; q < kernel_queries; ++q) {
    dpc::kernels::SquaredDistanceBatch(soa, 0, block, points[q % n], out.data());
    dsink += out[static_cast<size_t>(q % block)];
  }
  report->Add("kernels.sqdist_ns_per_point", SecondsSince(start) * 1e9 / kernel_points,
              "ns");

  // core stamp helpers.
  uint64_t hsink = 0;
  report->Add("core.stamp.fingerprint_s",
              TimeMedian(3, [&] { hsink ^= dpc::FingerprintPoints(points); }), "s");
  report->Add("core.stamp.density_order_s",
              TimeMedian(3, [&] { sink += dpc::DensityOrder(ex_rho).front(); }), "s");

  // Approx-DPC: cell peaks from its own rho, then the subset search alone.
  const dpc::DpcSolution& approx = ref_sol[1];
  std::vector<PointId> peaks;
  peaks.reserve(static_cast<size_t>(grid.num_cells()));
  for (dpc::CellId c = 0; c < grid.num_cells(); ++c) {
    const std::vector<PointId>& members = grid.members(c);
    PointId peak = members.front();
    for (const PointId i : members) {
      if (dpc::DenserThan(approx.rho[static_cast<size_t>(i)], i,
                          approx.rho[static_cast<size_t>(peak)], peak)) {
        peak = i;
      }
    }
    peaks.push_back(peak);
  }
  std::vector<double> delta = approx.delta;
  std::vector<PointId> dependency = approx.dependency;
  const double subset_s = TimeMedian(3, [&] {
    dpc::ApproxDpc::ComputePeakDeltasBySubsets(points, approx.rho, peaks,
                                               dpc::ApproxDpc::SolveNumSubsets(n, dim),
                                               ctx, &delta, &dependency);
  });
  report->Check(delta == approx.delta && dependency == approx.dependency,
                "subset search reproduces Approx-DPC peak deltas");
  report->Add("core.approx.peaks", static_cast<double>(peaks.size()), "count");
  report->Add("core.approx.subset_search_s", subset_s, "s");
  report->Add("core.approx.peak_snap_s", approx_delta_s - subset_s, "s");

  report->Add("store.log_bytes", ProbeStore(ref_sol[0], report), "bytes");
  KeepAlive(sink);
  KeepAlive(dsink);
  KeepAlive(hsink);
}

// ----------------------------------------------------------- serve probe

using dpc::serve::ClusterRequest;
using dpc::serve::ClusterResponse;
using dpc::serve::ClusterServer;
using dpc::serve::RequestKind;

constexpr int kThresholdLadder = 24;  // wider than labelings_per_solution (16)
constexpr int kServeRounds = 4;
constexpr int kRethresholdsPerVisit = 8;

/// The two served solution keys; `ref` indexes the direct warm-up solves.
struct ServeKey {
  const char* algorithm;
  size_t ref;
};
constexpr ServeKey kServeKeys[] = {{"ex-dpc", 0}, {"approx-dpc", 1}};

dpc::ThresholdSpec LadderThreshold(double d_cut, int rung) {
  return dpc::ThresholdSpec{.rho_min = 10.0, .delta_min = d_cut * (4.0 + rung)};
}

class ZipfSampler {
 public:
  ZipfSampler(int n, double s) {
    double total = 0.0;
    for (int k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(dpc::Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ServeStep {
  RequestKind kind;
  int key;      ///< into kServeKeys
  int rung;     ///< threshold ladder rung
  bool verify;  ///< compare the served labels with a direct LabelSolution
};

/// The closed-loop request sequence, built from the seed alone: one cold
/// cluster request per key, then rounds that visit each key in turn with
/// rethresholds over a Zipf threshold ladder, one decision graph and one
/// warm cluster request.
std::vector<ServeStep> ServeSequence(uint64_t seed) {
  dpc::Rng rng(Mix(seed, 0x5e7e));
  const ZipfSampler rungs(kThresholdLadder, 0.8);
  std::vector<ServeStep> steps = {{RequestKind::kCluster, 0, 0, true},
                                  {RequestKind::kCluster, 1, 0, true}};
  for (int r = 0; r < kServeRounds; ++r) {
    for (int k = 0; k < 2; ++k) {
      for (int j = 0; j < kRethresholdsPerVisit; ++j) {
        steps.push_back({RequestKind::kRethreshold, k, rungs.Sample(rng),
                         rng.NextBelow(8) == 0});
      }
      steps.push_back({RequestKind::kGraph, k, 0, false});
      steps.push_back(
          {RequestKind::kCluster, k, rungs.Sample(rng), rng.NextBelow(2) == 0});
    }
  }
  return steps;
}

struct ServePass {
  std::vector<double> cold, cold_run, warm_cluster, rethreshold, graph, promoting, queue;
  dpc::serve::ServerStats stats;
};

/// Runs the sequence against a fresh server on a fresh store. The memory
/// budget holds one solution but not two, so every visit to the other key
/// demotes the resident solution and promotes the visited one from the
/// store; in a closed loop every count repeats exactly for a seed.
ServePass RunServePass(const SolveWorkload& w, const PointSet& points,
                       const std::vector<dpc::DpcSolution>& ref_sol,
                       const std::vector<ServeStep>& steps,
                       std::shared_ptr<dpc::obs::Trace> trace, const char* store_name,
                       Report* report) {
  std::filesystem::create_directories(kScratchDir);
  const std::string path = std::string(kScratchDir) + "/" + store_name;
  std::filesystem::remove(path);
  dpc::serve::ServerOptions o;
  o.pool_threads = dpc::HardwareThreads();
  o.store_path = path;
  o.memory_budget_bytes = std::max(dpc::store::SerializedSolutionBytes(ref_sol[0]),
                                   dpc::store::SerializedSolutionBytes(ref_sol[1])) *
                          3 / 2;
  ServePass pass;
  {
    ClusterServer server(o);
    server.datasets().Register("bench", points);
    server.set_trace(std::move(trace));
    for (const ServeStep& s : steps) {
      const ServeKey& key = kServeKeys[s.key];
      ClusterRequest req;
      req.kind = s.kind;
      req.dataset = "bench";
      req.algorithm = key.algorithm;
      const dpc::ThresholdSpec t = LadderThreshold(w.d_cut, s.rung);
      req.params.d_cut = w.d_cut;
      req.params.rho_min = t.rho_min;
      req.params.delta_min = t.delta_min;
      req.graph_top_k = 20;
      const uint64_t promotions = server.stats().promotions;
      const auto start = Clock::now();
      const ClusterResponse r = server.Submit(std::move(req)).get();
      const double latency = SecondsSince(start);
      const size_t n = static_cast<size_t>(points.size());
      const bool ok =
          r.status.ok() && (s.kind == RequestKind::kGraph
                                ? !r.graph.empty()
                                : r.result != nullptr && r.result->label.size() == n);
      report->Check(ok, std::string("served ") + dpc::serve::ToString(s.kind) + " " +
                            key.algorithm);
      if (ok && s.verify) {
        const dpc::Labeling direct = dpc::LabelSolution(ref_sol[key.ref], t);
        report->Check(
            r.result->label == direct.label && r.result->centers == direct.centers,
            std::string("served labels equal a direct solve, ") + key.algorithm);
      }
      if (s.kind == RequestKind::kCluster) pass.queue.push_back(r.queue_seconds);
      if (server.stats().promotions != promotions) {
        pass.promoting.push_back(latency);
      } else if (s.kind == RequestKind::kRethreshold) {
        pass.rethreshold.push_back(latency);
      } else if (s.kind == RequestKind::kGraph) {
        pass.graph.push_back(latency);
      } else if (r.run_seconds > 0.0) {
        pass.cold.push_back(latency);
        pass.cold_run.push_back(r.run_seconds);
      } else {
        pass.warm_cluster.push_back(latency);
      }
    }
    pass.stats = server.stats();
  }
  std::filesystem::remove(path);
  return pass;
}

/// Self time per span name, and the share of each request's latency
/// (admission to its last child) that its child spans cover.
void ReportSpans(const dpc::obs::Trace& trace, Report* report) {
  const std::vector<dpc::obs::SpanRecord> spans = trace.Snapshot();
  std::map<uint64_t, std::vector<const dpc::obs::SpanRecord*>> children;
  for (const auto& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  double covered = 0.0, latency = 0.0;
  for (const auto& s : spans) {
    std::vector<std::pair<uint64_t, uint64_t>> kids;
    std::vector<std::pair<uint64_t, uint64_t>> clipped;
    uint64_t lo = s.start_ns, hi = s.end_ns;
    for (const auto* c : children[s.id]) {
      kids.push_back({c->start_ns, c->end_ns});
      const uint64_t cs = std::max(c->start_ns, s.start_ns);
      const uint64_t ce = std::min(c->end_ns, s.end_ns);
      if (ce > cs) clipped.push_back({cs, ce});
      lo = std::min(lo, c->start_ns);
      hi = std::max(hi, c->end_ns);
    }
    self[s.name] += s.duration_seconds() - UnionSeconds(clipped);
    if (s.parent == 0 && std::strcmp(s.name, "request") == 0) {
      covered += UnionSeconds(kids);
      latency += static_cast<double>(hi - lo) * 1e-9;
    }
  }
  for (const char* name : {"queue-wait", "cache-probe", "lease-wait", "solve",
                           "cache-insert", "finalize", "rethreshold-finalize"}) {
    report->Add(std::string("serve.span.") + name + "_s", self[name], "s");
  }
  report->Add("obs.request_span_coverage", latency > 0.0 ? covered / latency : 0.0,
              "ratio");
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// serve: the sequence runs twice on fresh servers, untraced and then with
/// ClusterServer::set_trace. Latencies and counts come from the untraced
/// pass, span self times from the traced one, and obs.trace_overhead
/// compares the two rethreshold p50s.
void ProbeServe(const Options& opt, const SolveWorkload& w, const PointSet& points,
                const std::vector<dpc::DpcSolution>& ref_sol, Report* report) {
  const std::vector<ServeStep> steps = ServeSequence(opt.seed);
  const ServePass pass =
      RunServePass(w, points, ref_sol, steps, nullptr, "serve-a.log", report);
  auto trace = std::make_shared<dpc::obs::Trace>();
  const ServePass traced =
      RunServePass(w, points, ref_sol, steps, trace, "serve-b.log", report);
  ReportSpans(*trace, report);
  report->Add("obs.trace_overhead",
              Median(traced.rethreshold) / Median(pass.rethreshold) - 1.0, "ratio");

  report->Add("serve.cold_cluster_s", Median(pass.cold), "s");
  report->Add("serve.cold_run_s", Median(pass.cold_run), "s");
  report->Add("serve.warm_cluster_p50_s", Median(pass.warm_cluster), "s");
  report->Add("serve.rethreshold_p50_s", Median(pass.rethreshold), "s");
  report->Add("serve.graph_p50_s", Median(pass.graph), "s");
  report->Add("serve.promoting_p50_s", Median(pass.promoting), "s");
  report->Add("serve.cluster.queue_p50_s", Median(pass.queue), "s");
  const dpc::serve::ServerStats& s = pass.stats;
  report->Add("serve.recomputes", static_cast<double>(s.recomputes), "count");
  report->Add("serve.evictions", static_cast<double>(s.cache.evictions), "count");
  report->Add("serve.demotions", static_cast<double>(s.demotions), "count");
  report->Add("serve.promotions", static_cast<double>(s.promotions), "count");
  report->Add("serve.cache_hit_ratio", Ratio(s.cache.solution_hits, s.cache.lookups),
              "ratio");
  report->Add("serve.label_hit_ratio",
              Ratio(s.cache.label_hits, s.cache.label_hits + s.cache.finalizations),
              "ratio");
  report->Add("serve.cache_bytes_in_use", static_cast<double>(s.cache.bytes_in_use),
              "bytes");
  report->Add("serve.lease_width_mean", Ratio(s.lease_width_total, s.leases_granted),
              "threads");
}

int RunSolve(const Options& opt, const SolveWorkload& w) {
  Report report;
  const int threads = dpc::HardwareThreads();
  const dpc::ExecutionContext ctx(threads);
  const dpc::ComputeParams compute{w.d_cut, 1.0};
  const dpc::ThresholdSpec threshold{.rho_min = w.rho_min, .delta_min = w.delta_min};

  // Set-up: generation (three times, median) and one warm-up solve per
  // algorithm, whose labels every timed solve must reproduce.
  std::vector<double> gen_s;
  PointSet points(1);
  for (int r = 0; r < 3; ++r) {
    const auto start = Clock::now();
    const PointId n = Scaled(w.n, opt.scale);
    points = MakePoints(w.shape, n, Mix(opt.seed, 2));
    gen_s.push_back(SecondsSince(start));
  }
  PrintInputFingerprint(points);
  std::vector<Algo> algos = PaperAlgorithms();
  std::vector<dpc::DpcSolution> ref_sol;
  std::vector<dpc::Labeling> ref;
  const auto warm_start = Clock::now();
  for (Algo& a : algos) {
    ref_sol.push_back(a.impl->Solve(points, compute, ctx));
    ref.push_back(dpc::LabelSolution(ref_sol.back(), threshold));
  }
  const double setup_s = Median(gen_s) + SecondsSince(warm_start);
  report.Check(!ref[0].centers.empty(), "Ex-DPC finds centers");
  report.Check(ref[1].centers == ref[0].centers,
               "Approx-DPC centers equal Ex-DPC centers");

  // The traced run spends half its time in the solve loop and the rest in
  // the layer probes and the serve passes.
  const double loop_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(loop_s));
  const size_t k = algos.size();
  if (!opt.trace) {
    std::vector<std::vector<double>> samples(k);
    do {
      for (size_t a = 0; a < k; ++a) {
        const auto start = Clock::now();
        const dpc::DpcSolution sol = algos[a].impl->Solve(points, compute, ctx);
        const dpc::Labeling labels = dpc::LabelSolution(sol, threshold);
        samples[a].push_back(SecondsSince(start));
        report.Check(SameLabels(labels, ref[a]),
                     std::string(algos[a].tag) + " labels equal its warm-up labels");
      }
    } while (Clock::now() < end);
    report.Add("exdpc_s", Median(samples[0]), "s");
    report.Add("approx_s", Median(samples[1]), "s");
    report.Add("sapprox_s", Median(samples[2]), "s");
    report.Add("sapprox_rand", dpc::eval::RandIndex(ref[2].label, ref[0].label), "ratio");
    report.Add("setup_s", setup_s, "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("solves per algorithm: %zu\n", samples[0].size());
    report.Print();
    return 0;
  }

  // Traced run: phase times from DpcStats, CPU utilization, and the
  // solve/* spans Solve emits under a per-solve root.
  struct Phases {
    std::vector<double> build, rho, delta, stamp, cpu_util;
  };
  std::vector<Phases> phases(k);
  double span_s = 0.0, wall_s = 0.0;
  do {
    for (size_t a = 0; a < k; ++a) {
      auto trace = std::make_shared<dpc::obs::Trace>();
      const uint64_t root = trace->NextId();
      const dpc::ExecutionContext traced = ctx.WithTrace(trace, root);
      const double cpu0 = CpuSeconds();
      const auto start = Clock::now();
      const dpc::DpcSolution sol = algos[a].impl->Solve(points, compute, traced);
      const double wall = SecondsSince(start);
      const double cpu = CpuSeconds() - cpu0;
      report.Check(SameLabels(dpc::LabelSolution(sol, threshold), ref[a]),
                   std::string(algos[a].tag) + " traced labels equal its warm-up labels");
      const dpc::DpcStats& s = sol.stats;
      phases[a].build.push_back(s.build_seconds);
      phases[a].rho.push_back(s.rho_seconds);
      phases[a].delta.push_back(s.delta_seconds);
      phases[a].stamp.push_back(wall - s.build_seconds - s.rho_seconds - s.delta_seconds);
      phases[a].cpu_util.push_back(cpu / (wall * threads));
      for (const dpc::obs::SpanRecord& span : trace->Snapshot()) {
        if (span.parent == root) span_s += span.duration_seconds();
      }
      wall_s += wall;
    }
  } while (Clock::now() < end);
  for (size_t a = 0; a < k; ++a) {
    const std::string p = std::string("core.") + algos[a].tag;
    report.Add(p + ".build_s", Median(phases[a].build), "s");
    report.Add(p + ".rho_s", Median(phases[a].rho), "s");
    report.Add(p + ".delta_s", Median(phases[a].delta), "s");
    report.Add(p + ".stamp_s", Median(phases[a].stamp), "s");
    report.Add(std::string("parallel.") + algos[a].tag + ".cpu_util",
               Median(phases[a].cpu_util), "ratio");
  }
  report.Add("obs.solve_span_coverage", span_s / wall_s, "ratio");
  report.Add("data.generate_s", Median(gen_s), "s");
  ProbeLayers(opt, w, points, ctx, ref_sol, threshold, Median(phases[1].delta), &report);
  ProbeServe(opt, w, points, ref_sol, &report);
  report.Print();
  return 0;
}

// ------------------------------------------------------------------ main

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--scale") {
      opt->scale = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0.0 && opt->scale > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload solve-syn2d|solve-household7d "
                 "--seed N --seconds S --trace 0|1 [--scale F]\n");
    return 2;
  }
  std::printf("workload=%s seed=%" PRIu64 " threads=%d kernels=%s\n",
              opt.workload.c_str(), opt.seed, dpc::HardwareThreads(),
              dpc::kernels::DescribeKernels().c_str());
  if (opt.workload == "solve-syn2d") {
    return RunSolve(opt, SolveWorkload{1000000, Shape::kSyn, 250.0, 10.0, 2500.0});
  }
  if (opt.workload == "solve-household7d") {
    return RunSolve(opt, SolveWorkload{100000, Shape::kHousehold, 1000.0, 10.0, 5000.0});
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
