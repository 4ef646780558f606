// The serve/ subsystem: dataset fingerprint stability, the two-tier
// SolutionCache (solution-tier keying, cost-scaled eviction determinism,
// byte-budget accounting, label memoization, demotion/promotion against
// a backing store), admission-queue priority order, executor lanes
// held within the thread budget, end-to-end serving (responses
// bit-identical to direct solve, for every registered algorithm), the re-threshold / decision-graph fast
// path (zero recompute, asserted via server stats), mixed deadlines,
// priority pick-up behind a busy lane, error paths, and concurrent
// submissions (the TSan CI job runs this binary).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/decision_graph.h"
#include "core/registry.h"
#include "data/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/dataset_registry.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/solution_cache.h"
#include "store/solution_format.h"
#include "store/solution_store.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet TestPoints(uint64_t seed = 11, dpc::PointId n = 600) {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = n;
  gen.num_clusters = 3;
  gen.seed = seed;
  return dpc::data::GaussianBenchmark(gen);
}

dpc::DpcParams TestParams(double d_cut = 2000.0) {
  dpc::DpcParams params;
  params.d_cut = d_cut;
  params.rho_min = 2.0;
  params.delta_min = 4.0 * d_cut;
  return params;
}

// The serverless reference every served response must match: a direct
// solve on a default context, labeled at the request's thresholds.
using dpc::test::Cluster;

void TestFingerprintAndRegistry() {
  const dpc::PointSet points = TestPoints();

  // Content-determined: same bytes -> same fingerprint, including via a
  // copy registered under another name; any coordinate change diverges.
  const uint64_t fp = dpc::FingerprintPoints(points);
  dpc::PointSet perturbed = points;
  perturbed.MutablePoint(0)[0] += 1.0;
  CHECK(dpc::FingerprintPoints(perturbed) != fp);
  // Same coordinate multiset, different order -> different content.
  dpc::PointSet swapped(points.dim());
  swapped.Add(points[1]);
  swapped.Add(points[0]);
  dpc::PointSet forward(points.dim());
  forward.Add(points[0]);
  forward.Add(points[1]);
  CHECK(dpc::FingerprintPoints(swapped) != dpc::FingerprintPoints(forward));

  dpc::serve::DatasetRegistry registry;
  CHECK_EQ(registry.Register("a", points), fp);
  CHECK_EQ(registry.Register("b", points), fp);  // alias, same content
  CHECK_EQ(registry.size(), 2u);

  const auto found = registry.Find("a");
  CHECK(found != nullptr);
  CHECK_EQ(found->fingerprint, fp);
  CHECK_EQ(found->points.size(), points.size());
  CHECK(registry.Find("nope") == nullptr);

  // A replaced handle leaves earlier holders' entry alive and intact.
  CHECK(registry.Register("a", perturbed) != fp);
  CHECK_EQ(found->fingerprint, fp);
  CHECK(registry.Find("a")->fingerprint != fp);

  CHECK(registry.Unregister("b"));
  CHECK(!registry.Unregister("b"));
  CHECK_EQ(registry.size(), 1u);
}

/// A tiny hand-built solution whose labels depend on the threshold:
///   rho   = {5, 4, 3, 1}
///   delta = {inf, 10, 2, 1}, dependency = {-1, 0, 1, 2}
/// (rho_min=2, delta_min=5)  -> labels {0, 1, 1, noise}
/// (rho_min=2, delta_min=20) -> labels {0, 0, 0, noise}
/// `cost` is its compute_cost_seconds, the cache's eviction weight.
std::shared_ptr<const dpc::DpcSolution> TinySolution(double cost = 1.0) {
  auto s = std::make_shared<dpc::DpcSolution>();
  s->algorithm = "test";
  s->compute_cost_seconds = cost;
  s->rho = {5.0, 4.0, 3.0, 1.0};
  s->delta = {std::numeric_limits<double>::infinity(), 10.0, 2.0, 1.0};
  s->dependency = {-1, 0, 1, 2};
  s->density_order = dpc::DensityOrder(s->rho);
  return s;
}

/// The cache charges an entry its exact serialized size, so test budgets
/// are expressed in units of one TinySolution.
size_t TinyBytes() { return dpc::store::SerializedSolutionBytes(*TinySolution()); }

dpc::ThresholdSpec Spec(double rho_min, double delta_min) {
  dpc::ThresholdSpec spec;
  spec.rho_min = rho_min;
  spec.delta_min = delta_min;
  return spec;
}

void TestSolutionCacheTwoTier() {
  dpc::serve::SolutionCache cache(4 * TinyBytes());
  CHECK(cache.enabled());
  CHECK(cache.Lookup("a") == nullptr);
  CHECK(cache.Finalize("a", Spec(2.0, 5.0)) == nullptr);

  cache.Insert("a", TinySolution());
  CHECK(cache.Lookup("a") != nullptr);

  // Label tier: first Finalize computes, the second aliases the SAME
  // immutable result; a different threshold labels differently.
  const auto r1 = cache.Finalize("a", Spec(2.0, 5.0));
  CHECK(r1 != nullptr);
  CHECK(r1->label == (std::vector<int64_t>{0, 1, 1, dpc::kNoise}));
  CHECK(r1->centers == (std::vector<dpc::PointId>{0, 1}));
  const auto r2 = cache.Finalize("a", Spec(2.0, 5.0));
  CHECK(r2.get() == r1.get());
  const auto r3 = cache.Finalize("a", Spec(2.0, 20.0));
  CHECK(r3->label == (std::vector<int64_t>{0, 0, 0, dpc::kNoise}));
  CHECK_EQ(r3->centers.size(), 1u);

  const auto stats = cache.stats();
  CHECK_EQ(stats.finalizations, 2u);
  CHECK_EQ(stats.label_hits, 1u);

  // Re-inserting a key drops its stale label memo.
  cache.Insert("a", TinySolution());
  const auto r4 = cache.Finalize("a", Spec(2.0, 5.0));
  CHECK(r4.get() != r1.get());
  CHECK(r4->label == r1->label);

  // The per-entry memo is bounded: sweeping kLabelingsPerSolution + 1
  // thresholds evicts the least recently used labeling. The budget has
  // room for the solution and a full memo.
  constexpr size_t kBound = dpc::serve::SolutionCache::kLabelingsPerSolution;
  dpc::serve::SolutionCache bounded(2 * TinyBytes() + kBound * 64);
  bounded.Insert("a", TinySolution());
  for (size_t i = 0; i <= kBound; ++i) {  // the last evicts the 5.0 memo
    (void)bounded.Finalize("a", Spec(2.0, 5.0 + static_cast<double>(i)));
  }
  (void)bounded.Finalize("a", Spec(2.0, 6.0));  // still memoized
  CHECK_EQ(bounded.stats().label_hits, 1u);
  (void)bounded.Finalize("a", Spec(2.0, 5.0));  // recomputed
  CHECK_EQ(bounded.stats().finalizations, kBound + 2);

  // A zero byte budget disables caching entirely.
  dpc::serve::SolutionCache off(0);
  CHECK(!off.enabled());
  off.Insert("a", TinySolution());
  CHECK(off.Lookup("a") == nullptr);
  CHECK_EQ(off.size(), 0u);
}

void TestSolutionCacheCostAwareEviction() {
  // GreedyDual-Size (cost-per-byte-scaled LRU): an expensive solution
  // outlives many cheap ones, but inflation eventually ages it out. The
  // entries here are all one TinySolution in size, so credits order
  // exactly as cost and the whole sequence is deterministic. Each cost is
  // a whole multiple of TinyBytes, so every credit (cost / bytes plus the
  // inflation level) is an exact integer and the ties below are exact.
  const double unit = static_cast<double>(TinyBytes());
  dpc::serve::SolutionCache cache(2 * TinyBytes());
  cache.Insert("expensive", TinySolution(10 * unit));
  cache.Insert("cheap1", TinySolution(unit));
  // Plain LRU would evict "expensive" (least recently used); cost-scaled
  // eviction picks the low-credit "cheap1" instead.
  cache.Insert("cheap2", TinySolution(unit));
  CHECK(cache.KeysByEvictionOrder() ==
        (std::vector<std::string>{"cheap2", "expensive"}));
  cache.Insert("cheap3", TinySolution(unit));  // evicts cheap2 (credit 2)
  CHECK(cache.KeysByEvictionOrder() ==
        (std::vector<std::string>{"cheap3", "expensive"}));
  CHECK_EQ(cache.stats().evictions, 2u);

  // Aging: with each eviction the inflation level rises by the victim's
  // credit, so a stream of cheap solutions eventually displaces the
  // expensive one. The credits go 4, 5, ..., 10; the tie at 10 breaks
  // toward the older entry — "expensive" — on the 8th insert.
  for (int i = 0; i < 8; ++i) {
    cache.Insert("stream" + std::to_string(i), TinySolution(unit));
  }
  CHECK(cache.Lookup("expensive") == nullptr);

  // A hit refreshes the credit: after touching, the expensive entry is
  // again the last to go.
  dpc::serve::SolutionCache touchy(2 * TinyBytes());
  touchy.Insert("expensive", TinySolution(10 * unit));
  touchy.Insert("cheap1", TinySolution(unit));
  CHECK(touchy.Lookup("expensive") != nullptr);
  touchy.Insert("cheap2", TinySolution(unit));
  CHECK(touchy.Lookup("expensive") != nullptr);
  CHECK(touchy.Lookup("cheap1") == nullptr);
}

void TestSolutionCacheByteBudget() {
  const size_t tiny = TinyBytes();
  // Room for two tiny entries (plus slack below a third): across an
  // insert storm, bytes_in_use tracks the resident set exactly and NEVER
  // exceeds the budget — the acceptance invariant of the byte-budgeted
  // tier.
  dpc::serve::SolutionCache cache(2 * tiny + tiny / 2);
  for (int i = 0; i < 16; ++i) {
    cache.Insert("k" + std::to_string(i), TinySolution(1.0 + i));
    CHECK(cache.bytes_in_use() <= cache.memory_budget_bytes());
    CHECK_EQ(cache.bytes_in_use(), cache.size() * tiny);
  }
  CHECK_EQ(cache.size(), 2u);

  // An artifact bigger than the whole budget is refused outright — and
  // refusing it does not evict the resident entries.
  auto big = std::make_shared<dpc::DpcSolution>();
  big->algorithm = "test";
  big->rho.assign(4096, 1.0);
  big->delta.assign(4096, 1.0);
  big->dependency.assign(4096, -1);
  big->density_order = dpc::DensityOrder(big->rho);
  big->compute_cost_seconds = 100.0;
  CHECK(dpc::store::SerializedSolutionBytes(*big) >
        cache.memory_budget_bytes());
  cache.Insert("big", big);
  CHECK(cache.Lookup("big") == nullptr);
  CHECK_EQ(cache.size(), 2u);
  CHECK(cache.bytes_in_use() <= cache.memory_budget_bytes());

  // Re-inserting an existing key replaces its charge, not doubles it.
  cache.Insert("k15", TinySolution(99.0));
  CHECK_EQ(cache.bytes_in_use(), 2 * tiny);

  // Memoized labelings are charged to the same budget. An insert storm
  // with a Finalize sweep after each insert memoizes while there is room
  // and serves the rest unmemoized: bytes_in_use never exceeds the
  // budget, and a memo never evicts a solution.
  dpc::serve::SolutionCache memos(2 * tiny + tiny / 2);
  bool memo_charged = false;
  for (int i = 0; i < 16; ++i) {
    const std::string key = "k" + std::to_string(i);
    memos.Insert(key, TinySolution(1.0 + i));
    for (int t = 0; t < 8; ++t) {
      CHECK(memos.Finalize(key, Spec(2.0, 1.0 + t)) != nullptr);
      CHECK(memos.bytes_in_use() <= memos.memory_budget_bytes());
      CHECK(memos.Lookup(key) != nullptr);
      memo_charged |= memos.bytes_in_use() > memos.size() * tiny;
    }
  }
  CHECK(memo_charged);
  // Eviction releases each memo's charge with its entry: two expensive
  // newcomers evict every memo-holding entry, leaving exactly their own
  // serialized bytes.
  memos.Insert("x", TinySolution(1000.0));
  memos.Insert("y", TinySolution(1000.0));
  CHECK_EQ(memos.size(), 2u);
  CHECK_EQ(memos.bytes_in_use(), 2 * tiny);
  // Re-insert releases the replaced entry's memo charge too.
  CHECK(memos.Finalize("x", Spec(2.0, 5.0)) != nullptr);
  CHECK(memos.bytes_in_use() > 2 * tiny);
  memos.Insert("x", TinySolution(1000.0));
  CHECK_EQ(memos.bytes_in_use(), 2 * tiny);
}

/// The cache as the warm tier over a SolutionStore: eviction demotes (the
/// log keeps the record), a memory miss promotes (warm miss — served
/// from the store, never recomputed), and the miss taxonomy separates
/// the two from a true both-tier miss.
void TestCacheStoreDemotePromote() {
  const std::string path =
      "/tmp/dpc_serve_test_tier_" + std::to_string(::getpid()) + ".log";
  std::remove(path.c_str());
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  const size_t tiny = TinyBytes();
  {
    dpc::serve::SolutionCache cache(2 * tiny + tiny / 2, store.value().get());
    cache.Insert("a", TinySolution());
    cache.Insert("b", TinySolution(2.0));
    cache.Insert("c", TinySolution(3.0));  // evicts "a" -> demotion
    auto stats = cache.stats();
    CHECK_EQ(stats.evictions, 1u);
    CHECK_EQ(stats.demotions, 1u);
    CHECK(store.value()->Contains("a"));

    // The demoted key is a WARM miss: promoted back and served.
    const auto a = cache.Lookup("a");
    CHECK(a != nullptr);
    stats = cache.stats();
    CHECK_EQ(stats.warm_misses, 1u);
    CHECK_EQ(stats.promotions, 1u);
    CHECK_EQ(stats.solution_misses, 0u);
    CHECK(cache.bytes_in_use() <= cache.memory_budget_bytes());

    // Finalize on a now-demoted key takes the same path: finalize-only
    // against the promoted artifact, labels as if it never left memory.
    const auto r = cache.Finalize("b", Spec(2.0, 5.0));
    CHECK(r != nullptr);
    CHECK(r->label == (std::vector<int64_t>{0, 1, 1, dpc::kNoise}));

    // A key neither tier has is a genuine miss.
    CHECK(cache.Lookup("nope") == nullptr);
    CHECK_EQ(cache.stats().solution_misses, 1u);
  }
  std::remove(path.c_str());
}

void TestSolutionKey() {
  const dpc::ComputeParams compute = TestParams().compute();
  // The key is fingerprint|d_cut|epsilon|algorithm, numbers at %.17g.
  const std::string base = dpc::serve::MakeSolutionKey(1, "lsh-ddp", compute);
  CHECK(base == std::string("0000000000000001|2000|1|lsh-ddp"));

  // Every key component discriminates.
  CHECK(dpc::serve::MakeSolutionKey(2, "lsh-ddp", compute) != base);
  CHECK(dpc::serve::MakeSolutionKey(1, "ex-dpc", compute) != base);
  dpc::ComputeParams other = compute;
  other.d_cut *= 2.0;
  CHECK(dpc::serve::MakeSolutionKey(1, "lsh-ddp", other) != base);
  dpc::ComputeParams eps = compute;
  eps.epsilon *= 2.0;
  CHECK(dpc::serve::MakeSolutionKey(1, "lsh-ddp", eps) != base);

  // Threshold knobs are NOT part of the solution key — that is the whole
  // point of the two-tier split: one solution answers every threshold.
  dpc::DpcParams rethresholded = TestParams();
  rethresholded.rho_min = 99.0;
  rethresholded.delta_min = 9000.0;
  CHECK(dpc::serve::MakeSolutionKey(1, "lsh-ddp", rethresholded.compute()) ==
        base);

  // Execution policy is NOT part of the key: MakeSolutionKey takes no
  // thread count (labels are thread-count independent by the
  // determinism contract).

  // Threshold keys canonicalize spelling-equal values too.
  CHECK(dpc::serve::MakeThresholdKey(Spec(2.0, 5.0)) ==
        dpc::serve::MakeThresholdKey(Spec(2.0, 5.0)));
  CHECK(dpc::serve::MakeThresholdKey(Spec(2.0, 5.0)) !=
        dpc::serve::MakeThresholdKey(Spec(2.0, 6.0)));
}

void TestAdmissionQueuePriority() {
  dpc::serve::AdmissionQueue queue;
  auto push = [&](int priority) {
    dpc::serve::ClusterRequest request;
    request.dataset = "d";
    request.priority = priority;
    return queue.Push(std::move(request));
  };
  // Futures must outlive the queue pops (promises travel with the
  // submissions).
  std::vector<std::future<dpc::serve::ClusterResponse>> futures;
  futures.push_back(push(0));
  futures.push_back(push(5));
  futures.push_back(push(1));
  futures.push_back(push(5));

  // (priority desc, admission order asc): the two 5s in arrival order,
  // then the 1.
  std::optional<dpc::serve::Submission> s = queue.Pop();
  CHECK(s.has_value());
  CHECK_EQ(s->request.priority, 5);
  CHECK_EQ(s->seq, 1u);
  s = queue.Pop();
  CHECK(s.has_value());
  CHECK_EQ(s->request.priority, 5);
  CHECK_EQ(s->seq, 3u);
  s = queue.Pop();
  CHECK(s.has_value());
  CHECK_EQ(s->request.priority, 1);
  CHECK_EQ(queue.pending(), 1u);

  // Shutdown still drains what was admitted, then Pop returns empty.
  queue.Shutdown();
  s = queue.Pop();
  CHECK(s.has_value());
  CHECK_EQ(s->request.priority, 0);
  CHECK(!queue.Pop().has_value());
}

void TestServerEndToEnd() {
  const dpc::PointSet points = TestPoints();
  const dpc::DpcParams params = TestParams();

  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  // A 30 KB budget fits exactly ONE solution for the 600-point dataset
  // (each is ~19.3 KB serialized), to also exercise server-level eviction.
  options.memory_budget_bytes = 30u << 10;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  dpc::serve::ClusterRequest request;
  request.dataset = "pts";
  request.algorithm = "ex-dpc";
  request.params = params;

  // Miss -> computed; identical resubmission -> cache hit aliasing the
  // same immutable result; both bit-identical to a direct solve.
  const auto first = server.Submit(request).get();
  CHECK(first.status.ok());
  CHECK(!first.cache_hit);
  const auto second = server.Submit(request).get();
  CHECK(second.status.ok());
  CHECK(second.cache_hit);
  CHECK(second.result.get() == first.result.get());
  CHECK_EQ(second.run_seconds, 0.0);

  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  CHECK(algo.ok());
  const dpc::test::Clustering direct = Cluster(*algo.value(), points, params);
  CHECK(dpc::test::BitIdenticalLabels(first.result->label, direct.labeling.label));
  CHECK(first.result->centers == direct.labeling.centers);
  const std::string key = dpc::serve::MakeSolutionKey(
      dpc::FingerprintPoints(points), "ex-dpc", params.compute());
  CHECK(server.cache().Lookup(key)->dependency == direct.solution.dependency);

  // THE TWO-TIER PAYOFF: same compute configuration, new thresholds ->
  // still a cache hit (finalize-only, zero algorithm work), labels
  // bit-identical to a fresh solve at those thresholds.
  const uint64_t recomputes_before = server.stats().recomputes;
  dpc::serve::ClusterRequest rethresholded = request;
  rethresholded.params.rho_min = 5.0;
  rethresholded.params.delta_min = 3.0 * params.d_cut;
  const auto r = server.Submit(rethresholded).get();
  CHECK(r.status.ok());
  CHECK(r.cache_hit);
  CHECK_EQ(server.stats().recomputes, recomputes_before);
  CHECK(dpc::test::BitIdenticalLabels(
      r.result->label,
      Cluster(*algo.value(), points, rethresholded.params).labeling.label));

  // A different COMPUTE configuration evicts the capacity-1 cache; the
  // original then recomputes (deterministically the same labels).
  dpc::serve::ClusterRequest other = request;
  other.params.d_cut *= 1.5;
  other.params.delta_min *= 1.5;
  CHECK(!server.Submit(other).get().cache_hit);
  const auto recomputed = server.Submit(request).get();
  CHECK(recomputed.status.ok());
  CHECK(!recomputed.cache_hit);
  CHECK(dpc::test::BitIdenticalLabels(recomputed.result->label, direct.labeling.label));

  const auto stats = server.stats();
  CHECK_EQ(stats.submitted, 5u);
  CHECK_EQ(stats.completed, 5u);
  CHECK_EQ(stats.cache_hits, 2u);
  CHECK_EQ(stats.recomputes, 3u);
  CHECK_EQ(stats.errors, 0u);
}

void TestRethresholdAndGraphRequests() {
  const dpc::PointSet points = TestPoints();
  const dpc::DpcParams params = TestParams();

  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  dpc::serve::ClusterRequest warmup;
  warmup.dataset = "pts";
  warmup.algorithm = "ex-dpc";
  warmup.params = params;

  // Cold cache: the threshold-only kinds refuse to compute.
  dpc::serve::ClusterRequest cold = warmup;
  cold.kind = dpc::serve::RequestKind::kRethreshold;
  CHECK(server.Submit(cold).get().status.code() ==
        dpc::StatusCode::kNotFound);
  CHECK_EQ(server.stats().recomputes, 0u);

  // Warm the solution tier with one real run.
  CHECK(server.Submit(warmup).get().status.ok());
  const uint64_t recomputes = server.stats().recomputes;
  CHECK_EQ(recomputes, 1u);

  // Re-threshold: answered synchronously from the cached solution — the
  // recompute counter NEVER moves, and labels match a fresh direct solve.
  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  for (const double delta_min : {3000.0, 5000.0, 12000.0}) {
    dpc::serve::ClusterRequest re = warmup;
    re.kind = dpc::serve::RequestKind::kRethreshold;
    re.params.delta_min = delta_min;
    re.params.rho_min = 3.0;
    const auto response = server.Submit(re).get();
    CHECK(response.status.ok());
    CHECK(response.cache_hit);
    CHECK_EQ(response.run_seconds, 0.0);
    CHECK(dpc::test::BitIdenticalLabels(
        response.result->label,
        Cluster(*algo.value(), points, re.params).labeling.label));
  }
  CHECK_EQ(server.stats().recomputes, recomputes);
  CHECK_EQ(server.stats().rethreshold_served, 3u);

  // Graph: the top-k gamma ranking of the cached solution, identical to
  // computing it directly from a fresh run's rho/delta.
  dpc::serve::ClusterRequest graph = warmup;
  graph.kind = dpc::serve::RequestKind::kGraph;
  graph.graph_top_k = 5;
  const auto g = server.Submit(graph).get();
  CHECK(g.status.ok());
  CHECK(g.cache_hit);
  CHECK_EQ(g.graph.size(), 5u);
  const dpc::DpcSolution direct = Cluster(*algo.value(), points, params).solution;
  const auto expected = dpc::TopGammaPoints(direct.rho, direct.delta, 5);
  for (size_t i = 0; i < expected.size(); ++i) {
    CHECK_EQ(g.graph[i].id, expected[i].id);
    CHECK_EQ(g.graph[i].gamma, expected[i].gamma);
  }
  // Gamma ranks descending.
  for (size_t i = 1; i < g.graph.size(); ++i) {
    CHECK(g.graph[i - 1].gamma >= g.graph[i].gamma);
  }
  CHECK_EQ(server.stats().recomputes, recomputes);

  // Unknown dataset / bad top_k fail cleanly without computing.
  dpc::serve::ClusterRequest bad = graph;
  bad.dataset = "nope";
  CHECK(server.Submit(bad).get().status.code() == dpc::StatusCode::kNotFound);
  dpc::serve::ClusterRequest bad_k = graph;
  bad_k.graph_top_k = 0;
  CHECK(server.Submit(bad_k).get().status.code() ==
        dpc::StatusCode::kInvalidArgument);
  CHECK_EQ(server.stats().recomputes, recomputes);
}

void TestMixedDeadlineBatch() {
  const dpc::PointSet points = TestPoints();

  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.memory_budget_bytes = 0;  // force both survivors to really run
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  // One request whose budget (1ns) cannot survive even admission, two
  // healthy ones — submitted back-to-back.
  dpc::serve::ClusterRequest doomed;
  doomed.dataset = "pts";
  doomed.algorithm = "ex-dpc";
  doomed.params = TestParams();
  doomed.deadline = std::chrono::nanoseconds(1);
  dpc::serve::ClusterRequest healthy1 = doomed;
  healthy1.deadline = {};
  dpc::serve::ClusterRequest healthy2 = healthy1;
  healthy2.params = TestParams(3000.0);

  auto f_doomed = server.Submit(doomed);
  auto f1 = server.Submit(healthy1);
  auto f2 = server.Submit(healthy2);

  const auto r_doomed = f_doomed.get();
  CHECK(r_doomed.status.code() == dpc::StatusCode::kDeadlineExceeded);
  CHECK(r_doomed.result == nullptr);

  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  const auto r1 = f1.get();
  CHECK(r1.status.ok());
  CHECK(dpc::test::BitIdenticalLabels(
      r1.result->label, Cluster(*algo.value(), points, healthy1.params).labeling.label));
  const auto r2 = f2.get();
  CHECK(r2.status.ok());
  CHECK(dpc::test::BitIdenticalLabels(
      r2.result->label, Cluster(*algo.value(), points, healthy2.params).labeling.label));

  CHECK_EQ(server.stats().deadline_exceeded, 1u);
}

// Every lane pick honours priority: with the one lane busy, a
// high-priority request submitted AFTER a low-priority one must still run
// first, however long the low-priority one has been queued.
void TestPriorityOvertakesQueuedRequest() {
  const dpc::PointSet big = TestPoints(31, 40000);

  dpc::serve::ServerOptions options;
  options.pool_threads = 1;
  options.max_concurrent = 1;
  options.memory_budget_bytes = 0;  // every request really runs
  dpc::serve::ClusterServer server(options);
  CHECK_EQ(server.lanes(), 1);
  server.datasets().Register("big", big);
  server.datasets().Register("small", TestPoints());

  dpc::serve::ClusterRequest blocker;
  blocker.dataset = "big";
  blocker.algorithm = "ex-dpc";
  blocker.params = TestParams();
  dpc::serve::ClusterRequest low = blocker;
  low.params = TestParams(2500.0);
  low.priority = 0;
  dpc::serve::ClusterRequest high = blocker;
  high.dataset = "small";
  high.priority = 9;

  auto f_blocker = server.Submit(blocker);
  while (server.stats().peak_concurrency == 0) {  // until it is mid-Solve
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto f_low = server.Submit(low);
  // Far longer than any admission hand-off: the low request is settled
  // in whatever structure waits for the lane.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto f_high = server.Submit(high);
  // The precondition, checked rather than assumed from sleep timing: the
  // lane is still busy with the blocker, so both requests are waiting
  // when it next picks.
  CHECK(f_blocker.wait_for(std::chrono::seconds(0)) ==
        std::future_status::timeout);

  CHECK(f_blocker.get().status.ok());
  const auto r_low = f_low.get();
  const auto r_high = f_high.get();
  CHECK(r_low.status.ok());
  CHECK(r_high.status.ok());
  CHECK(r_high.queue_seconds < r_low.queue_seconds);
}

void TestErrorPaths() {
  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", TestPoints());

  dpc::serve::ClusterRequest request;
  request.dataset = "pts";
  request.algorithm = "ex-dpc";
  request.params = TestParams();

  // Validation failures resolve immediately.
  dpc::serve::ClusterRequest no_dataset = request;
  no_dataset.dataset.clear();
  CHECK(server.Submit(no_dataset).get().status.code() ==
        dpc::StatusCode::kInvalidArgument);
  dpc::serve::ClusterRequest bad_params = request;
  bad_params.params.d_cut = -1.0;
  CHECK(server.Submit(bad_params).get().status.code() ==
        dpc::StatusCode::kInvalidArgument);

  // Execution-time failures come back through the future.
  dpc::serve::ClusterRequest unknown_dataset = request;
  unknown_dataset.dataset = "nope";
  CHECK(server.Submit(unknown_dataset).get().status.code() ==
        dpc::StatusCode::kNotFound);
  dpc::serve::ClusterRequest unknown_algo = request;
  unknown_algo.algorithm = "nope";
  CHECK(server.Submit(unknown_algo).get().status.code() ==
        dpc::StatusCode::kNotFound);

  // Requests already admitted still complete across Shutdown; later
  // submissions are rejected as cancelled.
  auto inflight = server.Submit(request);
  server.Shutdown();
  CHECK(inflight.get().status.ok());
  CHECK(server.Submit(request).get().status.code() ==
        dpc::StatusCode::kCancelled);
  // The synchronous cache-only kinds honor the shutdown contract too —
  // even though the cache is warm enough to answer.
  dpc::serve::ClusterRequest re_after = request;
  re_after.kind = dpc::serve::RequestKind::kRethreshold;
  CHECK(server.Submit(re_after).get().status.code() ==
        dpc::StatusCode::kCancelled);
}

void TestConcurrentSubmissions() {
  const dpc::PointSet points = TestPoints(13, 800);

  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.memory_budget_bytes = 8u << 20;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  // Expected labels per config, computed directly. The two configs share
  // d_cut (one compute key!) and differ only in thresholds, so the
  // concurrent clients also hammer the label-memo tier.
  std::vector<dpc::DpcParams> configs = {TestParams(2000.0),
                                         TestParams(2000.0)};
  configs[1].rho_min = 5.0;
  configs[1].delta_min = 6000.0;
  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  std::vector<std::vector<int64_t>> expected;
  for (const auto& params : configs) {
    expected.push_back(Cluster(*algo.value(), points, params).labeling.label);
  }

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kPerClient; ++q) {
        const size_t which = static_cast<size_t>((c + q) % 2);
        dpc::serve::ClusterRequest request;
        request.dataset = "pts";
        request.algorithm = "ex-dpc";
        request.params = configs[which];
        const auto response = server.Submit(std::move(request)).get();
        if (!response.status.ok() ||
            !dpc::test::BitIdenticalLabels(response.result->label, expected[which])) {
          ++failures[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const int f : failures) CHECK_EQ(f, 0);

  const auto stats = server.stats();
  CHECK_EQ(stats.submitted, static_cast<uint64_t>(kClients * kPerClient));
  CHECK_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
  // One compute configuration -> at most a couple of real computations
  // (a burst can race past the first insert); hits dominate.
  CHECK(stats.cache_hits >= static_cast<uint64_t>(kClients * kPerClient - 2));
  CHECK_EQ(stats.errors, 0u);
}

// The tentpole's serving leg: with several executor lanes, DISTINCT
// requests genuinely overlap (peak_concurrency proves it), every
// response stays bit-identical to a direct solve, a low-priority
// no-deadline request is never starved, and the mixed synchronous kinds
// keep working against the same server. The TSan CI job runs this.
void TestConcurrentExecutionOverlap() {
  const dpc::PointSet points = TestPoints(29, 3000);

  dpc::serve::ServerOptions options;
  options.pool_threads = 4;
  options.max_concurrent = 3;
  options.memory_budget_bytes = 8u << 20;
  dpc::serve::ClusterServer server(options);
  CHECK_EQ(server.lanes(), 3);
  server.datasets().Register("pts", points);

  // Six DISTINCT compute configurations — distinct cache keys, so the
  // in-flight dedup cannot collapse them: three lanes must execute them
  // overlapped.
  std::vector<dpc::DpcParams> configs;
  for (int i = 0; i < 6; ++i) {
    configs.push_back(TestParams(1500.0 + 250.0 * i));
  }
  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  std::vector<std::vector<int64_t>> expected;
  for (const auto& params : configs) {
    expected.push_back(Cluster(*algo.value(), points, params).labeling.label);
  }

  std::vector<std::future<dpc::serve::ClusterResponse>> futures;
  for (size_t i = 0; i < configs.size(); ++i) {
    dpc::serve::ClusterRequest request;
    request.dataset = "pts";
    request.algorithm = "ex-dpc";
    request.params = configs[i];
    if (i == 0) request.priority = -3;  // dispatched last; must still finish
    if (i == 1) request.deadline = std::chrono::minutes(1);  // generous
    futures.push_back(server.Submit(std::move(request)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto response = futures[i].get();
    CHECK(response.status.ok());
    CHECK(!response.cache_hit);
    CHECK(dpc::test::BitIdenticalLabels(response.result->label, expected[i]));
  }

  // Mixed kinds against the warmed server: synchronous re-threshold and
  // graph requests interleave with queued resubmissions — nothing
  // recomputes, everything stays bit-identical.
  const uint64_t recomputes = server.stats().recomputes;
  dpc::serve::ClusterRequest re;
  re.dataset = "pts";
  re.algorithm = "ex-dpc";
  re.params = configs[2];
  re.params.rho_min = 5.0;
  re.kind = dpc::serve::RequestKind::kRethreshold;
  const auto r = server.Submit(re).get();
  CHECK(r.status.ok());
  CHECK(r.cache_hit);
  CHECK(dpc::test::BitIdenticalLabels(
      r.result->label, Cluster(*algo.value(), points, re.params).labeling.label));
  dpc::serve::ClusterRequest graph = re;
  graph.kind = dpc::serve::RequestKind::kGraph;
  graph.params = configs[3];
  graph.graph_top_k = 4;
  CHECK_EQ(server.Submit(graph).get().graph.size(), 4u);
  dpc::serve::ClusterRequest again;
  again.dataset = "pts";
  again.algorithm = "ex-dpc";
  again.params = configs[4];
  CHECK(server.Submit(again).get().cache_hit);
  CHECK_EQ(server.stats().recomputes, recomputes);

  const auto stats = server.stats();
  // The overlap proof: at least two requests were mid-Solve at once
  // (with 3 lanes and 6 multi-millisecond solves, serial execution
  // cannot produce this), and every compute ran on its lane's pool.
  CHECK(stats.peak_concurrency >= 2u);
  CHECK_EQ(stats.leases_granted, 6u);
  CHECK_EQ(stats.lease_width_total, 6u);  // width max(1, 4 / 3) = 1
  CHECK_EQ(stats.errors, 0u);
  CHECK_EQ(stats.deadline_exceeded, 0u);
}

/// More lanes requested than the budget has threads: the server clamps
/// the lanes to the budget, so each lane's pool holds one thread and at
/// most two solves overlap. Priorities at the int extremes are plain
/// queue order and are served like any other request.
void TestLanesWithinBudget() {
  const dpc::PointSet points = TestPoints(31, 2500);

  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.max_concurrent = 4;
  options.memory_budget_bytes = 8u << 20;
  dpc::serve::ClusterServer server(options);
  CHECK_EQ(server.lanes(), 2);
  server.datasets().Register("pts", points);

  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  CHECK(algo.ok());
  auto submit = [&](const dpc::DpcParams& params, int priority) {
    dpc::serve::ClusterRequest request;
    request.dataset = "pts";
    request.algorithm = "ex-dpc";
    request.params = params;
    request.priority = priority;
    return server.Submit(std::move(request));
  };

  // Four distinct compute configurations: four real solves.
  std::vector<dpc::DpcParams> configs;
  for (int i = 0; i < 4; ++i) configs.push_back(TestParams(1500.0 + 250.0 * i));
  std::vector<std::future<dpc::serve::ClusterResponse>> futures;
  for (const dpc::DpcParams& params : configs) {
    futures.push_back(submit(params, 0));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto response = futures[i].get();
    CHECK(response.status.ok());
    CHECK(dpc::test::BitIdenticalLabels(
        response.result->label,
        Cluster(*algo.value(), points, configs[i]).labeling.label));
  }
  dpc::serve::ServerStats stats = server.stats();
  CHECK(stats.peak_concurrency <= 2u);
  CHECK_EQ(stats.recomputes, 4u);
  CHECK_EQ(stats.leases_granted, 4u);
  CHECK_EQ(stats.lease_width_total, 4u);

  for (const int priority : {INT_MAX, INT_MIN}) {
    const dpc::DpcParams params =
        TestParams(priority == INT_MAX ? 3000.0 : 3500.0);
    const auto response = submit(params, priority).get();
    CHECK(response.status.ok());
    CHECK(!response.cache_hit);
    CHECK(dpc::test::BitIdenticalLabels(
        response.result->label,
        Cluster(*algo.value(), points, params).labeling.label));
  }
  stats = server.stats();
  CHECK_EQ(stats.recomputes, 6u);
  CHECK_EQ(stats.lease_width_total, 6u);
  CHECK_EQ(stats.errors, 0u);
  CHECK_EQ(stats.deadline_exceeded, 0u);
}

/// Satellite: the stats surface the `dpc_server stats` command prints —
/// cache byte occupancy and store occupancy — plus the warm-restart
/// promotion counters, against a real store-backed server.
void TestServerStoreStats() {
  const std::string store_path =
      "/tmp/dpc_serve_test_store_" + std::to_string(::getpid()) + ".log";
  std::remove(store_path.c_str());
  const dpc::PointSet points = TestPoints();

  dpc::serve::ClusterRequest request;
  request.dataset = "pts";
  request.algorithm = "ex-dpc";
  request.params = TestParams();

  {
    dpc::serve::ServerOptions options;
    options.pool_threads = 2;
    options.store_path = store_path;
    dpc::serve::ClusterServer server(options);
    CHECK(server.store() != nullptr);
    server.datasets().Register("pts", points);
    CHECK(server.Submit(request).get().status.ok());

    const auto stats = server.stats();
    CHECK(stats.store_bytes > 0u);  // the write-through landed in the log
    CHECK_EQ(server.store()->stats().live_solutions, 1u);
    CHECK(server.cache().bytes_in_use() > 0u);
    CHECK(server.cache().bytes_in_use() <=
          server.cache().memory_budget_bytes());
  }

  // A restarted server over the same log answers a re-threshold WARM:
  // the solution promotes from the store (no recompute, ever) and the
  // labels are bit-identical to a fresh direct solve.
  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.store_path = store_path;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);
  dpc::serve::ClusterRequest re = request;
  re.kind = dpc::serve::RequestKind::kRethreshold;
  re.params.rho_min = 3.0;
  const auto r = server.Submit(re).get();
  CHECK(r.status.ok());
  CHECK(r.cache_hit);
  const auto stats = server.stats();
  CHECK_EQ(stats.recomputes, 0u);
  CHECK(stats.warm_misses >= 1u);
  CHECK(stats.promotions >= 1u);
  CHECK(stats.store_bytes > 0u);
  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  CHECK(dpc::test::BitIdenticalLabels(
      r.result->label, Cluster(*algo.value(), points, re.params).labeling.label));
  std::remove(store_path.c_str());
}

/// Every registered algorithm serves: one kCluster request per name,
/// each labeling bit-identical to a direct Solve + LabelSolution, and
/// each cached solution equal to the direct one.
void TestEveryAlgorithmServed() {
  const dpc::PointSet points = TestPoints(23, 400);
  const dpc::DpcParams params = TestParams();
  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
    dpc::serve::ClusterRequest request;
    request.dataset = "pts";
    request.algorithm = name;
    request.params = params;
    const auto response = server.Submit(request).get();
    CHECK(response.status.ok());
    CHECK(!response.cache_hit);

    auto algo = dpc::MakeAlgorithmByName(name);
    CHECK(algo.ok());
    const dpc::test::Clustering direct = Cluster(*algo.value(), points, params);
    CHECK(dpc::test::BitIdenticalLabels(response.result->label,
                                        direct.labeling.label));
    CHECK(response.result->centers == direct.labeling.centers);
    const std::shared_ptr<const dpc::DpcSolution> cached =
        server.cache().Lookup(dpc::serve::MakeSolutionKey(
            dpc::FingerprintPoints(points), name, params.compute()));
    CHECK(cached != nullptr);
    CHECK(cached->rho == direct.solution.rho);
    CHECK(cached->delta == direct.solution.delta);
    CHECK(cached->dependency == direct.solution.dependency);
  }
  CHECK_EQ(server.stats().recomputes,
           static_cast<uint64_t>(dpc::RegisteredAlgorithmNames().size()));
}

void TestCoherentStatsSnapshot() {
  // The cross-field invariant the telemetry refactor exists to make
  // observable: every cache lookup is classified exactly once, and
  // stats() copies counters AND occupancy under ONE lock, so
  // lookups == solution_hits + warm_misses + solution_misses holds in
  // every snapshot — including snapshots raced against live traffic.
  const dpc::PointSet points = TestPoints();
  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.memory_budget_bytes = 4u << 20;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const dpc::serve::ServerStats s = server.stats();
      const dpc::serve::SolutionCache::Stats& c = s.cache;
      CHECK_EQ(c.lookups, c.solution_hits + c.warm_misses + c.solution_misses);
    }
  });
  for (int i = 0; i < 6; ++i) {
    dpc::serve::ClusterRequest request;
    request.dataset = "pts";
    request.algorithm = "ex-dpc";
    request.params = TestParams(1500.0 + 250.0 * (i % 3));
    CHECK(server.Submit(request).get().status.ok());
  }
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  const dpc::serve::ServerStats quiesced = server.stats();
  CHECK(quiesced.cache.lookups > 0);
  CHECK_EQ(quiesced.cache.lookups,
           quiesced.cache.solution_hits + quiesced.cache.warm_misses +
               quiesced.cache.solution_misses);
  // The flat legacy fields are views of the same snapshot.
  CHECK_EQ(quiesced.warm_misses, quiesced.cache.warm_misses);
  CHECK_EQ(quiesced.promotions, quiesced.cache.promotions);
}

void TestServerMetricsSurface() {
  // The registry view must agree with ServerStats, and latency
  // histograms must cover every completed request with finite tails.
  const dpc::PointSet points = TestPoints();
  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.memory_budget_bytes = 4u << 20;
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);

  dpc::serve::ClusterRequest request;
  request.dataset = "pts";
  request.algorithm = "ex-dpc";
  request.params = TestParams();
  CHECK(server.Submit(request).get().status.ok());
  CHECK(server.Submit(request).get().cache_hit);

  const std::vector<dpc::obs::MetricSample> samples =
      server.metrics().Snapshot();
  auto find = [&](const std::string& name) -> const dpc::obs::MetricSample* {
    for (const dpc::obs::MetricSample& s : samples) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const dpc::obs::MetricSample* submitted = find("dpc_requests_total");
  const dpc::obs::MetricSample* completed = find("dpc_requests_completed_total");
  const dpc::obs::MetricSample* hits = find("dpc_cache_hits_total");
  const dpc::obs::MetricSample* lookups = find("dpc_cache_lookups_total");
  const dpc::obs::MetricSample* latency = find("dpc_request_latency_seconds");
  CHECK(submitted != nullptr && completed != nullptr && hits != nullptr &&
        lookups != nullptr && latency != nullptr);
  CHECK_EQ(submitted->value, 2.0);
  CHECK_EQ(completed->value, 2.0);
  CHECK_EQ(hits->value, 1.0);
  // The collector publishes the same coherent cache snapshot stats() uses.
  const dpc::obs::MetricSample* sol_hits = find("dpc_cache_solution_hits_total");
  const dpc::obs::MetricSample* sol_misses =
      find("dpc_cache_solution_misses_total");
  const dpc::obs::MetricSample* warm = find("dpc_cache_warm_misses_total");
  CHECK(sol_hits != nullptr && sol_misses != nullptr && warm != nullptr);
  CHECK_EQ(lookups->value, sol_hits->value + sol_misses->value + warm->value);
  // Both requests flowed through the latency recorder; tails are finite.
  CHECK_EQ(latency->histogram.count, uint64_t{2});
  CHECK(std::isfinite(latency->histogram.Percentile(99.0)));
  CHECK(latency->histogram.Percentile(50.0) > 0.0);

  // The exposition formats render this registry without tripping.
  const std::string text = dpc::obs::ToPrometheusText(samples);
  CHECK(text.find("dpc_requests_total 2") != std::string::npos);
  const std::string json = dpc::obs::ToJson(samples);
  CHECK(json.find("\"dpc_requests_total\":2") != std::string::npos);

  // The kernel-tier info gauge: labels ride inside the sample name. The
  // TYPE line must carry the bare family name, the sample line the full
  // labeled name, and the JSON key must escape the embedded quotes (the
  // CI telemetry session feeds this line to a real JSON parser).
  std::string tier_name = "dpc_kernel_tier_info{tier=\"";
  tier_name += dpc::kernels::ActiveTierName();
  tier_name += "\"}";
  const dpc::obs::MetricSample* tier_info = find(tier_name);
  CHECK(tier_info != nullptr);
  CHECK_EQ(tier_info->value, 1.0);
  CHECK(text.find("# TYPE dpc_kernel_tier_info gauge\n") != std::string::npos);
  CHECK(text.find(tier_name + " 1") != std::string::npos);
  CHECK(json.find("dpc_kernel_tier_info{tier=\\\"") != std::string::npos);
}

void TestServerTraceSpans() {
  // With a trace attached, one computed request must produce a span tree
  // whose solve children (re-tiled from DpcStats laps plus the stamp
  // tail) account for the solve span's wall time, and whose spans all
  // parent back to the root "request" span.
  const dpc::PointSet points = TestPoints(17, 1000);
  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.memory_budget_bytes = 0;  // force a real computation
  dpc::serve::ClusterServer server(options);
  server.datasets().Register("pts", points);
  const auto trace = std::make_shared<dpc::obs::Trace>();
  server.set_trace(trace);

  dpc::serve::ClusterRequest request;
  request.dataset = "pts";
  request.algorithm = "ex-dpc";
  request.params = TestParams();
  CHECK(server.Submit(request).get().status.ok());
  server.set_trace(nullptr);
  server.Shutdown();  // joins the executor: the root span is recorded

  const std::vector<dpc::obs::SpanRecord> spans = trace->Snapshot();
  const dpc::obs::SpanRecord* request_span = nullptr;
  const dpc::obs::SpanRecord* solve = nullptr;
  bool saw_queue_wait = false;
  for (const dpc::obs::SpanRecord& span : spans) {
    if (std::string(span.name) == "request") request_span = &span;
    if (std::string(span.name) == "solve") solve = &span;
    if (std::string(span.name) == "queue-wait") saw_queue_wait = true;
  }
  CHECK(request_span != nullptr);
  CHECK(solve != nullptr);
  CHECK(saw_queue_wait);
  CHECK_EQ(solve->parent, request_span->id);

  // Children of the solve span tile its interval: their summed duration
  // lands within 20% of the solve wall time (the acceptance bound).
  double children_seconds = 0.0;
  size_t solve_children = 0;
  for (const dpc::obs::SpanRecord& span : spans) {
    if (span.parent == solve->id) {
      ++solve_children;
      children_seconds += span.duration_seconds();
      CHECK(span.start_ns >= solve->start_ns);
      CHECK(span.end_ns <= solve->end_ns + 1000000);  // 1ms slack
    }
  }
  CHECK(solve_children >= 2);  // at least rho/delta phases + stamp
  const double solve_seconds = solve->duration_seconds();
  CHECK(children_seconds >= 0.8 * solve_seconds);
  CHECK(children_seconds <= 1.2 * solve_seconds);

  // The dump round-trips as a structurally valid Chrome trace array.
  const std::string json = trace->ToChromeJson();
  CHECK(json.front() == '[');
  CHECK(json.find("\"name\":\"request\"") != std::string::npos);
}

}  // namespace

int main() {
  TestFingerprintAndRegistry();
  TestSolutionCacheTwoTier();
  TestSolutionCacheCostAwareEviction();
  TestSolutionCacheByteBudget();
  TestCacheStoreDemotePromote();
  TestSolutionKey();
  TestAdmissionQueuePriority();
  TestServerEndToEnd();
  TestRethresholdAndGraphRequests();
  TestMixedDeadlineBatch();
  TestPriorityOvertakesQueuedRequest();
  TestErrorPaths();
  TestConcurrentSubmissions();
  TestConcurrentExecutionOverlap();
  TestLanesWithinBudget();
  TestEveryAlgorithmServed();
  TestServerStoreStats();
  TestCoherentStatsSnapshot();
  TestServerMetricsSurface();
  TestServerTraceSpans();
  std::printf("serve_test OK\n");
  return 0;
}
