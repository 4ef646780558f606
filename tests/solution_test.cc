// The compute/threshold split (core/dpc.h): DpcParams factoring into
// ComputeParams + ThresholdSpec, the DpcSolution artifact every registry
// algorithm produces, and the invariant the serving layer's two-tier
// cache rests on — finalizing one solution is bit-identical to a fresh
// solve at each point of a whole (rho_min, delta_min) grid; and the
// density order every solution carries, serial and on the pool.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_graph.h"
#include "core/registry.h"
#include "data/generators.h"
#include "parallel/execution_context.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet TestPoints(dpc::PointId n = 1500) {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = n;
  gen.num_clusters = 4;
  gen.noise_rate = 0.02;
  gen.seed = 77;
  return dpc::data::GaussianBenchmark(gen);
}

/// The comparison-sort reference DensityOrder must reproduce.
std::vector<dpc::PointId> SortedDensityOrder(const std::vector<double>& rho) {
  std::vector<dpc::PointId> order(rho.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<dpc::PointId>(i);
  }
  std::sort(order.begin(), order.end(), [&rho](dpc::PointId a, dpc::PointId b) {
    return dpc::DenserThan(rho[static_cast<size_t>(a)], a,
                           rho[static_cast<size_t>(b)], b);
  });
  return order;
}

void TestParamsFactoring() {
  dpc::DpcParams params;
  params.d_cut = 1000.0;
  params.rho_min = 5.0;
  params.delta_min = 4000.0;
  params.epsilon = 0.5;

  const dpc::ComputeParams compute = params.compute();
  CHECK_EQ(compute.d_cut, 1000.0);
  CHECK_EQ(compute.epsilon, 0.5);
  const dpc::ThresholdSpec threshold = params.threshold();
  CHECK_EQ(threshold.rho_min, 5.0);
  CHECK_EQ(threshold.delta_min, 4000.0);

  // The split validators carve up exactly the flat bundle's checks.
  CHECK(params.Validate().ok());
  CHECK(compute.Validate().ok());
  CHECK(threshold.Validate(params.d_cut).ok());
  dpc::ComputeParams bad_compute = compute;
  bad_compute.d_cut = 0.0;
  CHECK(!bad_compute.Validate().ok());
  dpc::ThresholdSpec bad_threshold = threshold;
  bad_threshold.delta_min = 500.0;  // below d_cut
  CHECK(!bad_threshold.Validate(params.d_cut).ok());
  bad_threshold.delta_min = 4000.0;
  bad_threshold.rho_min = -1.0;
  CHECK(!bad_threshold.Validate(params.d_cut).ok());
}

void TestOneSolutionMatchesFreshSolvesForAllAlgorithms() {
  const dpc::PointSet points = TestPoints();
  const double d_cut = 2500.0;

  for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
    auto algo = dpc::MakeAlgorithmByName(name);
    CHECK(algo.ok());

    dpc::ComputeParams compute;
    compute.d_cut = d_cut;
    compute.epsilon = 0.5;
    const dpc::DpcSolution solution =
        algo.value()->Solve(points, compute, dpc::ExecutionContext(2));

    // Artifact metadata: identity, cost, and the precomputed order. The
    // cost is the one sum of the phase laps; the cache weighs exactly it.
    CHECK(solution.algorithm == std::string(algo.value()->name()));
    CHECK_EQ(solution.compute.d_cut, d_cut);
    CHECK_EQ(solution.size(), points.size());
    CHECK(!solution.interrupted());
    CHECK(solution.compute_cost_seconds >= 0.0);
    CHECK_EQ(solution.compute_cost_seconds,
             solution.stats.build_seconds + solution.stats.rho_seconds +
                 solution.stats.delta_seconds);
    CHECK(solution.density_order == SortedDensityOrder(solution.rho));

    // The acceptance invariant: across a (rho_min, delta_min) grid,
    // labeling the ONE solution is bit-identical to labeling a fresh
    // solve — labels, centers, rho, delta, dependency.
    for (const double rho_min : {0.0, 2.0, 8.0}) {
      for (const double delta_mult : {1.5, 3.0, 6.0}) {
        dpc::ThresholdSpec spec;
        spec.rho_min = rho_min;
        spec.delta_min = delta_mult * d_cut;
        const dpc::test::Clustering from_solution{
            solution, dpc::LabelSolution(solution, spec)};

        auto fresh_algo = dpc::MakeAlgorithmByName(name);
        dpc::test::Clustering fresh;
        fresh.solution = fresh_algo.value()->Solve(points, compute,
                                                   dpc::ExecutionContext(2));
        fresh.labeling = dpc::LabelSolution(fresh.solution, spec);

        dpc::test::AssertSolutionsEqual(from_solution, fresh);
      }
    }
  }
}

void TestInterruptedSolve() {
  const dpc::PointSet points = TestPoints();
  dpc::ComputeParams compute;
  compute.d_cut = 2500.0;

  dpc::ExecutionContext cancelled(2);
  cancelled.RequestCancel();
  auto algo = dpc::MakeAlgorithmByName("ex-dpc");
  const dpc::DpcSolution solution =
      algo.value()->Solve(points, compute, cancelled);
  CHECK(solution.interrupted());
  CHECK(solution.density_order.empty());  // never built for a dead solve

  // Labeling an interrupted solution yields the interrupted shape: every
  // label kUnassigned, no centers.
  dpc::ThresholdSpec spec;
  spec.rho_min = 2.0;
  spec.delta_min = 9000.0;
  const dpc::Labeling result = dpc::LabelSolution(solution, spec);
  CHECK_EQ(result.label.size(), static_cast<size_t>(points.size()));
  for (const int64_t label : result.label) CHECK_EQ(label, dpc::kUnassigned);
  CHECK_EQ(result.centers.size(), 0u);
}

void TestDensityOrderMatchesComparisonSort() {
  const std::vector<std::vector<double>> cases = {
      {},                              // empty input
      {3.0, 1.0, 3.0, 0.0, 1.0, 3.0},  // ties: ids ascend within a rho
      {2.0, 2.0, 2.0, 2.0},            // all-equal rho
      {1.5, 0.0, 2.25, 1.5},           // non-integral: comparison fallback
      {0.0, 9.0, 1.0},                 // rho >= n: comparison fallback
      {-1.0, 0.0, 1.0},                // negative: comparison fallback
  };
  for (const std::vector<double>& rho : cases) {
    CHECK(dpc::DensityOrder(rho) == SortedDensityOrder(rho));
  }
}

/// The pooled counting sort is the serial order at every thread count:
/// heavy ties (a handful of rho values, so every bucket spans every
/// chunk), spread-out rho (more buckets than a thread's chunk holds,
/// which the pooled path hands to the serial one), n on either side of
/// the pool cutoff, and the comparison-sort fallback (a fractional or a
/// negative rho anywhere in an otherwise countable input).
void TestPooledDensityOrder() {
  const auto cutoff = static_cast<size_t>(dpc::internal::kMinParallelIterations);
  dpc::Rng rng(404);
  for (const size_t n : {cutoff - 1, cutoff, cutoff + 1, size_t{50000}}) {
    std::vector<std::vector<double>> cases;
    for (const uint64_t distinct : {uint64_t{1}, uint64_t{3}, uint64_t{40}, uint64_t{n}}) {
      std::vector<double> rho(n);
      for (double& r : rho) r = static_cast<double>(rng.NextBelow(distinct));
      cases.push_back(rho);
    }
    std::vector<double> fractional = cases[2];
    fractional[n / 2] = 2.5;
    cases.push_back(fractional);
    std::vector<double> negative = cases[2];
    negative[n - 1] = -1.0;
    cases.push_back(negative);
    for (const std::vector<double>& rho : cases) {
      const std::vector<dpc::PointId> expected = SortedDensityOrder(rho);
      CHECK(dpc::DensityOrder(rho) == expected);
      for (const int threads : {1, 2, 3, 4, 8}) {
        const dpc::ExecutionContext exec(threads,
                                         std::make_shared<dpc::ThreadPool>(threads));
        CHECK(dpc::DensityOrder(rho, &exec) == expected);
      }
    }
  }
}

void TestTopGammaPoints() {
  // gamma = rho * delta with the +inf peak capped just above the largest
  // finite delta: ranking is deterministic and NaN-free even for a
  // zero-density peak.
  const std::vector<double> rho = {10.0, 0.0, 5.0, 5.0};
  const std::vector<double> delta = {std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::infinity(),
                                     8.0, 8.0};
  const auto top = dpc::TopGammaPoints(rho, delta, 3);
  CHECK_EQ(top.size(), 3u);
  CHECK_EQ(top[0].id, 0);  // 10 * cap(8.4) = 84
  CHECK_EQ(top[1].id, 2);  // ties (5*8) break by id asc
  CHECK_EQ(top[2].id, 3);
  CHECK(std::isfinite(top[0].gamma));
  // Asking for more than n returns n entries; k <= 0 returns none.
  CHECK_EQ(dpc::TopGammaPoints(rho, delta, 99).size(), rho.size());
  CHECK_EQ(dpc::TopGammaPoints(rho, delta, 0).size(), 0u);
}

}  // namespace

int main() {
  TestParamsFactoring();
  TestOneSolutionMatchesFreshSolvesForAllAlgorithms();
  TestInterruptedSolve();
  TestDensityOrderMatchesComparisonSort();
  TestPooledDensityOrder();
  TestTopGammaPoints();
  std::printf("solution_test OK\n");
  return 0;
}
