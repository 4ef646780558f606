// Region-sharded execution (core/sharded_dpc.h): the shard plan's
// partition invariants, and the tentpole guarantee — `sharding=region`
// Ex-DPC and Approx-DPC are BIT-IDENTICAL to the unsharded solve across
// shard counts x thread counts, including clusters straddling shard
// boundaries, empty shards, and a single-cell grid. The TSan CI job runs
// this binary (label: concurrency).
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/sharded_dpc.h"
#include "data/generators.h"
#include "index/grid.h"
#include "parallel/execution_context.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

dpc::PointSet TestPoints(uint64_t seed = 41, dpc::PointId n = 4000) {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = n;
  gen.num_clusters = 5;
  gen.noise_rate = 0.02;
  gen.seed = seed;
  return dpc::data::GaussianBenchmark(gen);
}

dpc::DpcParams TestParams(double d_cut = 1800.0) {
  dpc::DpcParams params;
  params.d_cut = d_cut;
  params.rho_min = 2.0;
  params.delta_min = 4.0 * d_cut;
  params.epsilon = 0.5;
  return params;
}

dpc::OptionsMap Sharded(int shards) {
  return {{"sharding", "region"}, {"shards", std::to_string(shards)}};
}

/// One clustering: the compute phase under `ctx`, then the threshold.
dpc::DpcResult Cluster(dpc::DpcAlgorithm& algo, const dpc::PointSet& points,
                       const dpc::DpcParams& params,
                       const dpc::ExecutionContext& ctx) {
  return dpc::FinalizeSolution(algo.Solve(points, params.compute(), ctx),
                               params.threshold());
}

/// A hand-built tight 2-D blob at (1000, 1000): with d_cut = 1e6 the
/// grid side is ~7.07e5, so every point lands in cell (0, 0) —
/// a GUARANTEED single-cell grid (generator output could straddle a
/// cell boundary at any scale).
dpc::PointSet TinyBlob() {
  dpc::PointSet points(2);
  for (int i = 0; i < 64; ++i) {
    const double p[2] = {1000.0 + 13.0 * (i % 8), 1000.0 + 17.0 * (i / 8)};
    points.Add(p);
  }
  return points;
}

/// The plan must partition the points: every point owned by exactly one
/// shard, halos disjoint from their shard's owned set, costs = |owned|.
void CheckPlanInvariants(const dpc::PointSet& points,
                         const dpc::RegionShardPlan& plan) {
  std::vector<int> owners(static_cast<size_t>(points.size()), 0);
  for (size_t si = 0; si < plan.shards.size(); ++si) {
    const dpc::RegionShard& shard = plan.shards[si];
    CHECK_EQ(plan.costs[si], static_cast<double>(shard.owned.size()));
    const std::set<dpc::PointId> owned(shard.owned.begin(), shard.owned.end());
    CHECK_EQ(owned.size(), shard.owned.size());  // ascending, no dups
    for (const dpc::PointId p : shard.owned) {
      owners[static_cast<size_t>(p)] += 1;
    }
    for (const dpc::PointId h : shard.halo) {
      CHECK(owned.find(h) == owned.end());  // halo never owns
    }
  }
  for (const int o : owners) CHECK_EQ(o, 1);  // exactly-once ownership
}

void TestPlanInvariants() {
  const dpc::PointSet points = TestPoints();
  const double d_cut = 1800.0;
  const dpc::UniformGrid grid(
      points, d_cut / std::sqrt(static_cast<double>(points.dim())));
  CHECK(grid.num_cells() > 1);  // the sweep below actually exercises cuts
  for (const int shards : {1, 2, 4, 7, 64}) {
    const dpc::RegionShardPlan plan =
        dpc::BuildRegionShardPlan(grid, d_cut, shards);
    CHECK_EQ(plan.shards.size(), static_cast<size_t>(shards));
    CheckPlanInvariants(points, plan);
  }

  // More shards than cells leaves trailing shards empty — still a valid
  // partition (the 64-shard sweep above usually exercises this too, but
  // a single-cell grid makes it certain).
  const dpc::PointSet blob = TinyBlob();
  const dpc::UniformGrid one_cell(blob, 1e6 / std::sqrt(2.0));
  CHECK_EQ(one_cell.num_cells(), 1);
  const dpc::RegionShardPlan plan =
      dpc::BuildRegionShardPlan(one_cell, 1e6, 4);
  CheckPlanInvariants(blob, plan);
  CHECK_EQ(plan.shards[0].owned.size(), static_cast<size_t>(blob.size()));
  for (int si = 1; si < 4; ++si) {
    CHECK(plan.shards[static_cast<size_t>(si)].cells.empty());
    CHECK(plan.shards[static_cast<size_t>(si)].owned.empty());
    CHECK(plan.shards[static_cast<size_t>(si)].halo.empty());
  }
}

/// The tentpole: for both grid algorithms, every (shards x threads)
/// combination of region sharding lands on the SAME BITS as the
/// unsharded single-thread solve — labels, rho, delta, dependency,
/// centers.
void TestShardedBitIdentity() {
  const dpc::PointSet points = TestPoints();
  const dpc::DpcParams params = TestParams();
  auto pool = std::make_shared<dpc::ThreadPool>(8);

  for (const std::string& name : {std::string("ex-dpc"),
                                  std::string("approx-dpc")}) {
    auto baseline_algo = dpc::MakeAlgorithmByName(name);
    CHECK(baseline_algo.ok());
    const dpc::ExecutionContext serial(1, dpc::ScheduleStrategy::kStatic,
                                       pool);
    const dpc::DpcResult baseline =
        Cluster(*baseline_algo.value(), points, params, serial);
    CHECK(baseline.num_clusters() > 0);

    for (const int shards : {1, 2, 4, 7}) {
      auto algo = dpc::MakeAlgorithmByName(name, Sharded(shards));
      CHECK(algo.ok());
      for (const int threads : {1, 2, 8}) {
        const dpc::ExecutionContext ctx(
            threads, dpc::ScheduleStrategy::kCostGuided, pool);
        const dpc::DpcResult sharded = Cluster(*algo.value(), points, params, ctx);
        dpc::test::AssertSolutionsEqual(baseline, sharded);
      }
      std::printf("%-12s shards=%d identical across threads\n", name.c_str(),
                  shards);
    }
  }
}

/// Clusters deliberately straddling every shard boundary: a line of
/// touching blobs along x, cut into 4 contiguous shards — each cut falls
/// inside a blob, so dependent-distance chains cross shards. A small
/// d_cut gives a fine grid (many cells per blob).
void TestBoundaryStraddlingClusters() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 3000;
  gen.num_clusters = 4;
  gen.noise_rate = 0.0;
  gen.seed = 97;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);
  const dpc::DpcParams params = TestParams(600.0);  // fine grid

  for (const std::string& name : {std::string("ex-dpc"),
                                  std::string("approx-dpc")}) {
    auto baseline_algo = dpc::MakeAlgorithmByName(name);
    const dpc::DpcResult baseline =
        Cluster(*baseline_algo.value(), points, params, dpc::ExecutionContext(1));
    for (const int shards : {4, 7}) {
      auto algo = dpc::MakeAlgorithmByName(name, Sharded(shards));
      CHECK(algo.ok());
      const dpc::DpcResult sharded =
          Cluster(*algo.value(), points, params, dpc::ExecutionContext(4));
      dpc::test::AssertSolutionsEqual(baseline, sharded);
    }
  }
}

/// Degenerate shapes the solvers must absorb: a single-cell grid (one
/// shard owns everything, the rest are empty) and more shards than
/// cells.
void TestDegenerateShapes() {
  const dpc::PointSet blob = TinyBlob();
  dpc::DpcParams params;
  params.d_cut = 1e6;  // cell side exceeds the blob: one cell
  params.rho_min = 2.0;
  params.delta_min = 4.0 * params.d_cut;
  params.epsilon = 0.5;

  for (const std::string& name : {std::string("ex-dpc"),
                                  std::string("approx-dpc")}) {
    auto baseline_algo = dpc::MakeAlgorithmByName(name);
    const dpc::DpcResult baseline =
        Cluster(*baseline_algo.value(), blob, params, dpc::ExecutionContext(1));
    for (const int shards : {1, 4}) {
      auto algo = dpc::MakeAlgorithmByName(name, Sharded(shards));
      const dpc::DpcResult sharded =
          Cluster(*algo.value(), blob, params, dpc::ExecutionContext(2));
      dpc::test::AssertSolutionsEqual(baseline, sharded);
    }
  }

  // Empty input.
  auto algo = dpc::MakeAlgorithmByName("ex-dpc", Sharded(4));
  const dpc::PointSet empty(2);
  const dpc::DpcResult none =
      Cluster(*algo.value(), empty, TestParams(), dpc::ExecutionContext(2));
  CHECK_EQ(none.label.size(), 0u);
}

/// The sharded paths honor the stop state like every other solve: a
/// cancelled context yields the interrupted result shape.
void TestShardedInterruption() {
  const dpc::PointSet points = TestPoints(41, 1500);
  for (const std::string& name : {std::string("ex-dpc"),
                                  std::string("approx-dpc")}) {
    auto algo = dpc::MakeAlgorithmByName(name, Sharded(4));
    dpc::ExecutionContext cancelled(2);
    cancelled.RequestCancel();
    const dpc::DpcResult result =
        Cluster(*algo.value(), points, TestParams(), cancelled);
    CHECK(result.stats.interrupted);
    for (const int64_t label : result.label) {
      CHECK_EQ(label, dpc::kUnassigned);
    }
  }
}

/// The sharding knobs validate like every other option and stay unknown
/// to algorithms that don't take them.
void TestShardingOptionValidation() {
  CHECK(dpc::MakeAlgorithmByName("ex-dpc", {{"sharding", "region"}}).ok());
  CHECK(dpc::MakeAlgorithmByName("ex-dpc", {{"sharding", "none"}}).ok());
  CHECK(!dpc::MakeAlgorithmByName("ex-dpc", {{"sharding", "diagonal"}}).ok());
  CHECK(!dpc::MakeAlgorithmByName("ex-dpc", {{"shards", "-1"}}).ok());
  CHECK(!dpc::MakeAlgorithmByName("ex-dpc", {{"shards", "x"}}).ok());
  // Unknown keys still rejected (consume-tracking reader).
  CHECK(!dpc::MakeAlgorithmByName("ex-dpc", {{"shardz", "4"}}).ok());
}

}  // namespace

int main() {
  TestPlanInvariants();
  TestShardedBitIdentity();
  TestBoundaryStraddlingClusters();
  TestDegenerateShapes();
  TestShardedInterruption();
  TestShardingOptionValidation();
  std::printf("shard_test OK\n");
  return 0;
}
