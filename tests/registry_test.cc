// The registry's contract after the full menu landed: every registered
// name constructs and runs end-to-end (no residual UNIMPLEMENTED slots),
// and unknown names still fail with NotFound plus the menu string.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "data/generators.h"
#include "tests/test_util.h"

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 200;
  gen.num_clusters = 3;
  gen.overlap = 0.01;
  gen.seed = 5;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 4000.0;
  params.rho_min = 2.0;
  params.delta_min = 15000.0;
  auto cluster = [&](dpc::DpcAlgorithm& algo) {
    return dpc::FinalizeSolution(
        algo.Solve(points, params.compute(), dpc::ExecutionContext(2)),
        params.threshold());
  };

  // The paper's full menu; new algorithms join the loop below
  // automatically.
  const std::vector<std::string> names = dpc::RegisteredAlgorithmNames();
  CHECK(names.size() >= 7u);

  for (const std::string& name : names) {
    auto algo = dpc::MakeAlgorithmByName(name);
    if (!algo.ok()) {
      std::fprintf(stderr, "'%s' failed to construct: %s\n", name.c_str(),
                   algo.status().ToString().c_str());
      return 1;
    }
    const dpc::DpcResult result = cluster(*algo.value());
    CHECK_EQ(result.label.size(), static_cast<size_t>(points.size()));
    CHECK_EQ(result.rho.size(), static_cast<size_t>(points.size()));
    CHECK_EQ(result.delta.size(), static_cast<size_t>(points.size()));
    CHECK_EQ(result.dependency.size(), static_cast<size_t>(points.size()));
    CHECK(result.num_clusters() >= 1);
    for (const int64_t label : result.label) {
      CHECK(label >= dpc::kUnassigned && label < result.num_clusters());
    }
    std::printf("%-12s -> %s, %lld clusters\n", name.c_str(),
                std::string(algo.value()->name()).c_str(),
                static_cast<long long>(result.num_clusters()));
  }

  // Options-map construction: typed keys wire through; unknown
  // keys and malformed values fail with InvalidArgument naming the key.
  {
    auto tuned = dpc::MakeAlgorithmByName(
        "approx-dpc", {{"scheduler", "static"}});
    CHECK(tuned.ok());
    const dpc::DpcResult r = cluster(*tuned.value());
    CHECK_EQ(r.label.size(), static_cast<size_t>(points.size()));
    CHECK(r.num_clusters() >= 1);

    auto lsh = dpc::MakeAlgorithmByName(
        "lsh-ddp", {{"num_tables", "6"}, {"num_bits", "5"}});
    CHECK(lsh.ok());
    CHECK(cluster(*lsh.value()).num_clusters() >= 1);

    auto bad_key = dpc::MakeAlgorithmByName("ex-dpc", {{"nope", "1"}});
    CHECK(!bad_key.ok());
    CHECK(bad_key.status().code() == dpc::StatusCode::kInvalidArgument);
    CHECK(bad_key.status().message().find("nope") != std::string::npos);

    // Keys the grid solvers do not have fail like any unknown key.
    const std::vector<std::pair<std::string, dpc::OptionsMap>> deleted = {
        {"ex-dpc", {{"sharding", "region"}}},
        {"approx-dpc", {{"sharding", "region"}}},
        {"approx-dpc", {{"joint_range_search", "false"}}},
        {"s-approx-dpc", {{"sample_seed", "7"}}},
    };
    for (const auto& [name, options] : deleted) {
      auto rejected = dpc::MakeAlgorithmByName(name, options);
      CHECK(!rejected.ok());
      CHECK(rejected.status().code() == dpc::StatusCode::kInvalidArgument);
      CHECK(rejected.status().message().find(options.begin()->first) !=
            std::string::npos);
    }

    auto bad_value = dpc::MakeAlgorithmByName(
        "approx-dpc", {{"scheduler", "sometimes"}});
    CHECK(!bad_value.ok());
    CHECK(bad_value.status().code() == dpc::StatusCode::kInvalidArgument);

    auto bad_range = dpc::MakeAlgorithmByName("cfsfdp-a", {{"sample_rate", "2"}});
    CHECK(!bad_range.ok());

    // The CLI's --opt grammar.
    auto parsed = dpc::ParseOptionList({"num_tables=6", "num_bits=5"});
    CHECK(parsed.ok());
    CHECK_EQ(parsed.value().size(), 2u);
    CHECK(!dpc::ParseOptionList({"no-equals-sign"}).ok());
  }

  // Unknown names: NotFound, and the message lists the menu.
  auto missing = dpc::MakeAlgorithmByName("no-such-algorithm");
  CHECK(!missing.ok());
  CHECK(missing.status().code() == dpc::StatusCode::kNotFound);
  const std::string& message = missing.status().message();
  CHECK(message.find("expected one of") != std::string::npos);
  for (const std::string& name : names) {
    CHECK(message.find(name) != std::string::npos);
  }

  std::printf("registry_test OK\n");
  return 0;
}
