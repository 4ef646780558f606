// The registry's contract after the full menu landed: every registered
// name constructs and runs end-to-end (no stub slots),
// and unknown names still fail with NotFound plus the menu string.
#include <cstdio>
#include <string>
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
    return dpc::test::Cluster(algo, points, params, dpc::ExecutionContext(2));
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
    const auto [solution, labeling] = cluster(*algo.value());
    CHECK_EQ(labeling.label.size(), static_cast<size_t>(points.size()));
    CHECK_EQ(solution.rho.size(), static_cast<size_t>(points.size()));
    CHECK_EQ(solution.delta.size(), static_cast<size_t>(points.size()));
    CHECK_EQ(solution.dependency.size(), static_cast<size_t>(points.size()));
    CHECK(labeling.num_clusters() >= 1);
    for (const int64_t label : labeling.label) {
      CHECK(label >= dpc::kUnassigned && label < labeling.num_clusters());
    }
    std::printf("%-12s -> %s, %lld clusters\n", name.c_str(),
                std::string(algo.value()->name()).c_str(),
                static_cast<long long>(labeling.num_clusters()));
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
