// Decision-graph helpers: the graph is delta-sorted, SuggestDeltaMinForK
// re-thresholds one solution to exactly k clusters via LabelSolution,
// the gap heuristic finds the planted k on separated data, and the CSV
// writer produces a parseable file.
#include <cstdio>
#include <string>
#include <vector>

#include "core/decision_graph.h"
#include "core/ex_dpc.h"
#include "core/halo.h"
#include "core/registry.h"
#include "data/generators.h"
#include "tests/test_util.h"

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 8000;
  gen.num_clusters = 9;
  gen.overlap = 0.015;
  gen.noise_rate = 0.01;
  gen.seed = 31;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 1200.0;
  params.rho_min = 4.0;

  const dpc::DpcSolution solution =
      dpc::ExDpc().Solve(points, params.compute(), dpc::ExecutionContext());

  const auto graph = dpc::BuildDecisionGraph(solution);
  CHECK_EQ(static_cast<dpc::PointId>(graph.size()), points.size());
  for (size_t i = 1; i < graph.size(); ++i) {
    CHECK(graph[i - 1].delta >= graph[i].delta);
  }

  // Exactly-k selection while k honest centers exist.
  for (const int k : {3, 6, 9}) {
    dpc::ThresholdSpec spec = params.threshold();
    spec.delta_min = dpc::SuggestDeltaMinForK(solution, params, k);
    CHECK(spec.delta_min > params.d_cut);
    CHECK_EQ(dpc::LabelSolution(solution, spec).num_clusters(), k);
  }

  // Asking for more centers than separable clusters must not push the
  // threshold to or below d_cut (which would admit grid-approximated
  // deltas as centers) — it yields the honest count instead.
  {
    dpc::ThresholdSpec spec = params.threshold();
    spec.delta_min = dpc::SuggestDeltaMinForK(solution, params, 500);
    CHECK(spec.delta_min > params.d_cut);
    const dpc::Labeling labeling = dpc::LabelSolution(solution, spec);
    CHECK(labeling.num_clusters() <= 500);
    CHECK(labeling.num_clusters() >= 9);
  }

  // The gap heuristic lands on the planted cluster count.
  dpc::ThresholdSpec gap_spec = params.threshold();
  gap_spec.delta_min = dpc::SuggestDeltaMinByGap(solution, params);
  const dpc::Labeling labeling = dpc::LabelSolution(solution, gap_spec);
  CHECK_EQ(labeling.num_clusters(), 9);

  // Halo: sizes bounded by cluster membership, noise never in a halo.
  const dpc::HaloResult halo = dpc::ComputeHalo(points, solution, labeling);
  CHECK_EQ(static_cast<int64_t>(halo.halo_size.size()), labeling.num_clusters());
  for (size_t i = 0; i < labeling.label.size(); ++i) {
    if (labeling.label[i] < 0) CHECK(halo.in_halo[i] == 0);
  }

  // Registry round-trip plus a precise error for unknown names (full
  // per-algorithm coverage lives in registry_test).
  auto made = dpc::MakeAlgorithmByName("ex-dpc");
  CHECK(made.ok());
  CHECK(made.value()->name() == "Ex-DPC");
  CHECK(dpc::MakeAlgorithmByName("s-approx-dpc").ok());
  CHECK(dpc::MakeAlgorithmByName("nope").status().code() ==
        dpc::StatusCode::kNotFound);

  // CSV writer emits header + one row per point.
  const std::string path = "decision_graph_test.csv";
  CHECK(dpc::WriteDecisionGraphCsv(graph, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  CHECK(f != nullptr);
  int64_t lines = 0;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    if (c == '\n') ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  CHECK_EQ(lines, static_cast<int64_t>(graph.size()) + 1);

  std::printf("decision_graph_test OK\n");
  return 0;
}
