// data/generators.h contract: cardinality, dimensionality, domain bounds,
// noise-rate bounds, ground-truth consistency, seed (in)equality, and the
// real-like stand-ins clustering non-degenerately at their papers'
// default d_cut.
#include <cstdio>
#include <vector>

#include "core/approx_dpc.h"
#include "data/generators.h"
#include "data/real_like.h"
#include "tests/test_util.h"

namespace {

void CheckInDomain(const dpc::PointSet& points, double domain) {
  for (dpc::PointId i = 0; i < points.size(); ++i) {
    for (int d = 0; d < points.dim(); ++d) {
      CHECK(points.Coord(i, d) >= 0.0);
      CHECK(points.Coord(i, d) <= domain);
    }
  }
}

}  // namespace

int main() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 5000;
  gen.num_clusters = 7;
  gen.dim = 3;
  gen.domain = 5e4;
  gen.overlap = 0.02;
  gen.noise_rate = 0.1;
  gen.seed = 1234;

  std::vector<int64_t> truth;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen, &truth);
  CHECK_EQ(points.size(), gen.num_points);
  CHECK_EQ(points.dim(), gen.dim);
  CHECK_EQ(static_cast<dpc::PointId>(truth.size()), gen.num_points);
  CheckInDomain(points, gen.domain);

  // Truth labels are component ids in [0, k) or kNoise, and the realized
  // noise fraction is within 4 sigma of the requested Bernoulli rate.
  int64_t noise = 0;
  for (const int64_t t : truth) {
    CHECK(t == dpc::kNoise || (t >= 0 && t < gen.num_clusters));
    if (t == dpc::kNoise) ++noise;
  }
  const double rate = static_cast<double>(noise) / static_cast<double>(gen.num_points);
  CHECK_NEAR(rate, gen.noise_rate, 4.0 * 0.3 / std::sqrt(5000.0) + 0.01);

  // Same seed reproduces; a different seed must differ.
  CHECK(points.raw() == dpc::data::GaussianBenchmark(gen).raw());
  gen.seed = 1235;
  CHECK(points.raw() != dpc::data::GaussianBenchmark(gen).raw());

  // Random walk: bounds, size, determinism.
  dpc::data::RandomWalkParams walk;
  walk.num_points = 20000;
  walk.noise_rate = 0.05;
  walk.seed = 9;
  const dpc::PointSet syn = dpc::data::RandomWalk(walk);
  CHECK_EQ(syn.size(), walk.num_points);
  CHECK_EQ(syn.dim(), walk.dim);
  CheckInDomain(syn, walk.domain);
  CHECK(syn.raw() == dpc::data::RandomWalk(walk).raw());

  // Real-like stand-ins: four specs, deterministic, spec-shaped.
  CHECK_EQ(static_cast<int>(dpc::data::RealDatasetSpecs().size()), 4);
  const auto& sensor = dpc::data::RealDatasetSpecByName("Sensor");
  CHECK_EQ(sensor.dim, 8);
  const dpc::PointSet feed = dpc::data::MakeRealLike(sensor, 3000);
  CHECK_EQ(feed.size(), 3000);
  CHECK_EQ(feed.dim(), 8);
  CHECK(feed.raw() == dpc::data::MakeRealLike(sensor, 3000).raw());

  // The Sensor-like stand-in must cluster NON-degenerately at the
  // paper's default d_cut (5000): enough within-d_cut neighbors that a
  // modest rho_min keeps most points, and several of the 20 planted
  // modes recovered. (This regressed to "everything is noise" before the
  // spread was rescaled for chi^2_dim concentration — see real_like.h.)
  {
    dpc::DpcParams params;
    params.d_cut = sensor.default_d_cut;
    params.rho_min = 4.0;
    params.delta_min = 5.0 * sensor.default_d_cut;
    const dpc::Labeling result = dpc::LabelSolution(
        dpc::ApproxDpc().Solve(feed, params.compute(), dpc::ExecutionContext()),
        params.threshold());
    CHECK(result.num_clusters() >= 4);
    CHECK(result.num_clusters() <= 40);
    int64_t noise = 0;
    for (dpc::PointId i = 0; i < feed.size(); ++i) {
      if (result.is_noise(i)) ++noise;
    }
    CHECK(noise < feed.size() / 2);
  }

  // Bernoulli subsampling is deterministic and approximately sized.
  const dpc::PointSet half = points.Sample(0.5, 77);
  CHECK(half.size() > 2000 && half.size() < 3000);
  CHECK(half.raw() == points.Sample(0.5, 77).raw());

  std::printf("generators_test OK\n");
  return 0;
}
