// Determinism guarantees: identical results across repeated runs and
// across thread counts (the parallel phases only write disjoint per-point
// slots; ties are broken by id, never by arrival order — so claimed
// grains land on the same bits at any thread count) — and identical to
// a committed golden table, so a change that moves an output the same
// way at every thread count still fails here.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cfsfdp_a.h"
#include "baselines/lsh_ddp.h"
#include "core/approx_dpc.h"
#include "core/ex_dpc.h"
#include "core/registry.h"
#include "core/rng.h"
#include "core/s_approx_dpc.h"
#include "data/generators.h"
#include "index/grid.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "tests/test_util.h"

namespace {

using dpc::test::Cluster;
using dpc::test::Clustering;

/// True when `algo`'s grid for `compute` has enough cells that ParallelFor
/// hands its cell loop to the pool instead of running it inline.
bool CellLoopRunsOnPool(const dpc::ApproxDpc& algo, const dpc::PointSet& points,
                        const dpc::ComputeParams& compute) {
  const dpc::UniformGrid grid(points, algo.CellSide(compute, points.dim()));
  return grid.num_cells() >= dpc::internal::kMinParallelIterations;
}

/// The golden table's hash: a splitmix64 finalizer folded over 64-bit
/// words (doubles by bit pattern, vectors prefixed by their length).
/// Deliberately separate from the library's Fnv1aBytes, so a change to
/// the library's hashing cannot move the table.
class GoldenHash {
 public:
  void Add(uint64_t word) {
    uint64_t z = h_ ^ word;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h_ = z ^ (z >> 31);
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const T v : values) Add(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0;
};

uint64_t HashInput(const dpc::PointSet& points) {
  GoldenHash h;
  h.Add(static_cast<int64_t>(points.dim()));
  h.Add(points.raw());
  return h.value();
}

uint64_t HashSolution(const dpc::DpcSolution& solution) {
  GoldenHash h;
  h.Add(solution.rho);
  h.Add(solution.delta);
  h.Add(solution.dependency);
  h.Add(solution.density_order);
  return h.value();
}

// Golden inputs. Each is built from Rng::NextDouble / NextBelow draws
// with +, * and integer lattices only — no libm call whose last bit could
// differ between C libraries (NextGaussian's log/sin/cos would).

/// 8,000 2-D points around a 4x4 lattice of centers 2000 apart. Each
/// offset is a product of two uniforms, so density peaks at the centers.
dpc::PointSet LatticeBlobs2d() {
  dpc::Rng rng(2021);
  dpc::PointSet points(2);
  for (int i = 0; i < 8000; ++i) {
    const double cx = 2000.0 * static_cast<double>(i % 4);
    const double cy = 2000.0 * static_cast<double>((i / 4) % 4);
    const double p[2] = {cx + 900.0 * rng.Uniform(-1.0, 1.0) * rng.NextDouble(),
                         cy + 900.0 * rng.Uniform(-1.0, 1.0) * rng.NextDouble()};
    points.Add(p);
  }
  return points;
}

/// 3,000 3-D points on integer lattice sites: eight 6x6x6 blocks of
/// spacing 10, 100 apart. About 1.7 points share each site, so rho ties,
/// zero deltas and equidistant neighbours are everywhere — the id
/// tie-breaks decide most dependencies.
dpc::PointSet DuplicateLattice3d() {
  dpc::Rng rng(7);
  dpc::PointSet points(3);
  for (int i = 0; i < 3000; ++i) {
    double p[3];
    for (int d = 0; d < 3; ++d) {
      p[d] = 100.0 * static_cast<double>((i >> d) & 1) +
             10.0 * static_cast<double>(rng.NextBelow(6));
    }
    points.Add(p);
  }
  return points;
}

/// 3,000 7-D points, each coordinate a product of two uniforms on
/// [0, 1000): dense near the origin, sparse in the far corner.
dpc::PointSet SkewedUniform7d() {
  dpc::Rng rng(77);
  dpc::PointSet points(7);
  for (int i = 0; i < 3000; ++i) {
    double* p = points.AddUninitialized();
    for (int d = 0; d < 7; ++d) p[d] = 1000.0 * rng.NextDouble() * rng.NextDouble();
  }
  return points;
}

struct GoldenRow {
  const char* algorithm;
  uint64_t solution_hash;
};

struct GoldenInput {
  const char* name;
  dpc::PointSet (*make)();
  uint64_t input_hash;
  double d_cut;
  GoldenRow rows[6];
};

/// Hashes of rho, delta, dependency and density_order per (input,
/// algorithm) at epsilon 0.5, the same at 1 and 4 threads. A change that
/// moves an output on purpose regenerates the rows it moves (the test
/// prints every computed hash) and lists them in its change notes.
const GoldenInput kGolden[] = {
    {"lattice-blobs-2d", LatticeBlobs2d, 0x23aa3777af3fc988ULL, 150.0,
     {{"ex-dpc", 0x623756285eb76fbeULL},
      {"approx-dpc", 0x709314ba42eb5137ULL},
      {"s-approx-dpc", 0x6574ee72d599ebe0ULL},
      {"scan", 0x623756285eb76fbeULL},
      {"rtree-scan", 0x623756285eb76fbeULL},
      {"cfsfdp-a", 0xc38cfe2f58943741ULL}}},
    {"duplicate-lattice-3d", DuplicateLattice3d, 0xd0374ab6d1b1f9b8ULL, 25.0,
     {{"ex-dpc", 0x56f28ac567a395efULL},
      {"approx-dpc", 0xdaa641521c4f6f78ULL},
      {"s-approx-dpc", 0x56f28ac567a395efULL},
      {"scan", 0x56f28ac567a395efULL},
      {"rtree-scan", 0x56f28ac567a395efULL},
      {"cfsfdp-a", 0xe677c17b2708a8beULL}}},
    {"skewed-uniform-7d", SkewedUniform7d, 0xf0f453e6f0b782d5ULL, 250.0,
     {{"ex-dpc", 0xb9b6f732f8d3fe28ULL},
      {"approx-dpc", 0x0698577bad17675aULL},
      {"s-approx-dpc", 0xb9b6f732f8d3fe28ULL},
      {"scan", 0xb9b6f732f8d3fe28ULL},
      {"rtree-scan", 0xb9b6f732f8d3fe28ULL},
      {"cfsfdp-a", 0x58dc0b202ba382cdULL}}},
};

/// Solves every golden input with every golden algorithm at 1 and 4
/// threads and compares each hash with the table. Prints every computed
/// hash, so a deliberate output change can regenerate its rows.
void CheckGoldenTable() {
  bool ok = true;
  for (const GoldenInput& input : kGolden) {
    const dpc::PointSet points = input.make();
    const uint64_t input_hash = HashInput(points);
    std::printf("golden %-20s input        0x%016" PRIx64 "\n", input.name,
                input_hash);
    if (input_hash != input.input_hash) {
      std::fprintf(stderr, "golden input %s drifted: 0x%016" PRIx64 "\n",
                   input.name, input_hash);
      ok = false;
      continue;
    }
    const dpc::ComputeParams compute{input.d_cut, 0.5};
    for (const GoldenRow& row : input.rows) {
      auto algo = dpc::MakeAlgorithmByName(row.algorithm);
      CHECK(algo.ok());
      for (const int threads : {1, 4}) {
        const uint64_t got = HashSolution(
            algo.value()->Solve(points, compute, dpc::ExecutionContext(threads)));
        std::printf("golden %-20s %-12s %d 0x%016" PRIx64 "\n", input.name,
                    row.algorithm, threads, got);
        if (got != row.solution_hash) {
          std::fprintf(stderr, "golden mismatch: %s %s at %d threads\n",
                       input.name, row.algorithm, threads);
          ok = false;
        }
      }
    }
  }
  CHECK(ok);
}

}  // namespace

int main() {
  // The first golden input's grids reach ParallelFor's inline cutoff, so
  // its grid rows cover the cell loop on the pool at 4 threads.
  {
    const dpc::PointSet points = kGolden[0].make();
    const dpc::ComputeParams compute{kGolden[0].d_cut, 0.5};
    CHECK(CellLoopRunsOnPool(dpc::ApproxDpc(), points, compute));
    CHECK(CellLoopRunsOnPool(dpc::SApproxDpc(), points, compute));
  }
  CheckGoldenTable();

  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 8000;
  gen.num_clusters = 6;
  gen.noise_rate = 0.02;
  gen.seed = 99;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  // Same seed => bit-identical dataset.
  const dpc::PointSet again = dpc::data::GaussianBenchmark(gen);
  CHECK(points.raw() == again.raw());

  dpc::DpcParams params;
  params.d_cut = 1500.0;
  params.rho_min = 5.0;
  params.delta_min = 8000.0;

  // Two inputs per grid solver: at d_cut 1500 the grids are small (793
  // cells; 1,930 for S-Approx-DPC at epsilon 0.5) and the cell loop runs
  // inline; at d_cut 500 they pass ParallelFor's inline cutoff (3,142
  // and 5,735 cells), so the pool's grains run the cell loop.
  const double kPoolCellsDCut = 500.0;
  for (const double d_cut : {params.d_cut, kPoolCellsDCut}) {
    dpc::DpcParams p = params;
    p.d_cut = d_cut;
    for (const bool approx : {false, true}) {
      dpc::ExDpc exact_algo;
      dpc::ApproxDpc approx_algo;
      dpc::DpcAlgorithm& algo =
          approx ? static_cast<dpc::DpcAlgorithm&>(approx_algo)
                 : static_cast<dpc::DpcAlgorithm&>(exact_algo);
      if (approx && d_cut == kPoolCellsDCut) {
        CHECK(CellLoopRunsOnPool(approx_algo, points, p.compute()));
      }

      const dpc::ExecutionContext one(1);
      const Clustering serial = Cluster(algo, points, p, one);
      const Clustering serial2 = Cluster(algo, points, p, one);
      dpc::test::AssertSolutionsEqual(serial, serial2);

      const Clustering parallel =
          Cluster(algo, points, p, dpc::ExecutionContext(4));
      dpc::test::AssertSolutionsEqual(serial, parallel);

      CHECK(serial.labeling.num_clusters() > 0);
    }
  }

  // The sampled algorithms draw their randomness from seeded hashes
  // (LSH projection directions, CFSFDP-A's sample), never from thread
  // scheduling, and S-Approx-DPC's one count per cell depends only on
  // the cell — labels stay bit-identical across 1/2/8 workers.
  // S-Approx-DPC also runs the d_cut 500 input, at 1/2/4/8 workers.
  {
    dpc::LshDdp lsh_ddp;
    dpc::SApproxDpc s_approx;
    dpc::CfsfdpA cfsfdp_a;
    dpc::DpcParams p = params;
    p.epsilon = 0.5;
    for (dpc::DpcAlgorithm* algo :
         {static_cast<dpc::DpcAlgorithm*>(&lsh_ddp),
          static_cast<dpc::DpcAlgorithm*>(&s_approx),
          static_cast<dpc::DpcAlgorithm*>(&cfsfdp_a)}) {
      const Clustering serial =
          Cluster(*algo, points, p, dpc::ExecutionContext(1));
      for (const int threads : {2, 8}) {
        dpc::test::AssertSolutionsEqual(
            serial, Cluster(*algo, points, p, dpc::ExecutionContext(threads)));
      }
      CHECK(serial.labeling.num_clusters() > 0);
    }

    p.d_cut = kPoolCellsDCut;
    CHECK(CellLoopRunsOnPool(s_approx, points, p.compute()));
    const Clustering serial =
        Cluster(s_approx, points, p, dpc::ExecutionContext(1));
    for (const int threads : {2, 4, 8}) {
      dpc::test::AssertSolutionsEqual(
          serial, Cluster(s_approx, points, p, dpc::ExecutionContext(threads)));
    }
    CHECK(serial.labeling.num_clusters() > 0);
  }

  // Thread sweep: every registered algorithm at {1, 2, 8} threads, all
  // through ONE shared ThreadPool — labels must be bit-identical to the
  // 1-thread baseline. (A smaller input keeps the quadratic baselines affordable
  // while still exceeding the parallel-region threshold.)
  {
    dpc::data::GaussianBenchmarkParams small = gen;
    small.num_points = 3000;
    small.seed = 123;
    const dpc::PointSet pts = dpc::data::GaussianBenchmark(small);
    dpc::DpcParams p = params;
    p.epsilon = 0.5;

    auto pool = std::make_shared<dpc::ThreadPool>(8);
    for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      const dpc::ExecutionContext base(1, pool);
      const Clustering baseline = Cluster(*algo.value(), pts, p, base);
      CHECK(baseline.labeling.num_clusters() > 0);
      for (const int threads : {1, 2, 8}) {
        const dpc::ExecutionContext ctx(threads, pool);
        dpc::test::AssertSolutionsEqual(baseline,
                                        Cluster(*algo.value(), pts, p, ctx));
      }
      std::printf("%-12s identical across threads\n", name.c_str());
    }
  }

  // Degenerate inputs, every registered algorithm: an empty 2-D set
  // yields no labels, and a 64-point blob that fits in ONE grid cell
  // (d_cut = 1e6 puts the cell side near 7.07e5) is bit-identical
  // across 1/2/8 threads.
  {
    dpc::PointSet blob(2);
    for (int i = 0; i < 64; ++i) {
      const double p[2] = {1000.0 + 13.0 * (i % 8), 1000.0 + 17.0 * (i / 8)};
      blob.Add(p);
    }
    dpc::DpcParams p;
    p.d_cut = 1e6;
    p.rho_min = 2.0;
    p.delta_min = 4.0 * p.d_cut;
    p.epsilon = 0.5;
    const dpc::PointSet empty(2);
    for (const std::string& name : dpc::RegisteredAlgorithmNames()) {
      auto algo = dpc::MakeAlgorithmByName(name);
      CHECK(algo.ok());
      CHECK_EQ(Cluster(*algo.value(), empty, p, dpc::ExecutionContext(2))
                   .labeling.label.size(),
               0u);
      const Clustering serial =
          Cluster(*algo.value(), blob, p, dpc::ExecutionContext(1));
      CHECK_EQ(serial.labeling.label.size(), static_cast<size_t>(blob.size()));
      for (const int threads : {2, 8}) {
        dpc::test::AssertSolutionsEqual(
            serial,
            Cluster(*algo.value(), blob, p, dpc::ExecutionContext(threads)));
      }
    }
  }

  std::printf("determinism_test OK\n");
  return 0;
}
