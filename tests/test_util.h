// Assertion macros for the dependency-free ctest units, plus the shared
// clustering and bit-identity helpers (dpc::test) that every
// determinism-style test compares results with. A failed CHECK prints
// the expression and location and exits non-zero, which ctest reports as
// the test failure.
#ifndef DPC_TESTS_TEST_UTIL_H_
#define DPC_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/dpc.h"

#define CHECK(cond)                                                          \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__, __LINE__, \
                   #cond);                                                   \
      std::exit(1);                                                          \
    }                                                                        \
  } while (0)

#define CHECK_EQ(a, b)                                                        \
  do {                                                                        \
    const auto va = (a);                                                      \
    const auto vb = (b);                                                      \
    if (!(va == vb)) {                                                        \
      std::fprintf(stderr,                                                    \
                   "CHECK_EQ failed at %s:%d: %s == %s (%.17g vs %.17g)\n",   \
                   __FILE__, __LINE__, #a, #b, static_cast<double>(va),       \
                   static_cast<double>(vb));                                  \
      std::exit(1);                                                           \
    }                                                                         \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                                 \
  do {                                                                        \
    const double va = (a);                                                    \
    const double vb = (b);                                                    \
    if (!(std::fabs(va - vb) <= (tol))) {                                     \
      std::fprintf(stderr,                                                    \
                   "CHECK_NEAR failed at %s:%d: |%s - %s| = %.17g > %.17g\n", \
                   __FILE__, __LINE__, #a, #b, std::fabs(va - vb),            \
                   static_cast<double>(tol));                                 \
      std::exit(1);                                                           \
    }                                                                         \
  } while (0)

namespace dpc::test {

/// One clustering as the library produces it: the compute phase's
/// solution and one threshold's labeling of it.
struct Clustering {
  DpcSolution solution;
  Labeling labeling;
};

/// Solve, then LabelSolution at params.threshold().
inline Clustering Cluster(DpcAlgorithm& algo, const PointSet& points,
                          const DpcParams& params,
                          const ExecutionContext& ctx = ExecutionContext()) {
  Clustering out;
  out.solution = algo.Solve(points, params.compute(), ctx);
  out.labeling = LabelSolution(out.solution, params.threshold());
  return out;
}

/// Exact (bitwise) label equality — the form every determinism assertion
/// in this suite means by "identical".
inline bool BitIdenticalLabels(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  return a == b;
}

/// Asserts two clusterings are bit-identical in every field the library's
/// determinism contract covers: labels, densities, dependent distances,
/// dependency pointers, and centers. Exact double comparison is the
/// point — "close" is a bug here.
inline void AssertSolutionsEqual(const Clustering& a, const Clustering& b) {
  CHECK(a.labeling.label == b.labeling.label);
  CHECK(a.solution.rho == b.solution.rho);
  CHECK(a.solution.delta == b.solution.delta);
  CHECK(a.solution.dependency == b.solution.dependency);
  CHECK(a.labeling.centers == b.labeling.centers);
}

}  // namespace dpc::test

#endif  // DPC_TESTS_TEST_UTIL_H_
