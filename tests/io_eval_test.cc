// data/io.h round-trips (CSV and binary), eval/ metric sanity (Rand
// index, ARI, cluster summaries), and the checked number parsers the
// command-line tools read their flags and request keys with.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/dpc.h"
#include "data/generators.h"
#include "data/io.h"
#include "eval/cluster_stats.h"
#include "eval/rand_index.h"
#include "tests/test_util.h"

namespace {

void TestIoRoundTrip() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 500;
  gen.dim = 3;
  gen.seed = 8;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  const std::string csv = "io_eval_test.csv";
  const std::string bin = "io_eval_test.bin";
  CHECK(dpc::data::SaveCsv(points, csv).ok());
  CHECK(dpc::data::SaveBinary(points, bin).ok());

  auto from_csv = dpc::data::LoadCsv(csv);
  CHECK(from_csv.ok());
  CHECK_EQ(from_csv.value().size(), points.size());
  CHECK_EQ(from_csv.value().dim(), points.dim());
  for (dpc::PointId i = 0; i < points.size(); ++i) {
    for (int d = 0; d < points.dim(); ++d) {
      // %.17g round-trips doubles exactly.
      CHECK_EQ(from_csv.value().Coord(i, d), points.Coord(i, d));
    }
  }

  auto from_bin = dpc::data::LoadBinary(bin);
  CHECK(from_bin.ok());
  CHECK(from_bin.value().raw() == points.raw());

  // Labeled CSV: one row per point, trailing label column.
  std::vector<int64_t> label(static_cast<size_t>(points.size()), 0);
  label[0] = dpc::kNoise;
  CHECK(dpc::data::SaveLabeledCsv(points, label, csv).ok());
  auto labeled = dpc::data::LoadCsv(csv);
  CHECK(labeled.ok());
  CHECK_EQ(labeled.value().dim(), points.dim() + 1);
  CHECK_EQ(static_cast<int64_t>(labeled.value().Coord(0, points.dim())),
           dpc::kNoise);

  CHECK(!dpc::data::LoadCsv("does_not_exist.csv").ok());
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

// A leading header (or preamble) row is skipped; dimensionality is
// inferred from the first data row; later non-numeric rows still fail.
void TestCsvHeader() {
  const std::string path = "io_eval_header_test.csv";

  auto write = [&](const char* contents) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    CHECK(f != nullptr);
    std::fputs(contents, f);
    std::fclose(f);
  };

  write("x,y\n1,2\n3,4\n");
  auto with_header = dpc::data::LoadCsv(path);
  CHECK(with_header.ok());
  CHECK_EQ(with_header.value().size(), 2);
  CHECK_EQ(with_header.value().dim(), 2);
  CHECK_EQ(with_header.value().Coord(0, 0), 1.0);
  CHECK_EQ(with_header.value().Coord(1, 1), 4.0);

  // Headerless files load identically (the header skip must not consume
  // a data row).
  write("1,2\n3,4\n");
  auto headerless = dpc::data::LoadCsv(path);
  CHECK(headerless.ok());
  CHECK(headerless.value().raw() == with_header.value().raw());

  // Column names with numeric prefixes (strtod half-eats "nan..." and
  // "2d...") are still recognized as a header.
  write("nanoseconds,count\n1,2\n3,4\n");
  auto nan_header = dpc::data::LoadCsv(path);
  CHECK(nan_header.ok());
  CHECK(nan_header.value().raw() == with_header.value().raw());
  write("2d_x,2d_y\n1,2\n3,4\n");
  CHECK(dpc::data::LoadCsv(path).ok());

  // A header alone has no points; garbage after data is still an error,
  // and so are non-finite coordinates.
  write("x,y\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1,2\nnot,numbers\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1,2\nnan,4\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1,2\ninf,4\n");
  CHECK(!dpc::data::LoadCsv(path).ok());

  // Only ONE leading row may be skipped: a second unparsable row is an
  // error, never silent data loss.
  write("x,y\nalso,bad\n1,2\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1x,2\nnot,num\n1,2\n");
  CHECK(!dpc::data::LoadCsv(path).ok());

  std::remove(path.c_str());
}

void TestMetrics() {
  const std::vector<int64_t> a = {0, 0, 0, 1, 1, 1, 2, 2, -1};
  // Identical partitions (under relabeling) score 1.0 on both metrics.
  const std::vector<int64_t> relabeled = {5, 5, 5, 3, 3, 3, 7, 7, 9};
  CHECK_NEAR(dpc::eval::RandIndex(a, relabeled), 1.0, 1e-12);
  CHECK_NEAR(dpc::eval::AdjustedRandIndex(a, relabeled), 1.0, 1e-12);

  // Known hand-computed case: merge clusters 1 and 2 of `a`.
  const std::vector<int64_t> merged = {0, 0, 0, 1, 1, 1, 1, 1, -1};
  // Disagreeing pairs: the 6 (cluster-1 x cluster-2) pairs; total C(9,2)=36.
  CHECK_NEAR(dpc::eval::RandIndex(a, merged), 30.0 / 36.0, 1e-12);
  CHECK(dpc::eval::AdjustedRandIndex(a, merged) < 1.0);
  CHECK(dpc::eval::AdjustedRandIndex(a, merged) > 0.0);

  // Chance-level agreement: ARI near 0, far below Rand.
  const std::vector<int64_t> left = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int64_t> across = {0, 1, 0, 1, 0, 1, 0, 1};
  CHECK(std::fabs(dpc::eval::AdjustedRandIndex(left, across)) < 0.2);

  const dpc::Labeling labeling{{0, 0, 1, 1, 1, dpc::kNoise, dpc::kUnassigned},
                               {0, 2}};
  const auto summary = dpc::eval::Summarize(labeling);
  CHECK_EQ(summary.num_points, 7);
  CHECK_EQ(summary.num_clusters, 2);
  CHECK_EQ(summary.num_noise, 1);
  CHECK_EQ(summary.num_unassigned, 1);
  CHECK_EQ(summary.largest_cluster, 3);
  CHECK(!dpc::eval::ToString(summary).empty());
}

/// The whole token must parse, and an integer must fit its type; a
/// failed parse leaves the output untouched.
void TestNumberParsing() {
  double d = -7.0;
  CHECK(dpc::ParseNumber("12", &d) && d == 12.0);
  CHECK(dpc::ParseNumber("-3", &d) && d == -3.0);
  CHECK(dpc::ParseNumber("1e3", &d) && d == 1000.0);
  CHECK(dpc::ParseNumber("99999999999999999999", &d) && d == 1e20);
  d = -7.0;
  for (const char* bad : {"", "abc", "3x", "5km", "1e999", " 1"}) {
    CHECK(!dpc::ParseNumber(bad, &d));
    CHECK_EQ(d, -7.0);
  }

  int i = -7;
  CHECK(dpc::ParseNumber("12", &i) && i == 12);
  CHECK(dpc::ParseNumber("-3", &i) && i == -3);
  CHECK(dpc::ParseNumber("2147483647", &i) && i == 2147483647);
  i = -7;
  for (const char* bad :
       {"1e3", "", "abc", "3x", "99999999999999999999", "2147483648"}) {
    CHECK(!dpc::ParseNumber(bad, &i));
    CHECK_EQ(i, -7);
  }

  int64_t wide = 0;
  CHECK(!dpc::ParseNumber("99999999999999999999", &wide));
  CHECK(dpc::ParseNumber("9999999999", &wide) && wide == 9999999999);
  uint64_t seed = 5;
  CHECK(dpc::ParseNumber("18446744073709551615", &seed) &&
        seed == 18446744073709551615u);
  CHECK(!dpc::ParseNumber("-3", &seed));
  CHECK_EQ(seed, 18446744073709551615u);
}

}  // namespace

int main() {
  TestIoRoundTrip();
  TestCsvHeader();
  TestMetrics();
  TestNumberParsing();
  std::printf("io_eval_test OK\n");
  return 0;
}
