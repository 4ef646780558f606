// core/options.h canonicalization: semantically identical `--opt`
// spellings must render to one canonical string (the serving layer's
// result-cache key depends on this), while semantically different option
// sets must stay distinct.
#include <cstdio>
#include <string>
#include <vector>

#include "core/options.h"
#include "tests/test_util.h"

namespace {

dpc::OptionsMap Parse(const std::vector<std::string>& items) {
  auto parsed = dpc::ParseOptionList(items);
  CHECK(parsed.ok());
  return parsed.value();
}

}  // namespace

int main() {
  // Value-level normalization: numbers re-render via %.17g...
  CHECK(dpc::CanonicalOptionValue("0.50") == std::string("0.5"));
  CHECK(dpc::CanonicalOptionValue("5e-1") == std::string("0.5"));
  CHECK(dpc::CanonicalOptionValue(".5") == std::string("0.5"));
  CHECK(dpc::CanonicalOptionValue("02") == std::string("2"));
  CHECK(dpc::CanonicalOptionValue("2") == std::string("2"));
  CHECK(dpc::CanonicalOptionValue("1e3") == std::string("1000"));
  CHECK(dpc::CanonicalOptionValue("-07") == std::string("-7"));
  // Exact integers canonicalize through int64, not double: values above
  // 2^53 that differ by 1 must NOT collapse to one cache key.
  CHECK(dpc::CanonicalOptionValue("9007199254740993") ==
        std::string("9007199254740993"));
  CHECK(dpc::CanonicalOptionValue("9007199254740993") !=
        dpc::CanonicalOptionValue("9007199254740992"));
  CHECK(dpc::CanonicalOptionValue("09007199254740993") ==
        std::string("9007199254740993"));
  // ...and everything else (enum values, malformed numerics, overflow)
  // is preserved byte-for-byte.
  CHECK(dpc::CanonicalOptionValue("lpt") == std::string("lpt"));
  CHECK(dpc::CanonicalOptionValue("static") == std::string("static"));
  CHECK(dpc::CanonicalOptionValue("") == std::string(""));
  CHECK(dpc::CanonicalOptionValue("1.5x") == std::string("1.5x"));
  CHECK(dpc::CanonicalOptionValue("1e999") == std::string("1e999"));

  // The regression this exists for: different CLI spellings of one
  // configuration canonicalize to one string (and therefore one cache
  // key), regardless of --opt order.
  const dpc::OptionsMap a = Parse({"sample_rate=0.50", "num_tables=08"});
  const dpc::OptionsMap b = Parse({"num_tables=8", "sample_rate=5e-1"});
  CHECK(dpc::CanonicalOptionsString(a) == dpc::CanonicalOptionsString(b));
  CHECK(dpc::CanonicalOptionsString(a) ==
        std::string("num_tables=8,sample_rate=0.5"));

  // Semantically different values stay distinct.
  const dpc::OptionsMap c = Parse({"sample_rate=0.25"});
  const dpc::OptionsMap d = Parse({"sample_rate=0.5"});
  CHECK(dpc::CanonicalOptionsString(c) != dpc::CanonicalOptionsString(d));

  // Both spellings parse to the same values through OptionsReader.
  for (const dpc::OptionsMap* spelling : {&a, &b}) {
    double rate = 0.0;
    int tables = 0;
    dpc::OptionsReader reader(*spelling);  // OptionsReader holds a reference
    reader.Double("sample_rate", &rate).Int("num_tables", &tables);
    CHECK(reader.status().ok());
    CHECK_EQ(rate, 0.5);
    CHECK_EQ(tables, 8);
  }

  // Empty map -> empty canonical string.
  CHECK(dpc::CanonicalOptionsString(dpc::OptionsMap{}) == std::string(""));

  std::printf("options_test OK\n");
  return 0;
}
