// Machine-readable benchmark output: a tiny schema-stable JSON writer
// shared by every bench binary's --json mode (scripts/record_bench.py
// aggregates the files into the repo-level BENCH_*.json trajectory, and
// scripts/check_bench_regression.py gates CI on them).
//
// Schema (version 1):
//   {
//     "schema": 1,
//     "bench": "<binary name>",
//     "config": {"<key>": "<string value>", ...},
//     "results": [
//       {"name": "<case>", "metrics": {"<metric>": <number>, ...}},
//       ...
//     ]
//   }
//
// Doubles are printed with %.17g (round-trip exact); the writer never
// emits timestamps or hostnames on its own — keep machine-identifying
// config out unless a comparison script needs it, so committed baselines
// do not churn.
#ifndef DPC_EVAL_BENCH_JSON_H_
#define DPC_EVAL_BENCH_JSON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace dpc::eval {

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  // String values are stored pre-quoted. Built with sequential appends
  // rather than chained operator+ — gcc-12 raises a spurious -Wrestrict
  // on literal + temporary concatenation chains.
  void AddConfig(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += JsonEscape(value);
    quoted += '"';
    config_.emplace_back(key, std::move(quoted));
  }
  void AddConfig(const std::string& key, double value) {
    config_.emplace_back(key, FormatNumber(value));
  }
  void AddConfig(const std::string& key, int64_t value) {
    config_.emplace_back(key, std::to_string(value));
  }

  /// Starts a result entry; subsequent AddMetric calls attach to it.
  void BeginResult(const std::string& name) {
    results_.push_back({name, {}});
  }
  void AddMetric(const std::string& metric, double value) {
    results_.back().metrics.emplace_back(metric, value);
  }

  /// Serializes the document. Stable key order (insertion order), so
  /// diffs of committed baselines stay reviewable.
  std::string ToJson() const {
    // Sequential appends throughout (no chained operator+): gcc-12 emits
    // a spurious -Wrestrict for literal + temporary concatenation chains.
    std::string out = "{\n  \"schema\": 1,\n  \"bench\": \"";
    out += JsonEscape(bench_);
    out += "\",\n  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    \"";
      out += JsonEscape(config_[i].first);
      out += "\": ";
      out += config_[i].second;
    }
    out += config_.empty() ? "},\n" : "\n  },\n";
    out += "  \"results\": [";
    for (size_t i = 0; i < results_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      const Result& r = results_[i];
      out += "    {\"name\": \"";
      out += JsonEscape(r.name);
      out += "\", \"metrics\": {";
      for (size_t k = 0; k < r.metrics.size(); ++k) {
        if (k > 0) out += ", ";
        out += "\"";
        out += JsonEscape(r.metrics[k].first);
        out += "\": ";
        out += FormatNumber(r.metrics[k].second);
      }
      out += "}}";
    }
    out += results_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
  }

  /// Writes the document to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string doc = ToJson();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Result {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  static std::string FormatNumber(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    // JSON has no inf/nan literals; clamp to null-safe sentinel.
    std::string s(buf);
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos) {
      return "null";
    }
    return s;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Result> results_;
};

}  // namespace dpc::eval

#endif  // DPC_EVAL_BENCH_JSON_H_
