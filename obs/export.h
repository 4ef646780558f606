// Exposition formats over MetricRegistry snapshots:
//
//   ToPrometheusText — the Prometheus text format (# TYPE lines,
//       cumulative `_bucket{le="..."}` rows, `_sum`/`_count`). Empty
//       buckets are elided (cumulative values stay correct — the
//       format allows sparse buckets), and each histogram additionally
//       emits NON-standard convenience gauges `<name>_p50/_p99/_p999`
//       so a shell one-liner can grep a quantile without a PromQL
//       evaluator (see docs/OBSERVABILITY.md).
//   ToJson — one flat JSON object: counters/gauges as numbers,
//       histograms as {count, sum, mean, p50, p99, p999}. Infinities
//       (an overflowed percentile) render as null — JSON has no inf
//       literal — so "p99 is finite" is checkable as "not null".
//
// Both render doubles with %.17g (round-trip exact) and emit samples in
// the snapshot's order (MetricRegistry::Snapshot sorts by name), so
// output is stable run to run for equal metric values.
#ifndef DPC_OBS_EXPORT_H_
#define DPC_OBS_EXPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dpc::obs {

namespace internal {

inline std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// %.17g, with non-finite values clamped to JSON null.
inline std::string FormatJsonNumber(double value) {
  std::string s = FormatDouble(value);
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

/// The metric family name for `# TYPE` lines: the name minus any
/// embedded label block.
inline void AppendFamilyName(const std::string& name, std::string* out) {
  const size_t brace = name.find('{');
  out->append(name, 0, brace == std::string::npos ? name.size() : brace);
}

inline void AppendPrometheusHistogram(const MetricSample& sample,
                                      std::string* out) {
  const HistogramSnapshot& h = sample.histogram;
  *out += "# TYPE ";
  *out += sample.name;
  *out += " histogram\n";
  uint64_t cumulative = 0;
  for (int i = 0; i < HistogramBuckets::kNumBounds; ++i) {
    const uint64_t in_bucket = h.counts[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;  // sparse: cumulative rows stay correct
    cumulative += in_bucket;
    *out += sample.name;
    *out += "_bucket{le=\"";
    *out += FormatDouble(HistogramBuckets::Bound(i));
    *out += "\"} ";
    *out += std::to_string(cumulative);
    *out += '\n';
  }
  *out += sample.name;
  *out += "_bucket{le=\"+Inf\"} ";
  *out += std::to_string(h.count);
  *out += '\n';
  *out += sample.name;
  *out += "_sum ";
  *out += FormatDouble(h.sum);
  *out += '\n';
  *out += sample.name;
  *out += "_count ";
  *out += std::to_string(h.count);
  *out += '\n';
  // Convenience quantile gauges (non-standard; see header comment).
  const struct {
    const char* suffix;
    double q;
  } quantiles[] = {{"_p50", 50.0}, {"_p99", 99.0}, {"_p999", 99.9}};
  for (const auto& [suffix, q] : quantiles) {
    *out += "# TYPE ";
    *out += sample.name;
    *out += suffix;
    *out += " gauge\n";
    *out += sample.name;
    *out += suffix;
    *out += ' ';
    *out += FormatDouble(h.Percentile(q));
    *out += '\n';
  }
}

}  // namespace internal

inline std::string ToPrometheusText(const std::vector<MetricSample>& samples) {
  std::string out;
  for (const MetricSample& sample : samples) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        out += "# TYPE ";
        internal::AppendFamilyName(sample.name, &out);
        out += " counter\n";
        out += sample.name;
        out += ' ';
        out += internal::FormatDouble(sample.value);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += "# TYPE ";
        internal::AppendFamilyName(sample.name, &out);
        out += " gauge\n";
        out += sample.name;
        out += ' ';
        out += internal::FormatDouble(sample.value);
        out += '\n';
        break;
      case MetricKind::kHistogram:
        internal::AppendPrometheusHistogram(sample, &out);
        break;
    }
  }
  return out;
}

inline std::string ToJson(const std::vector<MetricSample>& samples) {
  std::string out = "{";
  bool first = true;
  for (const MetricSample& sample : samples) {
    out += first ? "" : ",";
    first = false;
    // Sample names may embed a Prometheus label block (e.g.
    // dpc_kernel_tier_info{tier="avx2"}), whose quotes a JSON key escapes.
    out += '"';
    out += JsonEscape(sample.name);
    out += "\":";
    if (sample.kind == MetricKind::kHistogram) {
      const HistogramSnapshot& h = sample.histogram;
      out += "{\"count\":";
      out += std::to_string(h.count);
      out += ",\"sum\":";
      out += internal::FormatJsonNumber(h.sum);
      out += ",\"mean\":";
      out += internal::FormatJsonNumber(h.Mean());
      out += ",\"p50\":";
      out += internal::FormatJsonNumber(h.Percentile(50.0));
      out += ",\"p99\":";
      out += internal::FormatJsonNumber(h.Percentile(99.0));
      out += ",\"p999\":";
      out += internal::FormatJsonNumber(h.Percentile(99.9));
      out += '}';
    } else {
      out += internal::FormatJsonNumber(sample.value);
    }
  }
  out += "}";
  return out;
}

}  // namespace dpc::obs

#endif  // DPC_OBS_EXPORT_H_
