// Units for obs/ — the telemetry layer's contracts, in the order the
// header promises them:
//
//   determinism    — the bucket ladder is a fixed table (exact octave
//                    doubling, platform-independent), Percentile is a
//                    pure function of the counts array.
//   concurrency    — counters/histograms/registries/traces survive
//                    threaded hammering with exact totals (the TSan CI
//                    job re-runs this binary under `-L obs`).
//   zero cost off  — the disabled-tracing hot path (null-trace
//                    ScopedSpan, Counter::Inc, Histogram::Observe)
//                    performs ZERO heap allocations, asserted through a
//                    counting global operator new.
//   span trees     — explicit parent ids compose across threads; the
//                    Chrome export is structurally valid JSON.
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/execution_context.h"
#include "test_util.h"

// ---- counting allocator: every global new/delete in this binary ------
namespace {
std::atomic<uint64_t> g_allocations{0};

// Out of line so gcc cannot inline std::free into a delete call site and
// pair it with the visible operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void FreeAllocation(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { FreeAllocation(p); }
void operator delete[](void* p) noexcept { FreeAllocation(p); }
void operator delete(void* p, std::size_t) noexcept { FreeAllocation(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeAllocation(p); }

namespace {

using dpc::obs::Histogram;
using dpc::obs::HistogramBuckets;
using dpc::obs::HistogramSnapshot;
using dpc::obs::MetricKind;
using dpc::obs::MetricRegistry;
using dpc::obs::MetricSample;
using dpc::obs::ScopedSpan;
using dpc::obs::SpanRecord;
using dpc::obs::Trace;

void TestBucketBounds() {
  // The ladder starts at exactly 1ns and doubles exactly every 4 steps
  // (ldexp is exact power-of-two scaling; the sub-bucket constants are
  // shared between octaves).
  CHECK_EQ(HistogramBuckets::Bound(0), 1e-9);
  for (int i = 0; i + HistogramBuckets::kSubBuckets <
                  HistogramBuckets::kNumBounds;
       ++i) {
    CHECK_EQ(HistogramBuckets::Bound(i + HistogramBuckets::kSubBuckets),
             2.0 * HistogramBuckets::Bound(i));
  }
  // Strictly increasing, ~19% relative steps.
  for (int i = 1; i < HistogramBuckets::kNumBounds; ++i) {
    const double ratio =
        HistogramBuckets::Bound(i) / HistogramBuckets::Bound(i - 1);
    CHECK(ratio > 1.18 && ratio < 1.20);
  }
  // Coverage: the top bound exceeds 900s (15-minute requests still
  // report finite percentiles).
  CHECK(HistogramBuckets::Bound(HistogramBuckets::kNumBounds - 1) > 900.0);

  // BucketFor: zero and negatives land in bucket 0; a bound is counted
  // by its OWN bucket (v <= bound inclusive); just above moves up one;
  // beyond the last bound and NaN land in the overflow bucket.
  CHECK_EQ(HistogramBuckets::BucketFor(0.0), 0);
  CHECK_EQ(HistogramBuckets::BucketFor(-3.5), 0);
  for (int i = 0; i < HistogramBuckets::kNumBounds; i += 17) {
    CHECK_EQ(HistogramBuckets::BucketFor(HistogramBuckets::Bound(i)), i);
    CHECK_EQ(HistogramBuckets::BucketFor(HistogramBuckets::Bound(i) * 1.001),
             i + 1);
  }
  CHECK_EQ(HistogramBuckets::BucketFor(1e9), HistogramBuckets::kNumBounds);
  CHECK_EQ(HistogramBuckets::BucketFor(std::nan("")),
           HistogramBuckets::kNumBounds);
}

void TestPercentileMath() {
  // Empty histogram: percentiles are 0 by contract.
  HistogramSnapshot empty;
  CHECK_EQ(empty.Percentile(50.0), 0.0);
  CHECK_EQ(empty.Percentile(99.9), 0.0);

  // Hand-built snapshot: 4 observations in bucket 10 — interpolation
  // inside the bucket is exact and deterministic: rank k of 4 sits at
  // lower + (upper - lower) * k/4.
  HistogramSnapshot four;
  four.counts[10] = 4;
  four.count = 4;
  const double lower = HistogramBuckets::Bound(9);
  const double upper = HistogramBuckets::Bound(10);
  CHECK_EQ(four.Percentile(25.0), lower + (upper - lower) * 0.25);
  CHECK_EQ(four.Percentile(50.0), lower + (upper - lower) * 0.5);
  CHECK_EQ(four.Percentile(100.0), upper);
  // q=0 clamps to rank 1 (the smallest observation's bucket).
  CHECK_EQ(four.Percentile(0.0), lower + (upper - lower) * 0.25);

  // A recorded uniform grid: percentiles track the true quantiles within
  // one bucket's ~19% relative resolution, and are monotone in q.
  Histogram hist;
  for (int ms = 1; ms <= 1000; ++ms) hist.Observe(static_cast<double>(ms) * 1e-3);
  const HistogramSnapshot snapshot = hist.Snapshot();
  CHECK_EQ(snapshot.count, uint64_t{1000});
  const double p50 = snapshot.Percentile(50.0);
  const double p99 = snapshot.Percentile(99.0);
  const double p999 = snapshot.Percentile(99.9);
  CHECK(p50 > 0.5 * 0.8 && p50 < 0.5 * 1.2);
  CHECK(p99 > 0.99 * 0.8 && p99 < 0.99 * 1.2);
  CHECK(p50 <= p99 && p99 <= p999);
  CHECK(std::isfinite(p999));
  CHECK_NEAR(snapshot.Mean(), 0.5005, 1e-9);

  // Determinism: an identical observation sequence yields bitwise-equal
  // quantiles (Percentile is a pure function of counts).
  Histogram again;
  for (int ms = 1; ms <= 1000; ++ms) again.Observe(static_cast<double>(ms) * 1e-3);
  CHECK_EQ(again.Snapshot().Percentile(99.0), p99);

  // Overflow: one observation beyond the last bound makes the max +inf
  // — "p99 is finite" is the health assertion CI scripts make, so the
  // overflow bucket must NOT silently clamp.
  Histogram overflow;
  overflow.Observe(5000.0);  // ~83 minutes, beyond the ladder
  CHECK(std::isinf(overflow.Snapshot().Percentile(99.0)));
}

void TestRegistry() {
  MetricRegistry registry;
  // Get-or-create returns stable references: same name, same object.
  dpc::obs::Counter& c1 = registry.counter("requests_total");
  dpc::obs::Counter& c2 = registry.counter("requests_total");
  CHECK(&c1 == &c2);
  c1.Inc();
  c2.Inc(2);
  CHECK_EQ(c1.value(), uint64_t{3});

  registry.histogram("latency").Observe(0.25);

  // Collectors publish at scrape time (the coherent-snapshot mechanism);
  // they are where every gauge comes from.
  registry.AddCollector([](std::vector<MetricSample>* out) {
    out->push_back(MetricSample::FromGauge("collected", 42.0));
    out->push_back(MetricSample::FromGauge("depth", -7.0));
  });

  const std::vector<MetricSample> samples = registry.Snapshot();
  CHECK_EQ(samples.size(), size_t{4});
  // Sorted by name.
  for (size_t i = 1; i < samples.size(); ++i) {
    CHECK(samples[i - 1].name < samples[i].name);
  }
  CHECK_EQ(samples[0].name == "collected", true);
  CHECK_EQ(samples[0].value, 42.0);
  CHECK_EQ(samples[1].name == "depth", true);
  CHECK_EQ(samples[1].value, -7.0);
  CHECK(samples[2].kind == MetricKind::kHistogram);
  CHECK_EQ(samples[2].histogram.count, uint64_t{1});
  CHECK_EQ(samples[3].value, 3.0);
}

void TestRegistryConcurrency() {
  // N threads hammer one counter and one histogram through the registry
  // while another thread scrapes — totals must come out exact, and TSan
  // must stay quiet.
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      dpc::obs::Counter& counter = registry.counter("ops");
      Histogram& hist = registry.histogram("lat");
      for (int i = 0; i < kPerThread; ++i) {
        counter.Inc();
        hist.Observe(static_cast<double>(t + 1) * 1e-4);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  CHECK_EQ(registry.counter("ops").value(),
           uint64_t{kThreads} * uint64_t{kPerThread});
  const HistogramSnapshot snapshot = registry.histogram("lat").Snapshot();
  CHECK_EQ(snapshot.count, uint64_t{kThreads} * uint64_t{kPerThread});
  CHECK_NEAR(snapshot.sum,
             kPerThread * 1e-4 * (kThreads * (kThreads + 1) / 2.0), 1e-6);
}

void TestSpanParenting() {
  // A root span opened on this thread parents children recorded from
  // OTHER threads — the parent id is explicit, no thread-local relay.
  Trace trace;
  ScopedSpan root(&trace, "request");
  CHECK(root.enabled());
  const uint64_t root_id = root.id();
  CHECK(root_id != 0);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&trace, root_id] {
      ScopedSpan child(&trace, "shard/work", root_id);
      ScopedSpan grandchild(&trace, "shard/inner", child.id());
      grandchild.End();
      child.End();
    });
  }
  for (std::thread& w : workers) w.join();
  root.End();
  root.End();  // idempotent: must not double-record

  const std::vector<SpanRecord> spans = trace.Snapshot();
  CHECK_EQ(spans.size(), size_t{9});  // 4 x (child + grandchild) + root
  size_t children = 0;
  size_t grandchildren = 0;
  for (const SpanRecord& span : spans) {
    CHECK(span.id != 0);
    CHECK(span.end_ns >= span.start_ns);
    if (span.parent == root_id) ++children;
  }
  for (const SpanRecord& span : spans) {
    for (const SpanRecord& parent : spans) {
      if (span.parent == parent.id && parent.parent == root_id) {
        ++grandchildren;
      }
    }
  }
  CHECK_EQ(children, size_t{4});
  CHECK_EQ(grandchildren, size_t{4});
  // Ids are unique within the trace.
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i + 1; j < spans.size(); ++j) {
      CHECK(spans[i].id != spans[j].id);
    }
  }

  // RecordComplete: retroactive intervals clamp end >= start.
  const uint64_t retro = trace.RecordComplete("queue-wait", root_id, 100, 50);
  CHECK(retro != 0);
  const std::vector<SpanRecord> all = trace.Snapshot();
  CHECK_EQ(all.back().start_ns, uint64_t{100});
  CHECK_EQ(all.back().end_ns, uint64_t{100});
}

void TestExecutionContextPropagation() {
  // The trace and parent id travel with ExecutionContext copies, so
  // worker lambdas deep inside the solver can open correctly-parented
  // spans with `exec.Span(...)` and zero plumbing.
  const auto trace = std::make_shared<Trace>();
  dpc::ExecutionContext ctx;
  CHECK(ctx.trace() == nullptr);
  {
    ScopedSpan off = ctx.Span("nothing");
    CHECK(!off.enabled());
  }
  CHECK_EQ(trace->size(), size_t{0});

  const dpc::ExecutionContext traced = ctx.WithTrace(trace, 77);
  CHECK(traced.trace() == trace.get());
  CHECK_EQ(traced.span_parent(), uint64_t{77});
  // Copies keep the trace.
  const dpc::ExecutionContext derived = traced;
  {
    ScopedSpan span = derived.Span("phase");
    CHECK(span.enabled());
  }
  const std::vector<SpanRecord> spans = trace->Snapshot();
  CHECK_EQ(spans.size(), size_t{1});
  CHECK_EQ(spans[0].parent, uint64_t{77});
}

void TestChromeJson() {
  Trace empty;
  CHECK(empty.ToChromeJson() == "[]\n");

  Trace trace;
  trace.RecordComplete("alpha", 0, 1000, 3500);
  trace.RecordComplete("beta \\ \"quote\"", 0, 2000, 2400);
  const std::string json = trace.ToChromeJson();
  // Structural validity (CI round-trips it through a real JSON parser;
  // here: array framing, one object per span, names and ids present).
  CHECK(json.front() == '[');
  CHECK(json.substr(json.size() - 2) == "]\n");
  CHECK(json.find("\"name\":\"alpha\"") != std::string::npos);
  CHECK(json.find("\"ph\":\"X\"") != std::string::npos);
  CHECK(json.find("\"args\":{\"id\":") != std::string::npos);
  // ts is relative to the earliest span: alpha starts at 0.
  CHECK(json.find("\"ts\":0.000") != std::string::npos);
  CHECK(json.find("\"dur\":2.500") != std::string::npos);
}

void TestExport() {
  MetricRegistry registry;
  registry.counter("dpc_requests_total").Inc(3);
  registry.AddCollector([](std::vector<MetricSample>* out) {
    out->push_back(MetricSample::FromGauge("dpc_queue_depth", 2.0));
  });
  Histogram& hist = registry.histogram("dpc_request_latency_seconds");
  hist.Observe(0.010);
  hist.Observe(0.020);

  const std::vector<MetricSample> samples = registry.Snapshot();
  const std::string text = dpc::obs::ToPrometheusText(samples);
  CHECK(text.find("# TYPE dpc_requests_total counter") != std::string::npos);
  CHECK(text.find("dpc_requests_total 3") != std::string::npos);
  CHECK(text.find("# TYPE dpc_queue_depth gauge") != std::string::npos);
  CHECK(text.find("# TYPE dpc_request_latency_seconds histogram") !=
        std::string::npos);
  CHECK(text.find("dpc_request_latency_seconds_bucket{le=\"+Inf\"} 2") !=
        std::string::npos);
  CHECK(text.find("dpc_request_latency_seconds_count 2") != std::string::npos);
  CHECK(text.find("dpc_request_latency_seconds_p99 ") != std::string::npos);

  const std::string json = dpc::obs::ToJson(samples);
  CHECK(json.find("\"dpc_requests_total\":3") != std::string::npos);
  CHECK(json.find("\"count\":2") != std::string::npos);
  CHECK(json.find("\"p99\":") != std::string::npos);

  // Infinite percentiles (overflow bucket) must export as null, never
  // bare `inf` — the scripted CI session json.load()s this.
  MetricRegistry overflow;
  overflow.histogram("h").Observe(1e12);
  const std::string clamped = dpc::obs::ToJson(overflow.Snapshot());
  CHECK(clamped.find("\"p99\":null") != std::string::npos);
  CHECK(clamped.find("inf") == std::string::npos);
}

void TestDisabledPathAllocatesNothing() {
  // The whole point of the null-trace fast path: instrumentation left
  // unconditionally in place costs zero heap traffic when telemetry is
  // off. Warm everything first so lazily-built statics (the bounds
  // table) don't count against the hot path.
  MetricRegistry registry;
  dpc::obs::Counter& counter = registry.counter("warm");
  Histogram& hist = registry.histogram("warm");
  hist.Observe(1.0);
  dpc::ExecutionContext ctx;  // no trace attached

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    counter.Inc();
    hist.Observe(static_cast<double>(i) * 1e-6);
    ScopedSpan null_span(nullptr, "off");
    ScopedSpan ctx_span = ctx.Span("off");
    null_span.End();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  CHECK_EQ(after - before, uint64_t{0});
}

}  // namespace

int main() {
  TestBucketBounds();
  TestPercentileMath();
  TestRegistry();
  TestRegistryConcurrency();
  TestSpanParenting();
  TestExecutionContextPropagation();
  TestChromeJson();
  TestExport();
  TestDisabledPathAllocatesNothing();
  std::printf("obs_test: all checks passed\n");
  return 0;
}
