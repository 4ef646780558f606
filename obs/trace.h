// Per-request span trees for the serving stack: where did this
// request's 40 ms go?
//
// A Trace is an append-only log of SpanRecords — named [start, end)
// intervals with explicit parent ids, recorded from any thread. The
// serve layer opens one root "request" span per submission, and every
// layer below it (queue wait, cache probe, the solve and its per-phase
// children, cache insert, finalize) attaches child spans, including
// spans recorded from a lane pool's worker threads — the
// parent id travels with the ExecutionContext, so cross-thread
// parenting needs no thread-local state.
//
// Two recording styles:
//
//   ScopedSpan   — RAII: reads the clock at construction and records on
//                  destruction (or End()). Constructed with a null
//                  Trace* it does NOTHING: no clock read, no id, no
//                  allocation — the disabled-tracing hot path is free
//                  (tests/obs_test.cc asserts zero allocations).
//   RecordComplete — retroactive: record an interval measured some other
//                  way (a queue wait reconstructed from the admission
//                  timestamp, solve phases re-tiled from DpcStats laps).
//
// ToChromeJson() exports the whole trace as a Chrome trace-event JSON
// array — load it at chrome://tracing or https://ui.perfetto.dev.
#ifndef DPC_OBS_TRACE_H_
#define DPC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dpc::obs {

/// One completed interval. `name` must be a string literal (or otherwise
/// outlive the trace) — spans are recorded on hot paths and must not
/// copy strings.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t thread_id = 0;

  double duration_seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Trace {
 public:
  /// steady_clock now, in the ns timeline every span uses. Comparable
  /// with ExecutionContext deadlines and scheduler admission stamps,
  /// which sit on the same clock.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now()
                                         .time_since_epoch())
                                     .count());
  }

  static uint64_t CurrentThreadId() {
    return static_cast<uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
  }

  /// Fresh span id, unique within this trace (never 0 — 0 means root).
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Records a retroactively-measured interval on the current thread and
  /// returns its id, so callers can hang children off it.
  uint64_t RecordComplete(const char* name, uint64_t parent,
                          uint64_t start_ns, uint64_t end_ns) {
    SpanRecord span;
    span.name = name;
    span.id = NextId();
    span.parent = parent;
    span.start_ns = start_ns;
    span.end_ns = end_ns >= start_ns ? end_ns : start_ns;
    span.thread_id = CurrentThreadId();
    Record(span);
    return span.id;
  }

  std::vector<SpanRecord> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// The trace as a Chrome trace-event JSON array of complete ("ph":"X")
  /// events; timestamps are microseconds relative to the earliest span,
  /// span/parent ids ride in "args". Valid JSON even when empty.
  std::string ToChromeJson() const {
    const std::vector<SpanRecord> spans = Snapshot();
    uint64_t epoch_ns = ~uint64_t{0};
    for (const SpanRecord& span : spans) {
      if (span.start_ns < epoch_ns) epoch_ns = span.start_ns;
    }
    std::string out = "[";
    char buf[256];
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"cat\":\"dpc\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
          "\"args\":{\"id\":%llu,\"parent\":%llu}}",
          i == 0 ? "" : ",", span.name,
          static_cast<double>(span.start_ns - epoch_ns) * 1e-3,
          static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
          static_cast<unsigned long long>(span.thread_id % 1000000),
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.parent));
      out += buf;
    }
    out += spans.empty() ? "]\n" : "\n]\n";
    return out;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. With a null trace every member is a no-op — no clock read,
/// no id allocation, no memory allocation — so instrumentation can stay
/// unconditionally in place on hot paths.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Trace* trace, const char* name, uint64_t parent = 0)
      : trace_(trace) {
    if (trace_ == nullptr) return;
    name_ = name;
    parent_ = parent;
    id_ = trace_->NextId();
    start_ns_ = Trace::NowNs();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept { *this = std::move(other); }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      End();
      trace_ = other.trace_;
      name_ = other.name_;
      parent_ = other.parent_;
      id_ = other.id_;
      start_ns_ = other.start_ns_;
      other.trace_ = nullptr;
    }
    return *this;
  }

  ~ScopedSpan() { End(); }

  /// Records the span now instead of at scope exit. Idempotent.
  void End() {
    if (trace_ == nullptr) return;
    SpanRecord span;
    span.name = name_;
    span.id = id_;
    span.parent = parent_;
    span.start_ns = start_ns_;
    span.end_ns = Trace::NowNs();
    span.thread_id = Trace::CurrentThreadId();
    trace_->Record(span);
    trace_ = nullptr;
  }

  bool enabled() const { return trace_ != nullptr; }
  /// This span's id (0 when disabled) — the parent for child spans.
  uint64_t id() const { return trace_ != nullptr ? id_ : 0; }

 private:
  Trace* trace_ = nullptr;
  const char* name_ = "";
  uint64_t parent_ = 0;
  uint64_t id_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace dpc::obs

#endif  // DPC_OBS_TRACE_H_
