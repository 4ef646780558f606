// Admission for the serving layer: the one request queue. Submissions
// accumulate here and every executor lane pops the next one directly,
// highest (priority desc, admission seq asc) first, so each pick honours
// priority against everything admitted so far.
//
// The queue owns each submission's response promise until a lane takes
// it; Shutdown wakes the lanes, which drain the remaining submissions
// (already-admitted work still runs — see ClusterServer).
#ifndef DPC_SERVE_SCHEDULER_H_
#define DPC_SERVE_SCHEDULER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <utility>

#include "serve/request.h"

namespace dpc::serve {

/// One admitted request plus its bookkeeping: admission time (queue-time
/// accounting and deadline arithmetic both start here), the absolute
/// deadline, and the promise the server answers through.
struct Submission {
  ClusterRequest request;
  std::chrono::steady_clock::time_point admitted_at;
  /// admitted_at + request.deadline, or time_point::max() for none.
  std::chrono::steady_clock::time_point deadline_at;
  uint64_t seq = 0;  ///< admission order, the priority tie-break
  std::promise<ClusterResponse> promise;
};

class AdmissionQueue {
 public:
  /// Stamps seq/admitted_at/deadline_at and enqueues. Returns the future
  /// paired with the submission's promise. After Shutdown the submission
  /// is rejected instead — the future resolves immediately with
  /// kCancelled and *accepted reports false. The shutdown check happens
  /// under the queue lock, so no submission can slip in behind lanes
  /// that already drained and exited.
  std::future<ClusterResponse> Push(ClusterRequest request,
                                    bool* accepted = nullptr) {
    Submission s;
    s.admitted_at = std::chrono::steady_clock::now();
    s.deadline_at = request.deadline.count() > 0
                        ? s.admitted_at + request.deadline
                        : std::chrono::steady_clock::time_point::max();
    s.request = std::move(request);
    std::future<ClusterResponse> future = s.promise.get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        if (accepted != nullptr) *accepted = false;
        ClusterResponse response;
        response.status = Status::Cancelled("server is shut down");
        s.promise.set_value(std::move(response));
        return future;
      }
      if (accepted != nullptr) *accepted = true;
      s.seq = next_seq_++;
      queue_.push_back(std::move(s));
    }
    cv_.notify_one();  // one submission, one lane
    return future;
  }

  /// Blocks until a submission is pending (or Shutdown) and returns the
  /// highest (priority desc, seq asc) one. Empty means shutdown with
  /// nothing left to serve.
  std::optional<Submission> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    // seq is unique, so (priority desc, seq asc) is a strict total order
    // and the pick is deterministic for a fixed arrival order.
    const auto next = std::min_element(
        queue_.begin(), queue_.end(),
        [](const Submission& a, const Submission& b) {
          if (a.request.priority != b.request.priority) {
            return a.request.priority > b.request.priority;
          }
          return a.seq < b.seq;
        });
    std::optional<Submission> s(std::move(*next));
    queue_.erase(next);
    return s;
  }

  /// Wakes Pop callers; subsequent Pop calls still drain whatever is
  /// queued, then return empty.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

  bool shutdown_requested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_;
  }

  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Submission> queue_;
  uint64_t next_seq_ = 0;
  bool shutdown_ = false;
};

}  // namespace dpc::serve

#endif  // DPC_SERVE_SCHEDULER_H_
