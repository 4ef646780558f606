// Request/response vocabulary of the serving layer. A ClusterRequest is
// the serve/ subsystem's unit of work — where core/'s unit is one
// Solve invocation, a request names a *registered* dataset by handle
// (serve/dataset_registry.h), an algorithm from the core registry (each
// runs at fixed settings), and per-request service policy: a deadline
// budget and an admission priority.
//
// Request kinds mirror the library's compute/threshold split:
//
//   kCluster     — full pipeline. The server answers from the two-tier
//                  SolutionCache when the compute key hits (finalize-only,
//                  any threshold) and runs the algorithm otherwise.
//   kRethreshold — threshold phase ONLY, against a cached solution. Never
//                  touches the ThreadPool: a warm compute key is answered
//                  synchronously at submit, a cold one fails NOT_FOUND
//                  (run a kCluster request first). This is the
//                  decision-graph exploration fast path.
//   kGraph       — the top-k gamma = rho * delta points of a cached
//                  solution's decision graph (what a client renders to
//                  pick thresholds). Same warm-only, pool-free contract
//                  as kRethreshold.
//
// Lifecycle (kCluster): ClusterServer::Submit validates and enqueues the
// request with an admission timestamp on the one AdmissionQueue
// (serve/scheduler.h); an executor lane pops it and either answers from
// the solution cache or builds a new ExecutionContext on the lane's own
// ThreadPool (deadline armed) and runs the algorithm's compute phase. The response carries a Status —
// kDeadlineExceeded both for requests that expired in the queue and for
// runs interrupted mid-phase — and, on success, a shared immutable
// Labeling.
#ifndef DPC_SERVE_REQUEST_H_
#define DPC_SERVE_REQUEST_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_graph.h"
#include "core/dpc.h"
#include "core/status.h"

namespace dpc::serve {

enum class RequestKind {
  kCluster = 0,  ///< compute (or cached solution) + threshold
  kRethreshold,  ///< threshold only, from a cached solution
  kGraph,        ///< top-k gamma points, from a cached solution
};

inline const char* ToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCluster:
      return "cluster";
    case RequestKind::kRethreshold:
      return "rethreshold";
    case RequestKind::kGraph:
      return "graph";
  }
  return "?";
}

struct ClusterRequest {
  RequestKind kind = RequestKind::kCluster;
  /// Handle of a dataset previously registered with the server's
  /// DatasetRegistry — clients never re-ship points per request.
  std::string dataset;
  /// A core registry name (ex-dpc, approx-dpc, ...); resolved at
  /// execution via MakeAlgorithmByName.
  std::string algorithm = "approx-dpc";
  /// Clustering knobs (d_cut, rho_min, delta_min, epsilon). Split by the
  /// server into params.compute() — the solution-cache key — and
  /// params.threshold() — the label phase. Execution policy belongs to
  /// the server (ServerOptions), never to the request.
  DpcParams params;
  /// kGraph only: how many gamma-ranked points to return.
  int graph_top_k = 10;
  /// Wall-clock budget measured from admission; zero means no deadline.
  /// Time spent queued counts against it, so an expired request is
  /// rejected without ever touching the pool. (kRethreshold/kGraph are
  /// answered at submit and cannot expire.)
  std::chrono::steady_clock::duration deadline{};
  /// Higher-priority requests are popped first; ties keep submission
  /// order.
  int priority = 0;

  Status Validate() const {
    if (dataset.empty()) {
      return Status::InvalidArgument("request names no dataset handle");
    }
    if (algorithm.empty()) {
      return Status::InvalidArgument("request names no algorithm");
    }
    if (deadline.count() < 0) {
      return Status::InvalidArgument("deadline must be non-negative");
    }
    if (kind == RequestKind::kGraph && graph_top_k <= 0) {
      return Status::InvalidArgument("graph_top_k must be positive");
    }
    return params.Validate();
  }
};

struct ClusterResponse {
  Status status;
  /// Set iff status.ok() and the request labels points (kCluster /
  /// kRethreshold): labels and centers only — rho/delta/dependency stay
  /// in the cached solution. Shared and immutable: cache hits, coalesced
  /// identical requests, and repeated thresholds alias the same Labeling.
  std::shared_ptr<const Labeling> result;
  /// kGraph only: the top-k gamma points, gamma descending.
  std::vector<GammaEntry> graph;
  /// True when the response never ran the algorithm: the solution tier
  /// hit and at most an O(n) finalize happened.
  bool cache_hit = false;
  double queue_seconds = 0.0;  ///< admission -> execution start
  double run_seconds = 0.0;    ///< algorithm wall time (0 for cache hits)
};

}  // namespace dpc::serve

#endif  // DPC_SERVE_REQUEST_H_
