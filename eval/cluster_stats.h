// Clustering summaries for reports and examples.
#ifndef DPC_EVAL_CLUSTER_STATS_H_
#define DPC_EVAL_CLUSTER_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dpc.h"

namespace dpc::eval {

struct ClusterSummary {
  int64_t num_points = 0;
  int64_t num_clusters = 0;
  int64_t num_noise = 0;        ///< label == kNoise
  int64_t num_unassigned = 0;   ///< label == kUnassigned (approx algorithms)
  int64_t largest_cluster = 0;  ///< member count of the biggest cluster
  std::vector<int64_t> cluster_size;
};

inline ClusterSummary Summarize(const Labeling& labeling) {
  ClusterSummary s;
  s.num_points = static_cast<int64_t>(labeling.label.size());
  s.num_clusters = labeling.num_clusters();
  s.cluster_size.assign(static_cast<size_t>(s.num_clusters), 0);
  for (const int64_t label : labeling.label) {
    if (label == kNoise) {
      ++s.num_noise;
    } else if (label < 0) {
      ++s.num_unassigned;
    } else if (label < s.num_clusters) {
      ++s.cluster_size[static_cast<size_t>(label)];
    }
  }
  for (const int64_t size : s.cluster_size) {
    s.largest_cluster = std::max(s.largest_cluster, size);
  }
  return s;
}

inline std::string ToString(const ClusterSummary& s) {
  std::string out = std::to_string(s.num_clusters) + " clusters, " +
                    std::to_string(s.num_noise) + " noise";
  if (s.num_unassigned > 0) {
    out += ", " + std::to_string(s.num_unassigned) + " unassigned";
  }
  out += ", largest " + std::to_string(s.largest_cluster) + " of " +
         std::to_string(s.num_points) + " points";
  return out;
}

}  // namespace dpc::eval

#endif  // DPC_EVAL_CLUSTER_STATS_H_
