// Cost-based cell -> thread partitioning (paper §4.5). The grid-based
// algorithms know, before a phase starts, roughly how much work each cell
// holds (index/grid.h's CellCosts hook); assigning whole cells to threads
// with longest-processing-time-first (LPT) keeps every thread's total
// cost near the mean, where naive strategies leave one thread holding the
// densest cells. LPT is the classic 4/3-approximation of the optimal
// makespan. HashSchedule is the strawman the paper compares against
// (LSH-DDP's id-modulo-thread partitioning).
//
// Scheduling is deterministic: items are ordered by (cost desc, id asc)
// and load ties pick the smallest bin id, so a fixed cost vector always
// produces the same assignment.
#ifndef DPC_PARALLEL_LPT_SCHEDULER_H_
#define DPC_PARALLEL_LPT_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

namespace dpc {

/// An item -> bin assignment plus its load profile; bins[t] lists the
/// item indices bin t owns, in assignment order.
struct Schedule {
  std::vector<std::vector<int64_t>> bins;
  std::vector<double> load;    ///< total cost per bin
  double makespan = 0.0;       ///< max over load

  int num_bins() const { return static_cast<int>(bins.size()); }
  double TotalLoad() const {
    return std::accumulate(load.begin(), load.end(), 0.0);
  }
  double MeanLoad() const {
    return bins.empty() ? 0.0 : TotalLoad() / static_cast<double>(bins.size());
  }
  /// makespan / mean — 1.0 is perfect balance, bigger is worse.
  double Imbalance() const {
    const double mean = MeanLoad();
    return mean > 0.0 ? makespan / mean : 1.0;
  }
};

/// Longest-processing-time-first: items in descending cost order, each
/// assigned to the currently least-loaded bin.
inline Schedule LptSchedule(const std::vector<double>& costs, int num_bins) {
  Schedule s;
  const int bins = num_bins > 0 ? num_bins : 1;
  s.bins.resize(static_cast<size_t>(bins));
  s.load.assign(static_cast<size_t>(bins), 0.0);

  // (-cost, item) pairs sort into (cost desc, id asc) order directly,
  // without an indirect comparator.
  std::vector<std::pair<double, int64_t>> order(costs.size());
  for (size_t item = 0; item < costs.size(); ++item) {
    order[item] = {-costs[item], static_cast<int64_t>(item)};
  }
  std::sort(order.begin(), order.end());

  // Min-heap of (load, bin id); the pair order breaks load ties by bin id.
  using Slot = std::pair<double, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> heap;
  for (int t = 0; t < bins; ++t) heap.emplace(0.0, t);
  for (const auto& [neg_cost, item] : order) {
    auto [load, t] = heap.top();
    heap.pop();
    s.bins[static_cast<size_t>(t)].push_back(item);
    load += costs[static_cast<size_t>(item)];
    s.load[static_cast<size_t>(t)] = load;
    heap.emplace(load, t);
  }
  s.makespan = *std::max_element(s.load.begin(), s.load.end());
  return s;
}

/// The hash-partition strawman: item i -> bin i % num_bins, cost-blind.
inline Schedule HashSchedule(const std::vector<double>& costs, int num_bins) {
  Schedule s;
  const int bins = num_bins > 0 ? num_bins : 1;
  s.bins.resize(static_cast<size_t>(bins));
  s.load.assign(static_cast<size_t>(bins), 0.0);
  for (int64_t item = 0; item < static_cast<int64_t>(costs.size()); ++item) {
    const size_t t = static_cast<size_t>(item % bins);
    s.bins[t].push_back(item);
    s.load[t] += costs[static_cast<size_t>(item)];
  }
  s.makespan = *std::max_element(s.load.begin(), s.load.end());
  return s;
}

}  // namespace dpc

#endif  // DPC_PARALLEL_LPT_SCHEDULER_H_
