// Decision-graph utilities (paper Figure 1): the (rho, delta) scatter on
// which users pick centers visually, plus headless threshold helpers so
// pipelines can reproduce the visual selection. Everything here reads a
// DpcSolution's rho and delta only, so it needs no labels; re-thresholding
// runs LabelSolution on the same solution again — no re-clustering needed.
#ifndef DPC_CORE_DECISION_GRAPH_H_
#define DPC_CORE_DECISION_GRAPH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "core/status.h"

namespace dpc {

struct DecisionGraphEntry {
  PointId id = -1;
  double rho = 0.0;
  double delta = 0.0;
};

/// The name the bench layer uses for one (rho, delta) scatter point.
using DecisionPoint = DecisionGraphEntry;

/// The full decision graph, sorted by delta descending (rho breaks ties)
/// so the candidate centers top the list.
inline std::vector<DecisionGraphEntry> BuildDecisionGraph(
    const DpcSolution& solution) {
  std::vector<DecisionGraphEntry> graph;
  graph.reserve(solution.rho.size());
  for (size_t i = 0; i < solution.rho.size(); ++i) {
    graph.push_back(DecisionGraphEntry{static_cast<PointId>(i), solution.rho[i],
                                       solution.delta[i]});
  }
  std::sort(graph.begin(), graph.end(),
            [](const DecisionGraphEntry& a, const DecisionGraphEntry& b) {
              if (a.delta != b.delta) return a.delta > b.delta;
              if (a.rho != b.rho) return a.rho > b.rho;
              return a.id < b.id;
            });
  return graph;
}

inline Status WriteDecisionGraphCsv(const std::vector<DecisionGraphEntry>& graph,
                                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for writing");
  std::fprintf(f, "id,rho,delta\n");
  for (const auto& e : graph) {
    std::fprintf(f, "%lld,%.17g,%.17g\n", static_cast<long long>(e.id), e.rho,
                 e.delta);
  }
  if (std::fclose(f) != 0) return Status::IoError("error closing " + path);
  return Status::Ok();
}

/// One point of the gamma ranking: gamma = rho * delta is the classic
/// single-number center score over the decision graph (large in both
/// coordinates = a strong center candidate).
struct GammaEntry {
  PointId id = -1;
  double rho = 0.0;
  double delta = 0.0;
  double gamma = 0.0;
};

/// The k highest-gamma points of a decision graph, computed straight from
/// rho/delta — labels are never needed, so this runs against a
/// DpcSolution as-is (the serving layer's `graph` request). Infinite
/// deltas (the global peak) are capped just above the largest finite
/// delta so gamma stays finite and zero-density peaks cannot produce
/// NaN. Deterministic order: gamma desc, then id asc.
inline std::vector<GammaEntry> TopGammaPoints(const std::vector<double>& rho,
                                              const std::vector<double>& delta,
                                              int k) {
  double max_finite = 0.0;
  for (const double d : delta) {
    if (!std::isinf(d) && d > max_finite) max_finite = d;
  }
  const double cap = max_finite > 0.0 ? max_finite * 1.05 : 1.0;
  std::vector<GammaEntry> entries;
  entries.reserve(rho.size());
  for (size_t i = 0; i < rho.size(); ++i) {
    GammaEntry e;
    e.id = static_cast<PointId>(i);
    e.rho = rho[i];
    e.delta = delta[i];
    e.gamma = rho[i] * (std::isinf(delta[i]) ? cap : delta[i]);
    entries.push_back(e);
  }
  const size_t take = std::min(entries.size(), static_cast<size_t>(k > 0 ? k : 0));
  std::partial_sort(entries.begin(), entries.begin() + static_cast<ptrdiff_t>(take),
                    entries.end(), [](const GammaEntry& a, const GammaEntry& b) {
                      if (a.gamma != b.gamma) return a.gamma > b.gamma;
                      return a.id < b.id;
                    });
  entries.resize(take);
  return entries;
}

namespace internal {

/// Deltas of center-eligible points (rho >= rho_min), sorted descending;
/// +inf (the global peak) is kept — comparisons against it behave.
inline std::vector<double> EligibleDeltasDesc(const DpcSolution& solution,
                                              const DpcParams& params) {
  std::vector<double> deltas;
  deltas.reserve(solution.rho.size());
  for (size_t i = 0; i < solution.rho.size(); ++i) {
    if (solution.rho[i] >= params.rho_min) deltas.push_back(solution.delta[i]);
  }
  std::sort(deltas.begin(), deltas.end(), std::greater<double>());
  return deltas;
}

}  // namespace internal

/// A delta_min that selects exactly k centers (the k eligible points with
/// the largest delta): the midpoint of the gap below the k-th delta.
inline double SuggestDeltaMinForK(const DpcSolution& solution,
                                  const DpcParams& params, int k) {
  // Never suggest a threshold at or below d_cut: grid-based algorithms
  // approximate non-peak deltas by distances <= d_cut (cell diameter), so
  // a lower threshold would mint centers Ex-DPC could never produce. When
  // fewer than k eligible points sit above d_cut, the clamp wins and the
  // selection yields as many centers as honestly exist.
  const double floor = params.d_cut * (1.0 + 1e-9);
  const std::vector<double> deltas = internal::EligibleDeltasDesc(solution, params);
  const size_t kk = static_cast<size_t>(k > 0 ? k : 1);
  if (deltas.empty()) return params.d_cut * 1.5;
  if (kk >= deltas.size()) {
    return std::max(std::nextafter(deltas.back(), 0.0), floor);
  }
  const double upper = deltas[kk - 1];
  const double lower = deltas[kk];
  if (std::isinf(upper)) {
    // k covers only +inf entries; anything above the next finite delta works.
    return std::isinf(lower) ? lower : std::max(lower * 2.0 + 1.0, floor);
  }
  return std::max(0.5 * (upper + lower), floor);
}

/// A delta_min at the widest gap of the sorted decision-graph deltas —
/// the "visual gap" a human would pick on Figure 1(b). Only the top of
/// the graph is scanned; +inf entries count as just above the largest
/// finite delta.
inline double SuggestDeltaMinByGap(const DpcSolution& solution,
                                   const DpcParams& params) {
  std::vector<double> deltas = internal::EligibleDeltasDesc(solution, params);
  if (deltas.size() < 2) return params.d_cut * 1.5;
  double max_finite = params.d_cut;
  for (const double d : deltas) {
    if (!std::isinf(d)) {
      max_finite = std::max(max_finite, d);
      break;  // sorted descending: first finite value is the largest
    }
  }
  for (double& d : deltas) {
    if (std::isinf(d)) d = max_finite * 1.05;
  }
  // Deltas span orders of magnitude (center deltas ~ cluster separation,
  // the rest ~ d_cut), so the visual gap is a *relative* one: maximize the
  // ratio between consecutive deltas and cut at their geometric mean.
  const size_t scan = std::min<size_t>(deltas.size() - 1, 256);
  double best_ratio = -1.0;
  double best_threshold = params.d_cut * 1.5;
  for (size_t i = 0; i < scan; ++i) {
    // Gaps that would admit centers at or below d_cut are grid noise, skip.
    if (deltas[i] <= params.d_cut) break;
    const double lower = std::max(deltas[i + 1], 0.25 * params.d_cut);
    const double ratio = deltas[i] / lower;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_threshold = std::sqrt(deltas[i] * lower);
    }
  }
  // The threshold must stay above d_cut so grid-approximated deltas
  // (<= d_cut by construction) can never be selected as centers.
  return std::max(best_threshold, params.d_cut * (1.0 + 1e-9));
}

}  // namespace dpc

#endif  // DPC_CORE_DECISION_GRAPH_H_
