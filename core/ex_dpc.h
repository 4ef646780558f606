// Ex-DPC: the paper's exact kd-tree algorithm (§3).
//
//   rho   — exact range count on the kd-tree (self excluded).
//   delta — exact nearest-denser-neighbor search: a kd-tree NN query that
//           only accepts candidates ranking denser under DenserThan().
//           The globally densest point gets delta = +inf.
//
// Labeling is NOT part of the algorithm: SolveImpl produces the
// DpcSolution and any ThresholdSpec is applied downstream
// (FinalizeSolution / LabelSolution).
//
// Both per-point phases are embarrassingly parallel over the immutable
// tree. Under the default cost-guided strategy they iterate grid cells
// partitioned by the §4.5 LPT scheduler (cost = |P(c)|); static/dynamic
// strategies split the plain id range instead. Either way each point's
// slot is written exactly once, so results are strategy- and
// thread-count independent.
#ifndef DPC_CORE_EX_DPC_H_
#define DPC_CORE_EX_DPC_H_

#include <cmath>
#include <limits>
#include <vector>

#include "core/dpc.h"
#include "core/options.h"
#include "index/grid.h"
#include "index/kdtree.h"
#include "parallel/parallel_for.h"

namespace dpc {

struct ExDpcOptions {
  /// Loop scheduling override; unset inherits the ExecutionContext's
  /// strategy (default cost-guided, §4.5).
  std::optional<ScheduleStrategy> scheduler;

  static StatusOr<ExDpcOptions> FromOptions(const OptionsMap& map) {
    ExDpcOptions options;
    OptionsReader reader(map);
    reader.Strategy("scheduler", &options.scheduler);
    if (Status s = reader.status(); !s.ok()) return s;
    return options;
  }
};

/// The default candidate filter of the exact delta search: every point.
struct AcceptAll {
  bool operator()(PointId) const { return true; }
};

class ExDpc : public DpcAlgorithm {
 public:
  ExDpc() = default;
  explicit ExDpc(ExDpcOptions options) : options_(options) {}

  std::string_view name() const override { return "Ex-DPC"; }

 protected:
  DpcSolution SolveImpl(const PointSet& points, const ComputeParams& compute,
                        const ExecutionContext& ctx) override {
    ExecutionContext exec =
        options_.scheduler ? ctx.WithStrategy(*options_.scheduler) : ctx;
    DpcSolution result;
    const PointId n = points.size();
    result.rho.assign(static_cast<size_t>(n), 0.0);
    result.delta.assign(static_cast<size_t>(n),
                        std::numeric_limits<double>::infinity());
    result.dependency.assign(static_cast<size_t>(n), PointId{-1});

    internal::WallTimer total;
    internal::WallTimer phase;
    KdTree tree;
    tree.Build(points);

    // Cost-guided scheduling partitions whole grid cells by population
    // (§4.5). The grid is pure scheduling metadata — only built when a
    // parallel region will actually form (several threads, enough work),
    // and never charged to the index-memory stat (the paper's Ex-DPC
    // carries a kd-tree only).
    const bool cost_guided =
        exec.strategy() == ScheduleStrategy::kCostGuided &&
        exec.threads() > 1 && n >= internal::kMinParallelIterations;
    UniformGrid grid;
    std::vector<double> cell_costs;
    if (cost_guided) {
      grid.Build(points,
                 compute.d_cut / std::sqrt(static_cast<double>(points.dim())));
      cell_costs = grid.CellCosts();
    }
    result.stats.build_seconds = phase.Lap();
    result.stats.index_memory_bytes = tree.MemoryBytes();

    // rho: range count minus the point itself.
    auto rho_for = [&](PointId i) {
      result.rho[static_cast<size_t>(i)] =
          static_cast<double>(tree.RangeCount(points[i], compute.d_cut) - 1);
    };
    if (cost_guided) {
      ParallelForWithCosts(exec, cell_costs, [&](int64_t cell) {
        for (const PointId i : grid.members(cell)) rho_for(i);
      });
    } else {
      ParallelFor(exec, n, [&](PointId begin, PointId end) {
        for (PointId i = begin; i < end; ++i) rho_for(i);
      });
    }
    result.stats.rho_seconds = phase.Lap();
    if (internal::Interrupted(exec, &result)) {
      result.stats.total_seconds = total.Seconds();
      return result;
    }

    // delta: exact nearest denser neighbor.
    if (cost_guided) {
      ParallelForWithCosts(exec, cell_costs, [&](int64_t cell) {
        for (const PointId i : grid.members(cell)) {
          ExactDeltaFor(points, tree, result.rho, i, &result.delta,
                        &result.dependency);
        }
      });
    } else {
      ComputeExactDeltas(points, tree, result.rho, exec, &result.delta,
                         &result.dependency);
    }
    result.stats.delta_seconds = phase.Lap();
    internal::Interrupted(exec, &result);
    result.stats.total_seconds = total.Seconds();
    return result;
  }

 public:
  /// Exact delta/dependency for one point: the nearest neighbor ranking
  /// denser under DenserThan, among the candidates `keep` accepts (every
  /// point by default; S-Approx-DPC passes its sampled mask).
  template <typename Keep = AcceptAll>
  static void ExactDeltaFor(const PointSet& points, const KdTree& tree,
                            const std::vector<double>& rho, PointId i,
                            std::vector<double>* delta,
                            std::vector<PointId>* dependency,
                            const Keep& keep = {}) {
    const double rho_i = rho[static_cast<size_t>(i)];
    double dist = std::numeric_limits<double>::infinity();
    const PointId nn = tree.NearestAccepted(
        points[i],
        [&rho, rho_i, i, &keep](PointId j) {
          return keep(j) &&
                 DenserThan(rho[static_cast<size_t>(j)], j, rho_i, i);
        },
        &dist);
    (*delta)[static_cast<size_t>(i)] = dist;
    (*dependency)[static_cast<size_t>(i)] = nn;
  }

  /// Exact delta/dependency for every point (LSH-DDP reuses this for its
  /// refinement round; pass `only` to restrict the queries to a subset
  /// and `keep` to restrict the candidates, as in ExactDeltaFor).
  template <typename Keep = AcceptAll>
  static void ComputeExactDeltas(const PointSet& points, const KdTree& tree,
                                 const std::vector<double>& rho,
                                 const ExecutionContext& exec,
                                 std::vector<double>* delta,
                                 std::vector<PointId>* dependency,
                                 const std::vector<PointId>* only = nullptr,
                                 const Keep& keep = {}) {
    const PointId count =
        only != nullptr ? static_cast<PointId>(only->size()) : points.size();
    ParallelFor(exec, count, [&](PointId begin, PointId end) {
      for (PointId k = begin; k < end; ++k) {
        const PointId i = only != nullptr ? (*only)[static_cast<size_t>(k)] : k;
        ExactDeltaFor(points, tree, rho, i, delta, dependency, keep);
      }
    });
  }

 private:
  ExDpcOptions options_;
};

}  // namespace dpc

#endif  // DPC_CORE_EX_DPC_H_
