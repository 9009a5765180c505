#include "controlplane/ilp_solver.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace sfp::controlplane {
namespace {

/// Rounds an LP point for branch & bound: the deterministic earliest-fit
/// completion plus `draws` structured roundings. Returns the best one
/// that verifies (a rounding must beat the completion strictly), or
/// nullopt when none does.
std::optional<PlacementSolution> BestRounding(const PlacementInstance& instance,
                                              const PlacementModel& pm,
                                              const std::vector<double>& lp_values, int draws,
                                              Rng& rng, const VerifyOptions& verify_options) {
  PlacementSolution best;
  double best_objective = -1.0;
  PlacementSolution greedy = GreedyCompleteFromLp(instance, pm, lp_values);
  if (Verify(instance, greedy, verify_options).ok) {
    best_objective = greedy.ObjectiveWeighted(instance);
    best = std::move(greedy);
  }
  for (int draw = 0; draw < draws; ++draw) {
    auto rounded = StructuredRound(instance, pm, lp_values, rng);
    if (!rounded || !Verify(instance, *rounded, verify_options).ok) continue;
    const double objective = rounded->ObjectiveWeighted(instance);
    if (objective > best_objective) {
      best_objective = objective;
      best = std::move(*rounded);
    }
  }
  if (best_objective < 0.0) return std::nullopt;
  return best;
}

}  // namespace

SolverReport SolveIlp(const PlacementInstance& instance, const IlpOptions& options) {
  PlacementModel pm = BuildPlacementModel(instance, options.model);

  lp::MipOptions mip_options;
  mip_options.time_limit_seconds = options.time_limit_seconds;
  mip_options.relative_gap = options.relative_gap;
  mip_options.deterministic = options.deterministic;
  mip_options.num_workers = options.num_workers;
  mip_options.simplex = options.simplex;
  mip_options.heuristic_period = options.use_rounding_heuristic ? options.heuristic_period : 0;
  if (options.use_rounding_heuristic) {
    // Once the physical layout (x) and chain selection (y) are
    // integral, a rounding attempt is cheap and usually closes the
    // node's plateau of equivalent z assignments.
    mip_options.heuristic_priority_threshold = 50;
  }

  lp::MipSolver solver(pm.model, mip_options);
  Rng rng(options.seed);
  VerifyOptions verify_options;
  verify_options.memory_model = options.model.memory_model;
  verify_options.max_passes = options.model.max_passes;

  if (options.use_rounding_heuristic) {
    solver.SetHeuristic([&instance, &pm, &rng, verify_options](
                            const std::vector<double>& lp_values,
                            std::vector<double>& candidate) {
      auto best = BestRounding(instance, pm, lp_values, /*draws=*/4, rng, verify_options);
      if (!best) return false;
      candidate = SolutionToValues(instance, pm, *best);
      return true;
    });
  }

  if (options.use_rounding_heuristic && options.root_burst) {
    // Root burst: solve the root relaxation once and spend a batch of
    // rounding draws on it, seeding branch & bound with an incumbent of
    // roughly SFP-Appro quality so the exact solver never trails the
    // approximation it is supposed to dominate.
    lp::Simplex root(pm.model, options.simplex);
    const lp::Solution root_lp = root.Solve();
    if (root_lp.status == lp::SolveStatus::kOptimal) {
      if (auto best =
              BestRounding(instance, pm, root_lp.values, /*draws=*/32, rng, verify_options)) {
        solver.SetInitialIncumbent(SolutionToValues(instance, pm, *best));
      }
    }
  }

  const lp::MipResult result = solver.Solve();

  SolverReport report;
  report.status = result.solution.status;
  report.seconds = result.seconds;
  report.best_bound = result.best_bound;
  report.nodes = result.nodes_explored;
  report.nodes_dropped = result.nodes_dropped;
  report.pivots = result.simplex_pivots;
  report.refactorizations = result.refactorizations;
  report.ftran_nnz = result.ftran_nnz;
  report.incumbent_trace = result.incumbent_trace;
  report.gap_trace = result.gap_trace;
  if (result.solution.feasible()) {
    report.solution = ExtractSolution(instance, pm, result.solution.values);
    report.objective = report.solution.ObjectiveWeighted(instance);
    // The extracted solution must satisfy the exact (un-linearized)
    // constraints; the linearization is designed to be tight.
    const auto verdict = Verify(instance, report.solution, verify_options);
    if (!verdict.ok) {
      SFP_LOG_ERROR << "ILP solution failed exact verification: " << verdict.violation;
    }
  } else {
    // Shape the empty solution so downstream metric helpers work.
    report.solution.physical.assign(static_cast<std::size_t>(instance.num_types),
                                    std::vector<bool>(static_cast<std::size_t>(instance.sw.stages),
                                                      false));
    report.solution.chains.resize(instance.sfcs.size());
  }
  return report;
}

void ExportSolverMetrics(const SolverReport& report, common::metrics::Registry& registry,
                         const std::string& prefix) {
  auto set = [&registry, &prefix](const char* key, std::int64_t value) {
    registry.GetCounter(prefix + key).Set(
        value > 0 ? static_cast<std::uint64_t>(value) : 0);
  };
  set(".nodes", report.nodes);
  set(".nodes_dropped", report.nodes_dropped);
  set(".pivots", report.pivots);
  set(".refactorizations", report.refactorizations);
  set(".ftran_nnz", report.ftran_nnz);
  set(".incumbents", static_cast<std::int64_t>(report.incumbent_trace.size()));
  // Gap-over-time: the relative gap (%) at each incumbent improvement.
  // The histogram's count/min/max summarize how the gap closed.
  auto& gap = registry.GetHistogram(prefix + ".gap_pct",
                                    {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0});
  for (const lp::GapEvent& event : report.gap_trace) {
    if (!std::isfinite(event.bound) || !std::isfinite(event.objective)) continue;
    const double denom = std::max(1e-9, std::abs(event.objective));
    gap.Observe(100.0 * std::abs(event.bound - event.objective) / denom);
  }
}

}  // namespace sfp::controlplane
