// SFP-IP: exact joint placement via branch & bound (§V-A).
#pragma once

#include <string>
#include <vector>

#include "common/metrics.h"
#include "controlplane/model_builder.h"
#include "controlplane/verifier.h"
#include "lp/mip.h"

namespace sfp::controlplane {

/// Options for the exact solver.
struct IlpOptions {
  ModelOptions model;
  /// Wall-clock limit (drives the Fig. 9 early-termination study).
  double time_limit_seconds = lp::kInfinity;
  /// Relative optimality gap at which branch & bound stops proving
  /// (0 = exact optimum). Benches use ~1e-4 to dodge plateau tails.
  double relative_gap = 0.0;
  /// Let branch & bound call the structured-rounding heuristic for
  /// early incumbents. Fig. 9 turns this off to expose the raw solver
  /// warm-up behaviour the paper measured with Gurobi.
  bool use_rounding_heuristic = true;
  int heuristic_period = 25;
  /// Seed branch & bound with a batch of root-relaxation roundings so
  /// the exact solver starts from an SFP-Appro-quality incumbent.
  /// Fig. 9's warm-up series turns this off.
  bool root_burst = true;
  std::uint64_t seed = 1;
  /// Serial fixed-order tree search (reproducible traces). Turn off to
  /// search with `num_workers` parallel workers (see lp::MipOptions).
  bool deterministic = true;
  /// Parallel workers when `deterministic` is off (0 = auto).
  int num_workers = 0;
  /// LP-engine knobs (tolerances, pivot caps, refactorization period).
  lp::SimplexOptions simplex;
};

/// Common report shape across the placement solvers.
struct SolverReport {
  PlacementSolution solution;
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  /// eq. 1 objective of `solution` (0 when none found).
  double objective = 0.0;
  double seconds = 0.0;
  /// Dual bound from B&B (== objective at optimality).
  double best_bound = 0.0;
  std::int64_t nodes = 0;
  /// Nodes whose LP hit the iteration cap (bounds folded into
  /// `best_bound`; see lp::MipResult::nodes_dropped).
  std::int64_t nodes_dropped = 0;
  /// Simplex work across the whole tree (all workers).
  std::int64_t pivots = 0;
  std::int64_t refactorizations = 0;
  std::int64_t ftran_nnz = 0;
  /// Incumbent improvements over time (Fig. 9's series).
  std::vector<lp::IncumbentEvent> incumbent_trace;
  /// (incumbent, dual bound) at each improvement — the gap-over-time
  /// trace exported through common::metrics.
  std::vector<lp::GapEvent> gap_trace;
};

/// Solves the placement IP exactly (up to the time limit).
SolverReport SolveIlp(const PlacementInstance& instance, const IlpOptions& options = {});

/// Publishes a report's solver counters into `registry` under
/// `prefix` ("solver" → solver.nodes, solver.pivots,
/// solver.refactorizations, solver.ftran_nnz, solver.nodes_dropped,
/// solver.incumbents; see docs/METRICS.md). Values are Set, not
/// incremented, so re-exporting overwrites.
void ExportSolverMetrics(const SolverReport& report, common::metrics::Registry& registry,
                         const std::string& prefix = "solver");

}  // namespace sfp::controlplane
