// SFP-Appro: LP relaxation + randomized rounding (§V-B, Algorithm 1).
//
// For each recirculation budget r in 1..max_passes, the IP is relaxed
// to an LP over K = r*S virtual stages and solved in polynomial time;
// the fractional point is then rounded repeatedly (StructuredRound)
// until the exact verifier accepts it. When a stretch of roundings
// keeps failing, the SFC with the worst eq. 13 metric (most resource
// per offloaded bit) is stripped from the candidate set and rounding
// resumes. The best verified solution across all r wins.
#pragma once

#include "controlplane/model_builder.h"
#include "controlplane/verifier.h"
#include "lp/simplex.h"

namespace sfp::controlplane {

struct ApproxOptions {
  ModelOptions model;
  /// Rounding draws per recirculation budget before giving up.
  int rounding_attempts = 80;
  /// Consecutive failed roundings before stripping one SFC.
  int strip_after_failures = 8;
  /// Solve only the largest recirculation budget instead of Algorithm
  /// 1's full r = 0..R sweep. Any placement feasible for a smaller r is
  /// feasible in the largest-K model, so this trades a little rounding
  /// quality for one LP solve instead of R+1 (used by the larger
  /// bench sweeps).
  bool only_max_passes = false;
  std::uint64_t seed = 1;
  /// Wall-clock budget in seconds; 0 disables. When the budget (or the
  /// "controlplane.solver_deadline" fault point) trips mid-sweep the
  /// solver stops early and returns the best verified solution found so
  /// far — ok stays false if nothing verified — with
  /// deadline_exceeded set so callers can degrade (greedy fallback).
  double deadline_seconds = 0.0;
  /// LP-engine knobs (tolerances, pivot caps, refactorization period).
  lp::SimplexOptions simplex;
};

struct ApproxReport {
  PlacementSolution solution;
  /// eq. 1 objective (0 if nothing verified).
  double objective = 0.0;
  double seconds = 0.0;
  bool ok = false;
  /// Diagnostics.
  int lp_solves = 0;
  int roundings = 0;
  int stripped_sfcs = 0;
  /// LP-relaxation optimum at the largest r (an upper bound on the IP).
  double lp_bound = 0.0;
  /// The deadline (or its fault point) cut the sweep short.
  bool deadline_exceeded = false;
};

/// Runs Algorithm 1.
ApproxReport SolveApprox(const PlacementInstance& instance, const ApproxOptions& options = {});

}  // namespace sfp::controlplane
