// Builds the joint physical+logical placement integer program (§V-A).
//
// Variables (the paper's notation; eq. 10 is applied structurally by
// collapsing x to physical stages):
//   x[i][s]   in {0,1}  — physical NF of type i at physical stage s
//   y[l]      in {0,1}  — chain l offloaded (all d_jl equal, eq. 7)
//   z[l][j][k] in {0,1} — box j of chain l at *virtual* stage k
//                         (created only for i = f_jl, eq. 6, and only
//                         for k in the feasible window [j+1, K-(J-1-j)])
//   blocks[i][s] integer — memory blocks of type i at stage s
//                          (linearization of the eq. 11/24 ceiling)
//   passes[l] integer    — pipeline passes of chain l (= R_l + 1;
//                          linearization of the eq. 12/26 ceiling)
//
// Constraints: assignment (eqs. 5-7), order (eq. 8), logical->physical
// consistency (eq. 9; disaggregated per box or aggregated per (type,
// stage) for scalability), coverage (eq. 4), memory (eq. 24 or 25),
// capacity (eq. 26). Objective: eq. 1.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "controlplane/instance.h"
#include "controlplane/solution.h"
#include "lp/model.h"

namespace sfp::controlplane {

/// Model-construction options.
struct ModelOptions {
  /// Allowed passes (R + 1); the virtual pipeline has max_passes * S
  /// stages.
  int max_passes = 3;
  MemoryModel memory_model = MemoryModel::kConsolidated;
  /// Aggregate eq. 9 per (type, virtual stage) instead of per box.
  /// Aggregation shrinks the row count by ~J*L and is exact for the
  /// IP, at the cost of a weaker LP relaxation (ablation:
  /// bench/micro_lp).
  bool aggregated_consistency = true;
  /// Chains whose current placement must be kept (runtime update,
  /// §V-E): chain index -> 1-based virtual stages per box.
  std::map<int, std::vector<int>> pinned;
  /// Chains forced out of the switch (stripped candidates).
  std::set<int> excluded;
};

/// The built model plus variable maps for extraction.
struct PlacementModel {
  lp::Model model;
  std::vector<std::vector<lp::VarId>> x;            // I x S
  std::vector<lp::VarId> y;                         // L
  /// z[l][j] maps virtual stage k (1-based) -> VarId; -1 where the
  /// variable was pruned away by the feasible-window reduction.
  std::vector<std::vector<std::vector<lp::VarId>>> z;
  std::vector<std::vector<lp::VarId>> blocks;       // I x S (consolidated)
  std::vector<lp::VarId> passes;                    // L
  int K = 0;
  ModelOptions options;
};

/// Builds the IP for `instance`.
PlacementModel BuildPlacementModel(const PlacementInstance& instance,
                                   const ModelOptions& options = {});

/// Extracts a PlacementSolution from *integral* variable values.
PlacementSolution ExtractSolution(const PlacementInstance& instance,
                                  const PlacementModel& pm,
                                  const std::vector<double>& values);

/// Inverse of ExtractSolution: encodes a feasible placement as a full
/// variable assignment (blocks/passes set to their exact ceilings).
/// Used to hand structured-rounding incumbents back to branch & bound.
std::vector<double> SolutionToValues(const PlacementInstance& instance,
                                     const PlacementModel& pm,
                                     const PlacementSolution& solution);

/// Deterministic completion of an LP point: the physical layout is
/// x rounded at 0.5 (plus eq. 4 repair), chains are considered in
/// descending LP y-value, and each selected chain is placed earliest-
/// fit on that layout under exact memory and capacity bookkeeping.
/// Chains that do not fit are left out, so the result always verifies.
/// Used by branch & bound to close plateaus of equivalent z
/// assignments the moment x and y go integral.
PlacementSolution GreedyCompleteFromLp(const PlacementInstance& instance,
                                       const PlacementModel& pm,
                                       const std::vector<double>& lp_values);

/// Structured randomized rounding of an LP-relaxation point (§V-B) as
/// dependent rounding: the physical layout x rounds first (Bernoulli
/// with the LP probabilities, plus eq. 4/pinned repairs); then chains
/// round in with probability y in random order, each box sampling its
/// stage from its z distribution restricted to order-consistent (eq. 8),
/// layout-consistent (eq. 9), memory-feasible (eq. 24/25) stages, with
/// a capacity (eq. 26) admission check per chain. Chains that cannot
/// fit the draw stay in software. Chains in `stripped` are left out.
/// The result is feasible by construction; the caller still verifies.
std::optional<PlacementSolution> StructuredRound(const PlacementInstance& instance,
                                                 const PlacementModel& pm,
                                                 const std::vector<double>& lp_values,
                                                 Rng& rng,
                                                 const std::set<int>& stripped = {});

}  // namespace sfp::controlplane
