// Greedy baseline (§V-D, Algorithm 2).
//
// SFCs are sorted by the eq. 13 metric (bandwidth per unit of rule
// resource, highest first) and placed one by one. Each box goes to the
// nearest later virtual stage that already hosts a physical NF of its
// type with enough memory; failing that, a new physical NF is installed
// at the nearest later stage whose memory allows. A chain that cannot
// finish within the pass budget — or whose admission would exceed the
// backplane capacity — is rolled back and skipped.
#pragma once

#include "controlplane/instance.h"
#include "controlplane/solution.h"

namespace sfp::controlplane {

struct GreedyOptions {
  int max_passes = 3;
  MemoryModel memory_model = MemoryModel::kConsolidated;
  /// Ablation: false places chains in arrival order instead of the
  /// eq. 13 metric order.
  bool sort_by_metric = true;
};

struct GreedyReport {
  PlacementSolution solution;
  double objective = 0.0;  // eq. 1
  double seconds = 0.0;
};

/// Runs Algorithm 2.
GreedyReport SolveGreedy(const PlacementInstance& instance, const GreedyOptions& options = {});

}  // namespace sfp::controlplane
