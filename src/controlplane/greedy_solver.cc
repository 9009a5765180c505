#include "controlplane/greedy_solver.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"
#include "controlplane/placement_ledger.h"

namespace sfp::controlplane {
namespace {

/// The placement kernel of Algorithm 2: offers chains to the
/// earliest-fit placer in exactly the given `order` (a permutation of
/// chain indices).
PlacementSolution PlaceInOrder(const PlacementInstance& instance,
                               const std::vector<int>& order, const GreedyOptions& options) {
  const int S = instance.sw.stages;
  PlacementLedger ledger(
      instance, options.memory_model, options.max_passes * S,
      std::vector<std::vector<bool>>(static_cast<std::size_t>(instance.num_types),
                                     std::vector<bool>(static_cast<std::size_t>(S), false)));

  PlacementSolution solution;
  solution.chains.resize(instance.sfcs.size());
  for (int l : order) {
    // Try_placement(): walk boxes across the virtual pipeline, each to
    // the nearest later stage that already hosts its type, else to the
    // nearest one with memory for a new physical NF; then the eq. 26
    // capacity check, rolling the chain back on failure.
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    std::vector<int> stages = ledger.WalkEarliest(sfc, /*prefer_installed=*/true);
    if (!ledger.Admit(sfc, stages)) continue;
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    chain.placed = true;
    chain.virtual_stages = std::move(stages);
  }

  // eq. 4: make sure every type exists somewhere (free under eq. 24;
  // choose the emptiest stage).
  for (int i = 0; i < instance.num_types; ++i) {
    bool any = false;
    for (int s = 0; s < S; ++s) any |= ledger.Installed(i, s);
    if (any) continue;
    int best_s = 0;
    int best_blocks = ledger.StageBlocks(0);
    for (int s = 1; s < S; ++s) {
      const int blocks = ledger.StageBlocks(s);
      if (blocks < best_blocks) {
        best_blocks = blocks;
        best_s = s;
      }
    }
    ledger.Install(i, best_s);
  }
  solution.physical = ledger.layout();
  return solution;
}

}  // namespace

GreedyReport SolveGreedy(const PlacementInstance& instance, const GreedyOptions& options) {
  instance.CheckValid();
  Stopwatch watch;

  // Order_SFCs(): eq. 13 metric, descending.
  std::vector<int> order(static_cast<std::size_t>(instance.NumSfcs()));
  std::iota(order.begin(), order.end(), 0);
  if (options.sort_by_metric) {
    std::stable_sort(order.begin(), order.end(), [&instance](int a, int b) {
      return instance.sfcs[static_cast<std::size_t>(a)].GreedyMetric() >
             instance.sfcs[static_cast<std::size_t>(b)].GreedyMetric();
    });
  }

  GreedyReport report;
  report.solution = PlaceInOrder(instance, order, options);
  report.objective = report.solution.ObjectiveWeighted(instance);
  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace sfp::controlplane
