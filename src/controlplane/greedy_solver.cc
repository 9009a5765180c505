#include "controlplane/greedy_solver.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/units.h"

namespace sfp::controlplane {
namespace {

/// Mutable resource ledger used while placing chains one by one.
class Ledger {
 public:
  Ledger(const PlacementInstance& instance, MemoryModel model)
      : instance_(instance),
        model_(model),
        installed_(static_cast<std::size_t>(instance.num_types),
                   std::vector<bool>(static_cast<std::size_t>(instance.sw.stages), false)),
        entries_(static_cast<std::size_t>(instance.num_types),
                 std::vector<std::int64_t>(static_cast<std::size_t>(instance.sw.stages), 0)),
        logical_blocks_(static_cast<std::size_t>(instance.sw.stages), 0) {}

  bool IsInstalled(int type, int s) const {
    return installed_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)];
  }
  void Install(int type, int s) {
    installed_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)] = true;
  }

  /// Blocks currently used at stage s under the ledger's memory model.
  int StageBlocks(int s) const {
    if (model_ == MemoryModel::kPerLogicalNf) {
      return logical_blocks_[static_cast<std::size_t>(s)];
    }
    int blocks = 0;
    for (int i = 0; i < instance_.num_types; ++i) {
      const std::int64_t e = entries_[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)];
      if (e > 0) blocks += static_cast<int>(CeilDiv(e, instance_.sw.entries_per_block));
    }
    return blocks;
  }

  /// Whether a box of `type` with `mem` memory units fits at stage s.
  bool Fits(int type, int s, std::int64_t mem) const {
    if (model_ == MemoryModel::kPerLogicalNf) {
      const int extra = static_cast<int>(
          std::max<std::int64_t>(1, CeilDiv(mem, instance_.sw.entries_per_block)));
      return logical_blocks_[static_cast<std::size_t>(s)] + extra <=
             instance_.sw.blocks_per_stage;
    }
    const std::int64_t e = entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)];
    const int old_blocks =
        e > 0 ? static_cast<int>(CeilDiv(e, instance_.sw.entries_per_block)) : 0;
    const int new_blocks = static_cast<int>(CeilDiv(e + mem, instance_.sw.entries_per_block));
    return StageBlocks(s) - old_blocks + new_blocks <= instance_.sw.blocks_per_stage;
  }

  void Charge(int type, int s, std::int64_t mem) {
    entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)] += mem;
    if (model_ == MemoryModel::kPerLogicalNf) {
      logical_blocks_[static_cast<std::size_t>(s)] += static_cast<int>(
          std::max<std::int64_t>(1, CeilDiv(mem, instance_.sw.entries_per_block)));
    }
  }

  void Refund(int type, int s, std::int64_t mem) {
    entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)] -= mem;
    SFP_CHECK_GE(entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)], 0);
    if (model_ == MemoryModel::kPerLogicalNf) {
      logical_blocks_[static_cast<std::size_t>(s)] -= static_cast<int>(
          std::max<std::int64_t>(1, CeilDiv(mem, instance_.sw.entries_per_block)));
    }
  }

  const std::vector<std::vector<bool>>& installed() const { return installed_; }

 private:
  const PlacementInstance& instance_;
  MemoryModel model_;
  std::vector<std::vector<bool>> installed_;
  std::vector<std::vector<std::int64_t>> entries_;
  std::vector<int> logical_blocks_;  // per-logical-NF mode only
};

/// The placement kernel of Algorithm 2: offers chains to the
/// earliest-fit placer in exactly the given `order` (a permutation of
/// chain indices).
PlacementSolution PlaceInOrder(const PlacementInstance& instance,
                               const std::vector<int>& order, const GreedyOptions& options) {
  const int S = instance.sw.stages;
  const int K = options.max_passes * S;
  Ledger ledger(instance, options.memory_model);
  double backplane_used = 0.0;

  PlacementSolution solution;
  solution.chains.resize(instance.sfcs.size());

  for (int l : order) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];

    // Try_placement(): walk boxes across the virtual pipeline.
    struct Step {
      int k;
      bool newly_installed;
    };
    std::vector<Step> steps;
    bool failed = false;
    int prev = 0;
    for (const NfBox& box : sfc.boxes) {
      int chosen = -1;
      bool installed_new = false;
      // First preference: an existing physical NF of the type.
      for (int k = prev + 1; k <= K; ++k) {
        const int s = (k - 1) % S;
        if (!ledger.IsInstalled(box.type, s)) continue;
        if (!ledger.Fits(box.type, s, box.MemoryUnits(instance.sw.rule_width))) continue;
        chosen = k;
        break;
      }
      // Fallback: install a new physical NF at the nearest stage that
      // still has memory for the box.
      if (chosen < 0) {
        for (int k = prev + 1; k <= K; ++k) {
          const int s = (k - 1) % S;
          if (ledger.IsInstalled(box.type, s)) continue;
          if (!ledger.Fits(box.type, s, box.MemoryUnits(instance.sw.rule_width))) continue;
          chosen = k;
          installed_new = true;
          break;
        }
      }
      if (chosen < 0) {
        failed = true;
        break;
      }
      const int s = (chosen - 1) % S;
      if (installed_new) ledger.Install(box.type, s);
      ledger.Charge(box.type, s, box.MemoryUnits(instance.sw.rule_width));
      steps.push_back({chosen, installed_new});
      prev = chosen;
    }

    // Capacity check (eq. 26): admission must fit the backplane.
    const int passes = failed ? 0 : (steps.back().k + S - 1) / S;
    if (!failed && backplane_used + passes * sfc.bandwidth_gbps >
                       instance.sw.capacity_gbps + 1e-9) {
      failed = true;
    }

    if (failed) {
      // Roll back this chain's charges (Resource_recompute on failure).
      for (std::size_t j = 0; j < steps.size(); ++j) {
        const NfBox& box = sfc.boxes[j];
        ledger.Refund(box.type, (steps[j].k - 1) % S, box.MemoryUnits(instance.sw.rule_width));
        // Note: freshly installed physical NFs stay installed — an
        // empty table costs nothing under eq. 24 and may serve later
        // chains, mirroring the incremental behaviour of Algorithm 2.
      }
      continue;
    }

    backplane_used += passes * sfc.bandwidth_gbps;
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    chain.placed = true;
    for (const Step& step : steps) chain.virtual_stages.push_back(step.k);
  }

  solution.physical = ledger.installed();
  // eq. 4: make sure every type exists somewhere (free under eq. 24;
  // choose the emptiest stage).
  for (int i = 0; i < instance.num_types; ++i) {
    bool any = false;
    for (int s = 0; s < S; ++s) any |= solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)];
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
    solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(best_s)] = true;
  }

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
