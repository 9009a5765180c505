// The exact resource ledger shared by the placement heuristics: greedy
// (Algorithm 2), the branch & bound completion (GreedyCompleteFromLp)
// and structured rounding (StructuredRound).
//
// One ledger owns the physical layout being built (which NF type is
// installed at which physical stage), the eq. 24/25 memory blocks per
// (type, stage) and the eq. 26 backplane sum. On top of those it
// offers the two steps every caller shares: find the earliest virtual
// stage after a box's predecessor that fits it, and admit a walked
// chain if the backplane still carries it, refunding its boxes if not.
//
// Verify() and PlacementSolution::BlocksPerStage() keep their own
// accounting: they are the oracle the ledger's placements are checked
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "controlplane/instance.h"

namespace sfp::controlplane {

class PlacementLedger {
 public:
  /// Starts from `layout` (num_types x stages) with nothing charged;
  /// chains are walked over virtual stages 1..virtual_stages.
  PlacementLedger(const PlacementInstance& instance, MemoryModel model, int virtual_stages,
                  std::vector<std::vector<bool>> layout);

  // --- physical layout ------------------------------------------------
  bool Installed(int type, int s) const {
    return layout_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)];
  }
  /// Installs a physical NF of `type` at stage s (free under eq. 24).
  void Install(int type, int s) {
    layout_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)] = true;
  }
  const std::vector<std::vector<bool>>& layout() const { return layout_; }

  // --- eq. 24/25 memory ---------------------------------------------------
  /// Blocks in use at stage s under the ledger's memory model.
  int StageBlocks(int s) const;
  /// Rule memory units charged to (type, s) so far.
  std::int64_t Entries(int type, int s) const {
    return entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)];
  }
  /// Whether a box of `type` with `mem` memory units fits at stage s.
  bool Fits(int type, int s, std::int64_t mem) const;
  void Charge(int type, int s, std::int64_t mem);
  void Refund(int type, int s, std::int64_t mem);

  // --- the shared walk steps --------------------------------------------
  /// Earliest virtual stage k in (prev, virtual_stages] whose physical
  /// stage fits a box of `type` with `mem` units; with
  /// `installed_only`, only stages already hosting the type count.
  /// -1 when none does.
  int EarliestFit(int type, std::int64_t mem, int prev, bool installed_only) const;

  /// Walks `sfc` box by box to the earliest fit — among installed
  /// stages first when `prefer_installed`, then any stage — installing
  /// the type where a box lands and charging it. Returns the virtual
  /// stages reached, shorter than the chain when a box found none.
  std::vector<int> WalkEarliest(const SfcSpec& sfc, bool prefer_installed);

  /// Admits a walked chain (eq. 26): when `stages` covers every box and
  /// the backplane carries the chain's passes, books them and returns
  /// true; otherwise refunds the boxes `stages` charged and returns
  /// false.
  bool Admit(const SfcSpec& sfc, const std::vector<int>& stages);

  /// Books a resident chain without checks: installs and charges every
  /// box and adds its passes to the backplane (pinned chains, §V-E).
  void Reserve(const SfcSpec& sfc, const std::vector<int>& stages);

 private:
  /// Blocks one logical NF of `mem` units takes under eq. 25.
  int LogicalBlocks(std::int64_t mem) const;
  int Passes(const std::vector<int>& stages) const;

  const PlacementInstance& instance_;
  MemoryModel model_;
  int virtual_stages_;
  std::vector<std::vector<bool>> layout_;
  std::vector<std::vector<std::int64_t>> entries_;
  std::vector<int> logical_blocks_;  // per-logical-NF model only
  double backplane_gbps_ = 0.0;
};

}  // namespace sfp::controlplane
