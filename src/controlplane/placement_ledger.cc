#include "controlplane/placement_ledger.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/units.h"

namespace sfp::controlplane {

PlacementLedger::PlacementLedger(const PlacementInstance& instance, MemoryModel model,
                                 int virtual_stages, std::vector<std::vector<bool>> layout)
    : instance_(instance),
      model_(model),
      virtual_stages_(virtual_stages),
      layout_(std::move(layout)),
      entries_(static_cast<std::size_t>(instance.num_types),
               std::vector<std::int64_t>(static_cast<std::size_t>(instance.sw.stages), 0)),
      logical_blocks_(static_cast<std::size_t>(instance.sw.stages), 0) {}

int PlacementLedger::LogicalBlocks(std::int64_t mem) const {
  return static_cast<int>(std::max<std::int64_t>(1, CeilDiv(mem, instance_.sw.entries_per_block)));
}

int PlacementLedger::StageBlocks(int s) const {
  if (model_ == MemoryModel::kPerLogicalNf) return logical_blocks_[static_cast<std::size_t>(s)];
  int blocks = 0;
  for (int i = 0; i < instance_.num_types; ++i) {
    const std::int64_t e = Entries(i, s);
    if (e > 0) blocks += static_cast<int>(CeilDiv(e, instance_.sw.entries_per_block));
  }
  return blocks;
}

bool PlacementLedger::Fits(int type, int s, std::int64_t mem) const {
  if (model_ == MemoryModel::kPerLogicalNf) {
    return logical_blocks_[static_cast<std::size_t>(s)] + LogicalBlocks(mem) <=
           instance_.sw.blocks_per_stage;
  }
  const std::int64_t e = Entries(type, s);
  const int old_blocks = e > 0 ? static_cast<int>(CeilDiv(e, instance_.sw.entries_per_block)) : 0;
  const int new_blocks = static_cast<int>(CeilDiv(e + mem, instance_.sw.entries_per_block));
  return StageBlocks(s) - old_blocks + new_blocks <= instance_.sw.blocks_per_stage;
}

void PlacementLedger::Charge(int type, int s, std::int64_t mem) {
  entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)] += mem;
  if (model_ == MemoryModel::kPerLogicalNf) {
    logical_blocks_[static_cast<std::size_t>(s)] += LogicalBlocks(mem);
  }
}

void PlacementLedger::Refund(int type, int s, std::int64_t mem) {
  entries_[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)] -= mem;
  SFP_CHECK_GE(Entries(type, s), 0);
  if (model_ == MemoryModel::kPerLogicalNf) {
    logical_blocks_[static_cast<std::size_t>(s)] -= LogicalBlocks(mem);
  }
}

int PlacementLedger::EarliestFit(int type, std::int64_t mem, int prev,
                                 bool installed_only) const {
  const int S = instance_.sw.stages;
  for (int k = prev + 1; k <= virtual_stages_; ++k) {
    const int s = (k - 1) % S;
    if (installed_only && !Installed(type, s)) continue;
    if (Fits(type, s, mem)) return k;
  }
  return -1;
}

std::vector<int> PlacementLedger::WalkEarliest(const SfcSpec& sfc, bool prefer_installed) {
  const int S = instance_.sw.stages;
  std::vector<int> stages;
  int prev = 0;
  for (const NfBox& box : sfc.boxes) {
    const std::int64_t mem = box.MemoryUnits(instance_.sw.rule_width);
    int k = prefer_installed ? EarliestFit(box.type, mem, prev, /*installed_only=*/true) : -1;
    if (k < 0) k = EarliestFit(box.type, mem, prev, /*installed_only=*/false);
    if (k < 0) break;
    Install(box.type, (k - 1) % S);
    Charge(box.type, (k - 1) % S, mem);
    stages.push_back(k);
    prev = k;
  }
  return stages;
}

int PlacementLedger::Passes(const std::vector<int>& stages) const {
  const int S = instance_.sw.stages;
  return (stages.back() + S - 1) / S;
}

bool PlacementLedger::Admit(const SfcSpec& sfc, const std::vector<int>& stages) {
  if (static_cast<int>(stages.size()) == sfc.Length()) {
    const int passes = Passes(stages);
    if (backplane_gbps_ + passes * sfc.bandwidth_gbps <= instance_.sw.capacity_gbps + 1e-9) {
      backplane_gbps_ += passes * sfc.bandwidth_gbps;
      return true;
    }
  }
  // Resource_recompute on failure. Physical NFs the walk installed stay
  // installed: an empty table costs nothing under eq. 24 and may serve
  // later chains.
  const int S = instance_.sw.stages;
  for (std::size_t j = 0; j < stages.size(); ++j) {
    const NfBox& box = sfc.boxes[j];
    Refund(box.type, (stages[j] - 1) % S, box.MemoryUnits(instance_.sw.rule_width));
  }
  return false;
}

void PlacementLedger::Reserve(const SfcSpec& sfc, const std::vector<int>& stages) {
  const int S = instance_.sw.stages;
  for (std::size_t j = 0; j < stages.size(); ++j) {
    const NfBox& box = sfc.boxes[j];
    Install(box.type, (stages[j] - 1) % S);
    Charge(box.type, (stages[j] - 1) % S, box.MemoryUnits(instance_.sw.rule_width));
  }
  backplane_gbps_ += Passes(stages) * sfc.bandwidth_gbps;
}

}  // namespace sfp::controlplane
