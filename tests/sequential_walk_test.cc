// Differential test of the default planner (Planner::kSequential)
// against the paper's §IV chain-order walk, written out directly as an
// oracle: each logical NF lands at the nearest later stage of its type
// with spare memory, and the chain folds into the next pass at the
// pipeline end. DataPlane::Schedule reaches the same plan through
// chain-order precedence edges; this test checks that, for random
// layouts, populations, chains and pass budgets, both agree on every
// placement, the pass count and the failure verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataplane/data_plane.h"
#include "nf/nf.h"

namespace sfp::dataplane {
namespace {

using nf::NfType;

/// The rule-carrying NF types.
constexpr NfType kTypes[] = {NfType::kFirewall, NfType::kClassifier, NfType::kRouter,
                             NfType::kNat, NfType::kLoadBalancer};

struct WalkPlan {
  bool ok = false;
  std::vector<NfPlacement> placements;
  int passes = 0;
};

/// The §IV walk over `dp`'s tables with `sfc.tenant`'s own installed
/// entries taken out (a re-plan sees its old entries as free).
WalkPlan ChainOrderWalk(const DataPlane& dp, const Sfc& sfc, int pass_limit) {
  const switchsim::Pipeline& pipeline = dp.pipeline();
  switchsim::EntryDeltas pending;
  for (int k = 0; k < pipeline.num_stages(); ++k) {
    for (const auto& table : pipeline.stage(k).tables()) {
      for (const auto& entry : table->entries()) {
        if (entry.owner_tenant == sfc.tenant) --pending[table.get()];
      }
    }
  }
  WalkPlan walk;
  int pass = 0;
  int cursor = 0;  // next candidate stage within the current pass
  for (const auto& logical : sfc.chain) {
    const std::int64_t entries = static_cast<std::int64_t>(logical.rules.size()) + 1;
    const std::string name = nf::NfShortName(logical.type);
    const switchsim::MatchActionTable* chosen = nullptr;
    while (chosen == nullptr) {
      for (int k = cursor; k < pipeline.num_stages() && chosen == nullptr; ++k) {
        const auto* table = pipeline.stage(k).FindTable(name + "_s" + std::to_string(k));
        if (table == nullptr || !pipeline.stage(k).CanAddEntries(*table, entries, pending)) {
          continue;
        }
        chosen = table;
        cursor = k + 1;
      }
      if (chosen != nullptr) break;
      ++pass;  // fold into the next pass
      cursor = 0;
      if (pass >= pass_limit) return {};
    }
    pending[chosen] += entries;
    walk.placements.push_back(NfPlacement{cursor - 1, pass, false});
  }
  // REC on the last NF of every non-final pass.
  for (std::size_t j = 0; j + 1 < walk.placements.size(); ++j) {
    walk.placements[j].rec = walk.placements[j + 1].pass != walk.placements[j].pass;
  }
  walk.ok = true;
  walk.passes = pass + 1;
  return walk;
}

/// A chain of 1-7 NFs with 0-`max_rules` rules each, over `types`.
Sfc RandomChain(TenantId tenant, const std::vector<NfType>& types, int max_rules, Rng& rng) {
  Sfc sfc;
  sfc.tenant = tenant;
  const int length = static_cast<int>(rng.UniformInt(1, 7));
  for (int j = 0; j < length; ++j) {
    nf::NfConfig config;
    config.type = types[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(types.size()) - 1))];
    config.rules = nf::MakeNf(config.type)->GenerateRules(
        rng, static_cast<int>(rng.UniformInt(0, max_rules)));
    sfc.chain.push_back(std::move(config));
  }
  return sfc;
}

TEST(SequentialWalkTest, SchedulerMatchesTheChainOrderWalk) {
  Rng rng(0x5E0Au);
  constexpr int kCases = 1500;
  int cases = 0;
  int failed = 0;
  int folded = 0;
  int replans = 0;
  for (int layout = 0; cases < kCases; ++layout) {
    switchsim::SwitchConfig config;
    config.num_stages = static_cast<int>(rng.UniformInt(2, 6));
    config.blocks_per_stage = static_cast<int>(rng.UniformInt(3, 5));
    config.entries_per_block = static_cast<int>(rng.UniformInt(4, 16));
    config.planner = switchsim::Planner::kSequential;
    DataPlane dp(config);
    std::vector<NfType> installed;  // chains draw from these
    for (int k = 0; k < config.num_stages; ++k) {
      std::vector<NfType> types(std::begin(kTypes), std::end(kTypes));
      rng.Shuffle(types);
      const int tables = static_cast<int>(rng.UniformInt(1, 3));
      for (int t = 0; t < tables; ++t) {
        ASSERT_TRUE(dp.InstallPhysicalNf(k, types[t]));
        if (std::find(installed.begin(), installed.end(), types[t]) == installed.end()) {
          installed.push_back(types[t]);
        }
      }
    }
    // Each case plans one tenant, installed or not, then applies the
    // plan, so later cases see other tenants' entries and re-plans.
    for (int step = 0; step < 20; ++step, ++cases) {
      const auto tenant = static_cast<TenantId>(rng.UniformInt(1, 6));
      const Sfc sfc = RandomChain(tenant, installed, config.entries_per_block / 2, rng);
      const int budget = static_cast<int>(rng.UniformInt(1, 4));
      SCOPED_TRACE("layout " + std::to_string(layout) + " step " + std::to_string(step));

      const WalkPlan walk = ChainOrderWalk(dp, sfc, budget);
      const AllocationPlan plan = dp.PlanSfc(sfc, budget);
      const AllocationResult& got = plan.allocation;
      ASSERT_EQ(got.ok, walk.ok);
      if (walk.ok) {
        ASSERT_EQ(got.passes, walk.passes);
        ASSERT_EQ(got.sequential_passes, walk.passes);
        ASSERT_EQ(got.placements.size(), walk.placements.size());
        for (std::size_t j = 0; j < walk.placements.size(); ++j) {
          SCOPED_TRACE("nf " + std::to_string(j));
          EXPECT_EQ(got.placements[j].stage, walk.placements[j].stage);
          EXPECT_EQ(got.placements[j].pass, walk.placements[j].pass);
          EXPECT_EQ(got.placements[j].rec, walk.placements[j].rec);
        }
      } else {
        EXPECT_EQ(got.code, AllocCode::kNoPlacement);
      }

      failed += walk.ok ? 0 : 1;
      folded += walk.passes > 1 ? 1 : 0;
      replans += dp.IsAllocated(tenant) ? 1 : 0;
      if (got.ok) {
        ASSERT_TRUE(dp.SwapSfc(tenant, &sfc, &plan).ok);
      } else if (rng.Bernoulli(0.5)) {
        dp.DeallocateSfc(tenant);
      }
    }
  }
  // The draw must reach every verdict the walk can give.
  EXPECT_GT(failed, cases / 20);
  EXPECT_GT(folded, cases / 20);
  EXPECT_GT(replans, cases / 5);
}

}  // namespace
}  // namespace sfp::dataplane
