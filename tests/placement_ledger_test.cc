// controlplane::PlacementLedger against the accounting it must agree
// with. Verify() and PlacementSolution::BlocksPerStage() keep their own
// bookkeeping of the eq. 24/25 blocks and the eq. 26 backplane, so they
// are the oracle: after every chain the ledger admits or refuses, its
// per-stage blocks must equal BlocksPerStage() of the chains it
// admitted, and those chains on its layout must pass Verify().
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "controlplane/placement_ledger.h"
#include "controlplane/solution.h"
#include "controlplane/verifier.h"
#include "workload/sfc_gen.h"

namespace sfp::controlplane {
namespace {

std::vector<std::vector<bool>> EmptyLayout(const PlacementInstance& instance) {
  return std::vector<std::vector<bool>>(
      static_cast<std::size_t>(instance.num_types),
      std::vector<bool>(static_cast<std::size_t>(instance.sw.stages), false));
}

TEST(PlacementLedgerTest, BooksExactlyWhatTheVerifierCounts) {
  int residents = 0, admitted = 0, walk_failures = 0, capacity_refusals = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 7919 + 5);
    workload::DatasetParams params;
    params.num_sfcs = 30;
    params.num_types = 6;
    SwitchResources sw;
    // Scarce memory and backplane, so walks fail and eq. 26 refuses.
    sw.blocks_per_stage = 4;
    sw.capacity_gbps = 120;
    const PlacementInstance instance = workload::GenerateInstance(params, sw, rng);
    const MemoryModel model =
        trial % 2 == 0 ? MemoryModel::kConsolidated : MemoryModel::kPerLogicalNf;
    const int max_passes = 1 + trial % 3;
    const int S = instance.sw.stages;

    PlacementLedger ledger(instance, model, max_passes * S, EmptyLayout(instance));
    PlacementSolution solution;
    solution.chains.resize(instance.sfcs.size());
    const auto place = [&](int l, const std::vector<int>& stages) {
      ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
      chain.placed = true;
      chain.virtual_stages = stages;
    };
    const auto expect_books_match = [&] {
      solution.physical = ledger.layout();
      const std::vector<int> blocks = solution.BlocksPerStage(instance, model);
      for (int s = 0; s < S; ++s) {
        ASSERT_EQ(ledger.StageBlocks(s), blocks[static_cast<std::size_t>(s)])
            << "trial " << trial << " stage " << s;
      }
    };

    std::vector<int> order(instance.sfcs.size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    // Residents first (§V-E): up to three chains another ledger
    // admitted, booked here without checks.
    PlacementLedger previous(instance, model, max_passes * S, EmptyLayout(instance));
    std::size_t next = 0;
    for (int pinned = 0; next < order.size() && pinned < 3; ++next) {
      const int l = order[next];
      const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
      const std::vector<int> stages = previous.WalkEarliest(sfc, /*prefer_installed=*/true);
      if (!previous.Admit(sfc, stages)) continue;
      ledger.Reserve(sfc, stages);
      place(l, stages);
      ++pinned;
      ++residents;
      expect_books_match();
    }
    for (; next < order.size(); ++next) {
      const int l = order[next];
      const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
      const std::vector<int> stages = ledger.WalkEarliest(sfc, rng.Bernoulli(0.5));
      if (ledger.Admit(sfc, stages)) {
        place(l, stages);
        ++admitted;
      } else if (static_cast<int>(stages.size()) < sfc.Length()) {
        ++walk_failures;
      } else {
        ++capacity_refusals;
      }
      expect_books_match();
    }

    // eq. 4 repair, then the exact verifier.
    for (int i = 0; i < instance.num_types; ++i) {
      bool any = false;
      for (int s = 0; s < S; ++s) any |= ledger.Installed(i, s);
      if (!any) ledger.Install(i, 0);
    }
    solution.physical = ledger.layout();
    VerifyOptions options;
    options.memory_model = model;
    options.max_passes = max_passes;
    const auto verdict = Verify(instance, solution, options);
    EXPECT_TRUE(verdict.ok) << "trial " << trial << ": " << verdict.violation;
  }
  EXPECT_GT(residents, 0);
  EXPECT_GT(admitted, 0);
  EXPECT_GT(walk_failures, 0);
  EXPECT_GT(capacity_refusals, 0);
}

}  // namespace
}  // namespace sfp::controlplane
