// Fig. 6 — Throughput and resource utilization varying the number of
// SFC candidates L (10..50): SFP vs SFP-without-consolidation
// ("Baseline", eq. 25 memory accounting).
//
// Setup per §VI-C: 8 stages x 20 blocks x 1000 entries, 400 Gbps
// backplane, I=10 NF types, average chain length 5, recirculation
// budget 3 (4 passes). Numbers are means over SFP_BENCH_SEEDS datasets.
//
// BENCH_fig06_num_sfcs.json carries the table, and every cell as an
// integer counter x10 (consolidation.l<L>.*; docs/METRICS.md).
#include <cmath>
#include <iostream>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "controlplane/approx_solver.h"
#include "workload/sfc_gen.h"

using namespace sfp;
using namespace sfp::controlplane;

int main() {
  constexpr const char* kCaption =
      "throughput + block/entry utilization vs #SFCs (consolidation ablation)";
  bench::PrintHeader("Fig. 6", kCaption);
  bench::BenchReport report("fig06_num_sfcs", kCaption);
  const int seeds = bench::NumSeeds();

  Table table({"L", "SFP thr (Gbps)", "Base thr (Gbps)", "SFP blocks", "Base blocks",
               "SFP entries", "Base entries"});

  // One candidate pool per seed; each L takes its prefix, so the series
  // is a growing-candidate sweep rather than independent redraws.
  std::vector<controlplane::PlacementInstance> pools;
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(1000 + static_cast<std::uint64_t>(seed) * 17);
    workload::DatasetParams params;
    params.num_sfcs = 50;
    params.num_types = 10;
    SwitchResources sw;  // §VI-C defaults
    pools.push_back(workload::GenerateInstance(params, sw, rng));
  }

  for (const int L : {10, 15, 20, 25, 30, 40, 50}) {
    double sfp_thr = 0, base_thr = 0, sfp_blocks = 0, base_blocks = 0, sfp_entries = 0,
           base_entries = 0;
    for (int seed = 0; seed < seeds; ++seed) {
      auto instance = pools[static_cast<std::size_t>(seed)];
      instance.sfcs.resize(static_cast<std::size_t>(L));

      ApproxOptions sfp_options;
      sfp_options.model.max_passes = 4;  // recirculation budget 3
      sfp_options.model.memory_model = MemoryModel::kConsolidated;
      sfp_options.only_max_passes = true;
      sfp_options.seed = static_cast<std::uint64_t>(seed) + 1;
      auto sfp = SolveApprox(instance, sfp_options);

      ApproxOptions base_options = sfp_options;
      base_options.model.memory_model = MemoryModel::kPerLogicalNf;
      auto base = SolveApprox(instance, base_options);

      sfp_thr += sfp.solution.OffloadedGbps(instance);
      base_thr += base.solution.OffloadedGbps(instance);
      sfp_blocks += sfp.solution.AvgBlockUtilization(instance, MemoryModel::kConsolidated);
      base_blocks += base.solution.AvgBlockUtilization(instance, MemoryModel::kPerLogicalNf);
      sfp_entries += sfp.solution.AvgEntryUtilization(instance);
      base_entries += base.solution.AvgEntryUtilization(instance);
    }
    const double n = seeds;
    table.Row()
        .Add(static_cast<std::int64_t>(L))
        .Add(sfp_thr / n, 1)
        .Add(base_thr / n, 1)
        .Add(sfp_blocks / n, 1)
        .Add(base_blocks / n, 1)
        .Add(sfp_entries / n, 1)
        .Add(base_entries / n, 1);
    const std::string prefix = "consolidation.l" + std::to_string(L) + ".";
    for (const auto& [name, value] : {std::pair{"sfp_thr_x10", sfp_thr},
                                      std::pair{"base_thr_x10", base_thr},
                                      std::pair{"sfp_blocks_x10", sfp_blocks},
                                      std::pair{"base_blocks_x10", base_blocks},
                                      std::pair{"sfp_entries_x10", sfp_entries},
                                      std::pair{"base_entries_x10", base_entries}}) {
      report.metrics()
          .GetCounter(prefix + name)
          .Set(static_cast<std::uint64_t>(std::llround(value / n * 10.0)));
    }
  }
  table.Print(std::cout);
  report.AddTable("sweep", table);
  bench::PrintNote(
      "paper shape: blocks saturate at B=20 by L~15; throughput keeps growing "
      "with L; SFP edges out the no-consolidation baseline in throughput and "
      "entry utilization (internal fragmentation).");
  report.Write();
  return 0;
}
