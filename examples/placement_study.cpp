// Placement what-if study: compare SFP-IP, SFP-Appro and the greedy
// baseline on a synthetic tenant mix (a miniature of Fig. 10), and show
// a runtime-update cycle (§V-E).
//
// Run: ./build/examples/placement_study [num_sfcs] [seed]
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "controlplane/approx_solver.h"
#include "controlplane/greedy_solver.h"
#include "controlplane/ilp_solver.h"
#include "controlplane/runtime_update.h"
#include "workload/sfc_gen.h"

#include <iostream>

using namespace sfp;
using namespace sfp::controlplane;

int main(int argc, char** argv) {
  const int num_sfcs = argc > 1 ? std::atoi(argv[1]) : 15;
  const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;

  Rng rng(seed);
  workload::DatasetParams params;
  params.num_sfcs = num_sfcs;
  params.num_types = 10;
  SwitchResources sw;  // 8 stages x 20 blocks x 1000 entries, 400 Gbps
  auto instance = workload::GenerateInstance(params, sw, rng);

  std::printf("placement study: L=%d SFCs, I=%d types, S=%d stages, C=%.0f Gbps\n\n",
              instance.NumSfcs(), instance.num_types, sw.stages, sw.capacity_gbps);

  IlpOptions ilp_options;
  ilp_options.model.max_passes = 3;
  ilp_options.time_limit_seconds = 20.0;
  ilp_options.relative_gap = 1e-3;
  auto ilp = SolveIlp(instance, ilp_options);

  ApproxOptions approx_options;
  approx_options.model.max_passes = 3;
  auto approx = SolveApprox(instance, approx_options);

  GreedyOptions greedy_options;
  greedy_options.max_passes = 3;
  auto greedy = SolveGreedy(instance, greedy_options);

  Table table({"algorithm", "objective (eq.1)", "placed", "offloaded Gbps",
               "backplane Gbps", "time (s)"});
  table.Row()
      .Add("SFP-IP")
      .Add(ilp.objective, 1)
      .Add(static_cast<std::int64_t>(ilp.solution.NumPlaced()))
      .Add(ilp.solution.OffloadedGbps(instance), 1)
      .Add(ilp.solution.BackplaneGbps(instance), 1)
      .Add(ilp.seconds, 2);
  table.Row()
      .Add("SFP-Appro")
      .Add(approx.objective, 1)
      .Add(static_cast<std::int64_t>(approx.solution.NumPlaced()))
      .Add(approx.solution.OffloadedGbps(instance), 1)
      .Add(approx.solution.BackplaneGbps(instance), 1)
      .Add(approx.seconds, 2);
  table.Row()
      .Add("Greedy")
      .Add(greedy.objective, 1)
      .Add(static_cast<std::int64_t>(greedy.solution.NumPlaced()))
      .Add(greedy.solution.OffloadedGbps(instance), 1)
      .Add(greedy.solution.BackplaneGbps(instance), 1)
      .Add(greedy.seconds, 4);
  table.Print(std::cout);
  std::printf("\nLP upper bound: %.1f; IP dual bound: %.1f (status %s)\n",
              approx.lp_bound, ilp.best_bound, lp::ToString(ilp.status));

  // Runtime update: drop 30% of residents, refill from the pool.
  std::printf("\nruntime update cycle (drop rate 0.3):\n");
  RuntimeUpdateOptions update_options;
  update_options.solver = approx_options;
  RuntimeUpdateManager manager(instance, update_options);
  manager.PlaceInitial();
  const double before = manager.current().ObjectiveWeighted(instance);
  Rng drop_rng(seed + 1);
  const int dropped = manager.DropRandom(0.3, drop_rng);
  manager.Refill();
  const double after = manager.current().ObjectiveWeighted(instance);
  std::printf("  objective before=%.1f, dropped %d SFC(s), after refill=%.1f\n", before,
              dropped, after);
  return 0;
}
