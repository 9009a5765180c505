// Fig. 8 — Execution time of SFP-IP vs SFP-Appro varying the number of
// SFCs (8 stages, recirculation budget 2, average chain length 5).
//
// The paper's claim: the IP runtime grows super-exponentially with L
// (Gurobi there, our branch & bound here) while the LP+rounding
// approximation stays polynomial. SFP-IP runs are capped at
// SFP_BENCH_IP_CAP seconds (default 60) and flagged when they hit it.
//
// On top of the paper sweep this bench calibrates the solver: one
// uncapped deterministic solve at L=25 and the same solve with the
// parallel tree search. The two must agree on the optimal objective,
// and the deterministic node/pivot counters become the CI perf gate
// (tools/compare_bench_json.py).
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "bench/bench_util.h"
#include "controlplane/approx_solver.h"
#include "controlplane/ilp_solver.h"
#include "workload/sfc_gen.h"

using namespace sfp;
using namespace sfp::controlplane;

namespace {

double IpCapSeconds() {
  if (const char* env = std::getenv("SFP_BENCH_IP_CAP")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 60.0;
}

}  // namespace

int main() {
  bench::PrintHeader("Fig. 8", "solver execution time vs #SFCs: SFP-IP vs SFP-Appro");
  bench::BenchReport report("fig08_solver_time",
                            "solver execution time vs #SFCs: SFP-IP vs SFP-Appro");
  const double ip_cap = IpCapSeconds();

  Table table({"L", "SFP-IP (s)", "IP status", "SFP-Appro (s)", "IP obj", "Appro obj"});

  // One 50-SFC pool; each L solves its prefix (a growing-candidate
  // sweep as in Fig. 6).
  Rng rng(8000);
  workload::DatasetParams params;
  params.num_sfcs = 50;
  params.num_types = 10;
  SwitchResources sw;
  const auto pool = workload::GenerateInstance(params, sw, rng);

  for (const int L : {5, 10, 15, 20, 25, 30, 40, 50}) {
    auto instance = pool;
    instance.sfcs.resize(static_cast<std::size_t>(L));

    IlpOptions ilp_options;
    ilp_options.model.max_passes = 3;  // recirculation 2
    ilp_options.time_limit_seconds = ip_cap;
    ilp_options.relative_gap = 1e-4;
    auto ilp = SolveIlp(instance, ilp_options);

    ApproxOptions approx_options;
    approx_options.model.max_passes = 3;
    auto approx = SolveApprox(instance, approx_options);

    table.Row()
        .Add(static_cast<std::int64_t>(L))
        .Add(ilp.seconds, 2)
        .Add(lp::ToString(ilp.status))
        .Add(approx.seconds, 2)
        .Add(ilp.objective, 1)
        .Add(approx.objective, 1);
  }
  table.Print(std::cout);
  bench::PrintNote(
      "paper shape: IP time explodes (they cut it past ~25 SFCs); the "
      "approximation stays polynomial (~70 s at 50 SFCs with Gurobi; ours is "
      "a from-scratch simplex, compare trends not constants).");

  // --- solver calibration: deterministic vs parallel tree search ---
  // Uncapped solves of the L=25 prefix. Counters from the deterministic
  // run are the gated CI baseline; wall-clock is reported but not gated
  // (machine-dependent).
  {
    auto instance = pool;
    instance.sfcs.resize(25);

    IlpOptions det_options;
    det_options.model.max_passes = 3;
    det_options.relative_gap = 1e-4;
    auto det = SolveIlp(instance, det_options);

    IlpOptions parallel_options = det_options;
    parallel_options.deterministic = false;
    auto parallel = SolveIlp(instance, parallel_options);

    Table calib({"kernel", "time (s)", "status", "objective", "nodes", "pivots"});
    calib.Row()
        .Add("sparse-lu")
        .Add(det.seconds, 2)
        .Add(lp::ToString(det.status))
        .Add(det.objective, 1)
        .Add(det.nodes)
        .Add(det.pivots);
    calib.Row()
        .Add("parallel")
        .Add(parallel.seconds, 2)
        .Add(lp::ToString(parallel.status))
        .Add(parallel.objective, 1)
        .Add(parallel.nodes)
        .Add(parallel.pivots);
    std::printf("\nsolver calibration (uncapped, L=25):\n");
    calib.Print(std::cout);
    report.AddTable("calibration", calib);

    ExportSolverMetrics(det, report.metrics(), "solver");
    ExportSolverMetrics(parallel, report.metrics(), "solver.par");
    report.metrics()
        .GetCounter("solver.det.objective_milli")
        .Set(static_cast<std::uint64_t>(std::llround(det.objective * 1000.0)));
    report.metrics()
        .GetCounter("solver.par.objective_milli")
        .Set(static_cast<std::uint64_t>(std::llround(parallel.objective * 1000.0)));
  }

  report.AddTable("sweep", table);
  report.AddNote("IP runs capped at SFP_BENCH_IP_CAP seconds; calibration solves uncapped");
  report.Write();
  return 0;
}
