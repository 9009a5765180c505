// Dual-simplex warm restarts after bound edits (SimplexOptions::
// warm_dual) and basis snapshots. Every warm answer is checked against
// a cold solve of the same model from scratch — the dual path may
// change cost, never the answer.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace sfp::lp {
namespace {

SimplexOptions WarmOpts() {
  SimplexOptions options;
  options.warm_dual = true;
  return options;
}

Solution ColdSolve(const Model& model) {
  Simplex cold(model);  // legacy configuration: slack basis, phase 1
  return cold.Solve();
}

void ExpectMatchesCold(const Model& model, const Solution& warm, const char* where) {
  const Solution cold = ColdSolve(model);
  ASSERT_EQ(warm.status, cold.status) << where;
  if (cold.status == SolveStatus::kOptimal) {
    const double tol = 1e-6 * std::max(1.0, std::abs(cold.objective));
    EXPECT_NEAR(warm.objective, cold.objective, tol) << where;
  }
}

/// Random packing LP: maximize c'x, Ax <= b, x in [0, 1], all
/// coefficients nonnegative (the admission-model shape).
Model RandomPackingLp(Rng& rng, int num_vars, int num_rows) {
  Model model;
  for (int v = 0; v < num_vars; ++v) {
    model.AddVar(0.0, 1.0, rng.UniformDouble(0.5, 2.0), /*is_integer=*/false);
  }
  for (int r = 0; r < num_rows; ++r) {
    std::vector<VarId> vars;
    std::vector<double> coeffs;
    for (int v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.4)) {
        vars.push_back(v);
        coeffs.push_back(rng.UniformDouble(0.1, 1.0));
      }
    }
    if (vars.empty()) {
      vars.push_back(static_cast<VarId>(rng.UniformInt(0, num_vars - 1)));
      coeffs.push_back(rng.UniformDouble(0.1, 1.0));
    }
    // Tight enough that rows bind at the optimum.
    model.AddRow(std::move(vars), std::move(coeffs), Sense::kLe,
                 rng.UniformDouble(0.4, 1.4));
  }
  return model;
}

TEST(LpDualSimplexTest, BoundChurnMatchesColdAcrossSeeds) {
  std::int64_t attempts = 0;
  std::int64_t successes = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    Model model = RandomPackingLp(rng, 12, 6);
    Simplex warm(model, WarmOpts());
    ASSERT_EQ(warm.Solve().status, SolveStatus::kOptimal);

    for (int op = 0; op < 30; ++op) {
      const VarId v = static_cast<VarId>(rng.UniformInt(0, model.num_vars() - 1));
      double lo = 0.0, hi = 1.0;
      switch (rng.UniformInt(0, 2)) {
        case 0: lo = hi = 0.0; break;          // departure
        case 1: lo = hi = 1.0; break;          // committed arrival
        default: break;                        // relax back to [0, 1]
      }
      model.SetVarBounds(v, lo, hi);
      warm.SetVarBounds(v, lo, hi);
      const Solution solution = warm.Solve();
      ExpectMatchesCold(model, solution, "bound churn");
      if (HasFatalFailure()) return;
    }
    attempts += warm.stats().warm_attempts;
    successes += warm.stats().warm_successes;
  }
  // The traces deliberately wander through infeasible stretches, where
  // every attempt legitimately falls back to phase 1 (and the first
  // solves after recovery start from a phase-1-terminal basis). The
  // dual path still has to carry a meaningful share of the total churn.
  EXPECT_GT(attempts, 0);
  EXPECT_GE(successes, attempts / 8);
}

TEST(LpDualSimplexTest, SingularSnapshotFallsBackToSlackBasis) {
  Rng rng(31);
  Model model = RandomPackingLp(rng, 6, 4);
  Simplex warm(model, WarmOpts());
  ASSERT_EQ(warm.Solve().status, SolveStatus::kOptimal);

  // Deliberately corrupt: variable 0 occupies every basis slot, which
  // can never factorize. Solve() must detect this and restart from the
  // slack basis instead of reusing garbage.
  Simplex::BasisState bogus;
  bogus.basis.assign(4, 0);
  bogus.status.assign(static_cast<std::size_t>(model.num_vars() + model.num_rows()),
                      0);  // all "at lower"
  bogus.num_struct = model.num_vars();
  bogus.num_rows = model.num_rows();
  warm.RestoreBasis(bogus);
  ExpectMatchesCold(model, warm.Solve(), "singular snapshot");
}

TEST(LpDualSimplexTest, InfeasibleBoundEditAgreesWithCold) {
  Model model;
  const VarId x = model.AddVar(0.0, 2.0, 1.0, false);
  const VarId y = model.AddVar(0.0, 2.0, 1.0, false);
  model.AddRow({x, y}, {1.0, 1.0}, Sense::kGe, 3.0);
  Simplex warm(model, WarmOpts());
  ASSERT_EQ(warm.Solve().status, SolveStatus::kOptimal);

  // Fixing both below the covering requirement is infeasible; the dual
  // path may detect it but phase 1 must confirm it.
  model.SetVarBounds(x, 0.0, 0.0);
  model.SetVarBounds(y, 0.5, 0.5);
  warm.SetVarBounds(x, 0.0, 0.0);
  warm.SetVarBounds(y, 0.5, 0.5);
  EXPECT_EQ(warm.Solve().status, SolveStatus::kInfeasible);
  EXPECT_EQ(ColdSolve(model).status, SolveStatus::kInfeasible);

  // Relaxing again re-solves back to the cold answer.
  model.SetVarBounds(x, 0.0, 2.0);
  model.SetVarBounds(y, 0.0, 2.0);
  warm.SetVarBounds(x, 0.0, 2.0);
  warm.SetVarBounds(y, 0.0, 2.0);
  ExpectMatchesCold(model, warm.Solve(), "relax after infeasible");
}

TEST(LpDualSimplexTest, UncongestedRelaxIsPivotFreeBoundFlip) {
  Model model;
  const VarId x = model.AddVar(0.0, 1.0, 1.0, false);
  const VarId y = model.AddVar(0.0, 0.0, 2.0, false);  // fixed out
  model.AddRow({x, y}, {1.0, 1.0}, Sense::kLe, 100.0);
  Simplex warm(model, WarmOpts());
  ASSERT_EQ(warm.Solve().status, SolveStatus::kOptimal);
  const auto before = warm.stats();

  // Plenty of slack: relaxing the profitable column's bound just flips
  // it to its upper bound during dual-feasibility repair — no pivots.
  model.SetVarBounds(y, 0.0, 1.0);
  warm.SetVarBounds(y, 0.0, 1.0);
  const Solution solution = warm.Solve();
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 3.0, 1e-9);
  EXPECT_NEAR(solution.values[static_cast<std::size_t>(y)], 1.0, 1e-9);
  EXPECT_EQ(warm.stats().warm_successes, before.warm_successes + 1);
  EXPECT_EQ(warm.stats().dual_iterations, before.dual_iterations);
  EXPECT_EQ(warm.stats().iterations, before.iterations);
}

TEST(LpDualSimplexTest, TinyDualBudgetDegradesToPhase1NotWrongAnswers) {
  Rng rng(55);
  Model model = RandomPackingLp(rng, 12, 6);
  SimplexOptions options = WarmOpts();
  options.max_dual_iterations = 1;  // starve the repair loop
  Simplex warm(model, options);
  ASSERT_EQ(warm.Solve().status, SolveStatus::kOptimal);
  for (int op = 0; op < 15; ++op) {
    const VarId v = static_cast<VarId>(rng.UniformInt(0, model.num_vars() - 1));
    const double fixed = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    model.SetVarBounds(v, fixed, fixed);
    warm.SetVarBounds(v, fixed, fixed);
    ExpectMatchesCold(model, warm.Solve(), "starved dual budget");
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(warm.stats().warm_attempts, 0);
}

}  // namespace
}  // namespace sfp::lp
