// Differential tests for the LP and MIP solvers.
//
//  * SolverDifferentialTest — randomized LPs solved by lp::Simplex and
//    by the independent dense-tableau oracle (lp_tableau_oracle.h):
//    statuses must match and optimal objectives agree to a relative
//    1e-6. Each LP then has random bounds tightened three times; the
//    kernel re-solves warm from its previous basis, the oracle solves
//    the edited model cold. The suite is sharded so > 1000 instances
//    run by default; set SFP_LP_DIFF_INSTANCES to scale the per-shard
//    count up or down.
//  * TableauOracleTest — the oracle itself on LPs with known answers.
//  * ParallelMipTest — the parallel tree search must reproduce the
//    deterministic mode's optimal objective for worker counts
//    {1, 2, hardware_concurrency}.
//  * DeterministicTraceTest — deterministic mode must reproduce its
//    incumbent trace and node count bit-for-bit across reruns.
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lp/mip.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp_tableau_oracle.h"

namespace sfp::lp {
namespace {

int InstancesPerShard() {
  if (const char* env = std::getenv("SFP_LP_DIFF_INSTANCES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 30;
}

// A random box-bounded LP: always bounded (finite bounds on every
// variable), sometimes infeasible — kernel and oracle must agree either
// way.
Model RandomBoxLp(Rng& rng) {
  Model model;
  model.SetMaximize(rng.Bernoulli(0.5));
  const int n = static_cast<int>(rng.UniformInt(4, 24));
  const int m = static_cast<int>(rng.UniformInt(3, 18));
  for (int v = 0; v < n; ++v) {
    const double lower = rng.Bernoulli(0.2) ? -rng.UniformDouble(0, 5) : 0.0;
    const double upper = lower + rng.UniformDouble(0.5, 10);
    model.AddVar(lower, upper, rng.UniformDouble(-10, 10), false);
  }
  for (int r = 0; r < m; ++r) {
    std::vector<VarId> vars;
    std::vector<double> coeffs;
    for (VarId v = 0; v < n; ++v) {
      if (!rng.Bernoulli(0.3)) continue;  // sparse rows
      vars.push_back(v);
      coeffs.push_back(rng.UniformDouble(-4, 4));
    }
    if (vars.empty()) {
      vars.push_back(static_cast<VarId>(rng.UniformInt(0, n - 1)));
      coeffs.push_back(1.0);
    }
    const double roll = rng.UniformDouble(0, 1);
    const Sense sense = roll < 0.45 ? Sense::kLe : (roll < 0.9 ? Sense::kGe : Sense::kEq);
    model.AddRow(vars, coeffs, sense, rng.UniformDouble(-6, 6));
  }
  return model;
}

// Relative-ish objective agreement: LP optima can be large, so scale
// the tolerance by the magnitude.
void ExpectObjectivesAgree(const Solution& kernel, const Solution& oracle) {
  ASSERT_EQ(kernel.status, oracle.status);
  if (kernel.status != SolveStatus::kOptimal) return;
  const double scale = std::max({1.0, std::abs(kernel.objective), std::abs(oracle.objective)});
  EXPECT_NEAR(kernel.objective, oracle.objective, 1e-6 * scale);
}

class SolverDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialTest, SparseLuMatchesDenseReference) {
  const int instances = InstancesPerShard();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9176 + 11);
  for (int i = 0; i < instances; ++i) {
    const Model model = RandomBoxLp(rng);
    Simplex kernel(model);
    ExpectObjectivesAgree(kernel.Solve(), TableauOracle::Solve(model));

    // Warm-restart sequence: each round sets one variable's bounds to a
    // random subrange of its original box; the kernel reuses its
    // previous basis, the oracle solves the edited model from scratch.
    Model edited = model;
    for (int round = 0; round < 3; ++round) {
      const VarId v = static_cast<VarId>(rng.UniformInt(0, model.num_vars() - 1));
      const Variable& var = model.var(v);
      double lower = var.lower, upper = var.upper;
      if (rng.Bernoulli(0.5)) {
        lower = var.lower + rng.UniformDouble(0, 0.5 * (var.upper - var.lower));
      } else {
        upper = var.upper - rng.UniformDouble(0, 0.5 * (var.upper - var.lower));
      }
      kernel.SetVarBounds(v, lower, upper);
      edited.SetVarBounds(v, lower, upper);
      ExpectObjectivesAgree(kernel.Solve(), TableauOracle::Solve(edited));
    }
  }
}

// 35 shards x 30 instances = 1050 random LPs (each also re-solved
// three times warm) at the default setting.
INSTANTIATE_TEST_SUITE_P(RandomLps, SolverDifferentialTest, ::testing::Range(0, 35));

TEST(TableauOracleTest, SolvesKnownLps) {
  // max 3a + 2b  s.t.  a + b <= 4,  a + 3b <= 6,  0 <= a <= 3,
  // 0 <= b <= 10  ->  a = 3, b = 1: 11.
  Model lp;
  const VarId a = lp.AddVar(0, 3, 3, false);
  const VarId b = lp.AddVar(0, 10, 2, false);
  lp.AddRow({a, b}, {1, 1}, Sense::kLe, 4);
  lp.AddRow({a, b}, {1, 3}, Sense::kLe, 6);
  Solution solution = TableauOracle::Solve(lp);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 11.0, 1e-9);
  EXPECT_NEAR(solution.values[0], 3.0, 1e-9);
  EXPECT_NEAR(solution.values[1], 1.0, 1e-9);

  // min a - b  s.t.  a + b == 2,  a - b >= -3 over negative lower
  // bounds -5 <= a, b <= 5  ->  a = -0.5, b = 2.5: -3.
  Model shifted;
  const VarId c = shifted.AddVar(-5, 5, 1, false);
  const VarId d = shifted.AddVar(-5, 5, -1, false);
  shifted.SetMaximize(false);
  shifted.AddRow({c, d}, {1, 1}, Sense::kEq, 2);
  shifted.AddRow({c, d}, {1, -1}, Sense::kGe, -3);
  solution = TableauOracle::Solve(shifted);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -3.0, 1e-9);

  // a + b >= 5 cannot hold with a, b <= 2.
  Model infeasible;
  const VarId e = infeasible.AddVar(0, 2, 1, false);
  const VarId f = infeasible.AddVar(0, 2, 1, false);
  infeasible.AddRow({e, f}, {1, 1}, Sense::kGe, 5);
  EXPECT_EQ(TableauOracle::Solve(infeasible).status, SolveStatus::kInfeasible);
}

// A random knapsack-style MIP with binary and small general-integer
// variables; feasible by construction (all-zeros).
Model RandomMip(Rng& rng) {
  Model model;
  const int n = static_cast<int>(rng.UniformInt(6, 14));
  std::vector<VarId> vars;
  std::vector<double> weights;
  for (int v = 0; v < n; ++v) {
    const bool general = rng.Bernoulli(0.25);
    vars.push_back(model.AddVar(0, general ? 3 : 1, rng.UniformDouble(1, 10), true));
    weights.push_back(rng.UniformDouble(0.5, 4));
  }
  model.AddRow(vars, weights, Sense::kLe, rng.UniformDouble(3, 0.6 * 4 * n));
  for (int r = 0; r < 2; ++r) {
    std::vector<VarId> sub;
    std::vector<double> coeffs;
    for (VarId v = 0; v < n; ++v) {
      if (!rng.Bernoulli(0.4)) continue;
      sub.push_back(v);
      coeffs.push_back(rng.UniformDouble(0.5, 3));
    }
    if (sub.empty()) continue;
    model.AddRow(sub, coeffs, Sense::kLe, rng.UniformDouble(2, 8));
  }
  return model;
}

class ParallelMipTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMipTest, MatchesDeterministicObjective) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 5531 + 3);
  const Model model = RandomMip(rng);

  MipResult serial = MipSolver(model).Solve();
  ASSERT_EQ(serial.solution.status, SolveStatus::kOptimal);

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  for (const int workers : {1, 2, hw}) {
    MipOptions options;
    options.deterministic = false;
    options.num_workers = workers;
    MipResult parallel = MipSolver(model, options).Solve();
    ASSERT_EQ(parallel.solution.status, SolveStatus::kOptimal)
        << "workers=" << workers;
    EXPECT_NEAR(parallel.solution.objective, serial.solution.objective, 1e-5)
        << "workers=" << workers;
    EXPECT_NEAR(parallel.best_bound, serial.best_bound, 1e-5) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMips, ParallelMipTest, ::testing::Range(0, 12));

TEST(DeterministicTraceTest, RerunsAreBitIdentical) {
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    const Model model = RandomMip(rng);
    MipResult first = MipSolver(model).Solve();
    MipResult second = MipSolver(model).Solve();

    EXPECT_EQ(first.solution.status, second.solution.status);
    EXPECT_EQ(first.nodes_explored, second.nodes_explored);
    EXPECT_EQ(first.simplex_pivots, second.simplex_pivots);
    ASSERT_EQ(first.incumbent_trace.size(), second.incumbent_trace.size());
    for (std::size_t i = 0; i < first.incumbent_trace.size(); ++i) {
      // Byte-for-byte: the improving objectives must be identical
      // doubles, not merely close (timestamps are wall-clock and are
      // deliberately not compared).
      EXPECT_EQ(first.incumbent_trace[i].objective, second.incumbent_trace[i].objective);
    }
    ASSERT_EQ(first.solution.values.size(), second.solution.values.size());
    for (std::size_t i = 0; i < first.solution.values.size(); ++i) {
      EXPECT_EQ(first.solution.values[i], second.solution.values[i]);
    }
  }
}

TEST(DeterministicTraceTest, SingleWorkerPoolStillTerminates) {
  // Degenerate parallel configuration: one worker must drain the whole
  // tree without deadlocking on the queue's condition variable.
  Model model;
  VarId a = model.AddBinaryVar(3, "a");
  VarId b = model.AddBinaryVar(5, "b");
  VarId c = model.AddBinaryVar(4, "c");
  model.AddRow({a, b, c}, {2, 4, 3}, Sense::kLe, 6);

  MipOptions options;
  options.deterministic = false;
  options.num_workers = 1;
  MipResult result = MipSolver(model, options).Solve();
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, 8.0, 1e-6);
}

}  // namespace
}  // namespace sfp::lp
