// Bounded-variable two-phase revised simplex with a dual-simplex
// warm-restart path for re-solves after bound edits.
//
// Solves  min/max c'x  s.t.  rows (<=, >=, ==),  l <= x <= u.
//
// Implementation notes (see DESIGN.md "Solver internals"):
//  * every row gets a slack variable whose bounds encode the row sense,
//    so the working problem is Ax = b with box-constrained x,
//  * the basis is kept as a sparse LU factorization (Markowitz-style
//    pivoting, see basis_lu.h) refreshed with product-form eta updates,
//    so Ftran/Btran/pricing are sparse triangular solves; it is
//    refactorized every `refactor_interval` pivots or on numerical
//    drift. `SimplexOptions::use_dense_inverse` switches to the legacy
//    dense Gauss-Jordan inverse with product-form row updates, kept as
//    the differential reference for the sparse kernels,
//  * phase 1 is the composite method: basic variables outside their
//    bounds get a +/-1 cost pushing them back inside; an infeasible
//    variable blocks the ratio test when it reaches the bound it
//    violated, which guarantees monotone progress,
//  * degeneracy is handled by falling back to Bland's rule after a
//    stretch of non-improving pivots.
//
// The solver supports warm restarts for branch & bound: callers may
// tighten/relax variable bounds between Solve() calls and the previous
// basis is reused (phase 1 repairs any resulting infeasibility).
// SaveBasis()/RestoreBasis() snapshot and transplant a basis across
// Simplex instances bound to the same Model — the parallel tree search
// warm-starts each node LP from its parent's snapshot this way.
//
// Dual warm restarts (SimplexOptions::warm_dual): when the previous
// optimal basis is still dual feasible — the common case after a bound
// edit, e.g. a branching bound in branch & bound — Solve() repairs
// primal feasibility with dual simplex pivots from that basis instead
// of re-running phase 1 from slacks, so the work is proportional to
// the perturbation rather than the model. The sparse-LU factors
// survive bound edits unchanged (the basis set is untouched) and are
// only rebuilt after RestoreBasis transplants or on the usual
// refactorization interval. Any anomaly (dual infeasibility that a
// bound flip cannot repair, a pivot budget blowout, a singular basis)
// degrades to the composite phase 1 — the dual path changes cost,
// never the answer. Off by default; the default is bit-identical to
// the historical solver.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/basis_lu.h"
#include "lp/model.h"

namespace sfp::lp {

/// Tuning knobs for the simplex.
struct SimplexOptions {
  /// Bound/feasibility tolerance.
  double feas_tol = 1e-7;
  /// Reduced-cost optimality tolerance.
  double opt_tol = 1e-7;
  /// Hard cap on total simplex iterations (phases 1+2 combined).
  std::int64_t max_iterations = 200000;
  /// Basis refactorization period in pivots (dense inverse rebuild or
  /// sparse LU eta-file flush).
  int refactor_interval = 120;
  /// Pivots without objective progress before switching to Bland's rule.
  int bland_trigger = 400;
  /// Use the legacy dense basis inverse instead of the sparse LU
  /// kernels. Kept as the slow-but-simple differential reference.
  bool use_dense_inverse = false;
  /// Warm re-solves try a dual-simplex repair from the previous basis
  /// before falling back to composite phase 1 (see header comment).
  bool warm_dual = false;
  /// Dual-phase pivot budget before degrading to phase 1 (0 = auto:
  /// max(200, 4 * rows)).
  std::int64_t max_dual_iterations = 0;
};

/// Revised simplex engine bound to one Model snapshot. Variable bounds
/// may change via SetVarBounds between solves.
class Simplex {
 public:
  struct Stats {
    std::int64_t iterations = 0;
    std::int64_t phase1_iterations = 0;
    /// Dual-simplex repair pivots (warm_dual path).
    std::int64_t dual_iterations = 0;
    /// Warm solves that attempted the dual repair path.
    std::int64_t warm_attempts = 0;
    /// Warm solves the dual path carried to primal feasibility without
    /// degrading to phase 1.
    std::int64_t warm_successes = 0;
    int refactorizations = 0;
    /// Nonzeros of all Ftran results (sparse path; dense Ftrans count
    /// every position). Tracks how sparse the pivot columns stay.
    std::int64_t ftran_nnz = 0;
  };

  /// Opaque basis snapshot: which variable sits in each basis position
  /// plus every variable's nonbasic status, stamped with the model
  /// shape it was taken from. Valid across Simplex instances built
  /// from the same Model.
  struct BasisState {
    std::vector<std::int32_t> basis;
    std::vector<std::uint8_t> status;
    /// Shape at SaveBasis() time; -1 (aggregate-built snapshots) means
    /// "same shape as the restoring instance".
    std::int32_t num_struct = -1;
    std::int32_t num_rows = -1;
  };

  explicit Simplex(const Model& model, SimplexOptions options = {});

  /// Updates a structural variable's bounds (warm-start friendly).
  void SetVarBounds(VarId var, double lower, double upper);

  /// Solves from the current basis (slack basis on first call).
  Solution Solve();

  /// Discards the warm basis; the next Solve() starts from slacks.
  void ResetBasis();

  /// Snapshots the current basis (meaningful after a Solve()).
  BasisState SaveBasis() const;
  /// Adopts a snapshot from a previous Solve() — possibly of another
  /// Simplex instance on the same Model. The factorization is rebuilt
  /// on the next Solve(); a snapshot of another shape or a numerically
  /// singular one falls back to the slack basis.
  void RestoreBasis(const BasisState& state);

  const Stats& stats() const { return stats_; }

  std::int32_t num_struct_vars() const { return num_struct_; }
  std::int32_t num_rows() const { return num_rows_; }

 private:
  enum class VStatus : std::uint8_t { kBasic, kAtLower, kAtUpper, kFreeNb };

  struct Column {
    std::vector<std::int32_t> rows;
    std::vector<double> vals;
  };

  /// Outcome of the dual-simplex warm repair.
  enum class DualOutcome {
    kPrimalFeasible,  // repaired: skip phase 1
    kInfeasible,      // a row proved infeasibility (phase 1 confirms)
    kFallback,        // could not run/finish: degrade to phase 1
  };

  // --- setup ---------------------------------------------------------
  void BuildColumns(const Model& model);
  void ResetBasisToSlacks();
  void SnapNonbasicToBounds();
  void ComputeBasicValues();
  bool Refactorize();  // false if basis singular

  // --- iteration pieces ---------------------------------------------
  // Multiplies w = Binv * A_j for column j.
  void Ftran(std::int32_t j, std::vector<double>& w);
  // y = cost_B' * Binv for the given per-variable cost vector.
  void ComputeDuals(const std::vector<double>& cost, std::vector<double>& y) const;
  double ReducedCost(std::int32_t j, const std::vector<double>& cost,
                     const std::vector<double>& y) const;

  struct Entering {
    std::int32_t var = -1;
    int direction = 0;  // +1 increase, -1 decrease
    double reduced_cost = 0.0;
  };
  Entering PriceEntering(const std::vector<double>& cost, const std::vector<double>& y,
                         bool bland) const;

  struct RatioResult {
    double step = 0.0;
    std::int32_t leaving_pos = -1;  // basis position; -1 = bound flip
    bool leaving_at_upper = false;
    bool unbounded = false;
  };
  RatioResult RatioTest(const Entering& e, const std::vector<double>& w,
                        bool phase1, bool bland) const;

  void ApplyStep(const Entering& e, const std::vector<double>& w, const RatioResult& r);

  // Runs pricing/ratio/pivot until optimal for `cost`. `phase1` enables
  // the composite-infeasibility rules. Returns the terminal status.
  SolveStatus Iterate(const std::vector<double>& cost, bool phase1);

  // Dual-simplex repair from the current (dual-feasible) basis: picks
  // the most infeasible basic variable, prices its Btran row over the
  // nonbasic candidates, and pivots by the min dual ratio until primal
  // feasible. See DESIGN.md "Dual warm restarts" for the rules.
  DualOutcome TryDualWarmStart();

  double TotalInfeasibility() const;
  void BuildPhase1Cost(std::vector<double>& cost) const;
  // Sum of cost_' x in minimize space (phase-2 progress + objective).
  double CurrentObjective() const;

  // Dense Gauss-Jordan rebuild of binv_ (reference path).
  bool RefactorizeDense();
  // Sparse LU rebuild of lu_ from the current basis.
  bool RefactorizeSparse();

  // --- data ----------------------------------------------------------
  SimplexOptions options_;
  std::int32_t num_rows_ = 0;
  std::int32_t num_struct_ = 0;
  std::int32_t num_total_ = 0;  // structural + slack

  std::vector<Column> columns_;   // structural columns only
  std::vector<double> lower_, upper_, cost_;  // size num_total_
  std::vector<double> rhs_;                   // size num_rows_
  bool maximize_ = true;

  std::vector<VStatus> status_;       // size num_total_
  std::vector<std::int32_t> basis_;   // size num_rows_ (var per basis pos)
  std::vector<double> x_;             // size num_total_
  std::vector<double> binv_;          // dense num_rows_^2, row-major (dense path)
  BasisLu lu_;                        // sparse path
  bool basis_valid_ = false;
  /// A restored snapshot needs a fresh factorization before use.
  bool needs_refactor_ = false;
  int pivots_since_refactor_ = 0;
  /// Bumped whenever the basis is reset to slacks, so the dual repair
  /// can notice a mid-flight reset and bail out to phase 1.
  std::int64_t basis_epoch_ = 0;
  /// Snapshot of stats_.iterations at Solve() entry, so the iteration
  /// limit applies per solve rather than across warm restarts.
  std::int64_t iterations_at_solve_start_ = 0;

  Stats stats_;
};

}  // namespace sfp::lp
