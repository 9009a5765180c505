// Linear/integer program model builder.
//
// `lp::Model` is the user-facing container: variables with bounds,
// objective coefficients and an integrality flag; rows with a sense and
// right-hand side. `Simplex` (simplex.h) solves the LP relaxation;
// `MipSolver` (mip.h) runs branch & bound over the integral variables.
//
// Conventions:
//  * the model stores a MAXIMIZATION objective if `maximize` is set;
//    the simplex internally minimizes and flips signs,
//  * infinite bounds are +/-kInfinity,
//  * row senses are <=, >=, ==.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/check.h"

namespace sfp::lp {

/// Positive infinity marker for bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Row sense of a linear constraint.
enum class Sense { kLe, kGe, kEq };

/// Index of a variable in a Model.
using VarId = std::int32_t;

/// Index of a row in a Model.
using RowId = std::int32_t;

/// One linear constraint: sum(coeff_i * var_i) <sense> rhs.
struct Row {
  std::vector<VarId> vars;
  std::vector<double> coeffs;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;
};

/// Variable metadata.
struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;
  /// Branching priority in branch & bound: higher priorities are
  /// branched first. SFP assigns physical-placement variables the
  /// highest priority, then chain indicators, then box placements.
  int branch_priority = 0;
  std::string name;
};

/// In-memory LP/MIP model.
class Model {
 public:
  /// Adds a variable and returns its id.
  VarId AddVar(double lower, double upper, double objective, bool is_integer,
               std::string name = {});

  /// Convenience: binary variable.
  VarId AddBinaryVar(double objective, std::string name = {}) {
    return AddVar(0.0, 1.0, objective, /*is_integer=*/true, std::move(name));
  }

  /// Adds a constraint row; `vars` and `coeffs` must be the same length.
  /// Repeated variables within one row are allowed and are summed.
  RowId AddRow(std::vector<VarId> vars, std::vector<double> coeffs, Sense sense,
               double rhs, std::string name = {});

  /// Sets the optimization direction (default: maximize).
  void SetMaximize(bool maximize) { maximize_ = maximize; }
  bool maximize() const { return maximize_; }

  /// Tightens a variable's bounds (used by branch & bound).
  void SetVarBounds(VarId var, double lower, double upper);

  /// Replaces the whole row set (used by presolve to drop redundant
  /// rows). Every referenced variable must exist.
  void ReplaceRows(std::vector<Row> rows);

  void SetBranchPriority(VarId var, int priority);

  std::int32_t num_vars() const { return static_cast<std::int32_t>(vars_.size()); }
  std::int32_t num_rows() const { return static_cast<std::int32_t>(rows_.size()); }
  const Variable& var(VarId id) const { return vars_[static_cast<std::size_t>(id)]; }
  const Row& row(RowId id) const { return rows_[static_cast<std::size_t>(id)]; }
  const std::vector<Variable>& vars() const { return vars_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Total number of structural nonzeros.
  std::size_t num_nonzeros() const;

  /// Returns the ids of all integer variables.
  std::vector<VarId> IntegerVars() const;

 private:
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
  bool maximize_ = true;
};

/// Result status of an LP or MIP solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  /// MIP only: stopped at the time limit with at least one incumbent.
  kFeasible,
};

/// Human-readable status name.
const char* ToString(SolveStatus status);

/// Solution of an LP or MIP solve.
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective in the model's direction (maximization value when the
  /// model maximizes).
  double objective = 0.0;
  /// Value per variable (size == model.num_vars()) when status is
  /// kOptimal/kFeasible/kIterationLimit.
  std::vector<double> values;

  bool feasible() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

}  // namespace sfp::lp
