// A textbook dense-tableau simplex: the independent oracle that
// lp_solver_differential_test checks lp::Simplex against.
//
// It shares no code with lp::Simplex, only the lp::Model it reads and
// the lp::Solution it returns. The box-bounded model is put in standard
// form:
//  * every variable is shifted to its lower bound, x = l + x', x' >= 0,
//    and its upper bound becomes a row x' <= u - l;
//  * every inequality row gets a slack (<=) or surplus (>=) column, and
//    a row with a negative right-hand side is negated;
//  * every row gets an artificial column, which is the starting basis.
// Phase 1 minimizes the sum of the artificials; a positive optimum
// means the model is infeasible. Basic artificials left at zero are
// pivoted out, and phase 2 minimizes the model's objective (negated
// when it maximizes) with the artificials barred from entering. Both
// phases use Bland's rule — the lowest-index column with a negative
// reduced cost enters, ratio-test ties go to the lowest-index basic
// variable — which cannot cycle.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "lp/model.h"

namespace sfp::lp {

class TableauOracle {
 public:
  /// Solves `model` cold. Every variable must have finite bounds.
  static Solution Solve(const Model& model) { return TableauOracle(model).Run(model); }

 private:
  static constexpr double kPivotTol = 1e-9;
  static constexpr double kCostTol = 1e-9;
  static constexpr double kTieTol = 1e-12;
  static constexpr std::int64_t kMaxPivots = 100000;

  explicit TableauOracle(const Model& model) {
    const int n = model.num_vars();
    struct StdRow {
      std::vector<double> a;  // over the shifted variables x'
      double rhs;
      Sense sense;
    };
    std::vector<StdRow> rows;
    for (const Row& row : model.rows()) {
      StdRow out{std::vector<double>(static_cast<std::size_t>(n), 0.0), row.rhs, row.sense};
      for (std::size_t t = 0; t < row.vars.size(); ++t) {
        const VarId v = row.vars[t];
        out.a[static_cast<std::size_t>(v)] += row.coeffs[t];
        out.rhs -= row.coeffs[t] * model.var(v).lower;
      }
      rows.push_back(std::move(out));
    }
    for (VarId v = 0; v < n; ++v) {
      const Variable& var = model.var(v);
      SFP_CHECK_MSG(std::isfinite(var.lower) && std::isfinite(var.upper),
                    "the tableau oracle takes box-bounded models only");
      StdRow out{std::vector<double>(static_cast<std::size_t>(n), 0.0), var.upper - var.lower,
                 Sense::kLe};
      out.a[static_cast<std::size_t>(v)] = 1.0;
      rows.push_back(std::move(out));
    }
    for (StdRow& row : rows) {
      if (row.rhs >= 0.0) continue;
      for (double& a : row.a) a = -a;
      row.rhs = -row.rhs;
      if (row.sense == Sense::kLe) {
        row.sense = Sense::kGe;
      } else if (row.sense == Sense::kGe) {
        row.sense = Sense::kLe;
      }
    }

    num_struct_ = n;
    int num_slack = 0;
    for (const StdRow& row : rows) num_slack += row.sense == Sense::kEq ? 0 : 1;
    const int m = static_cast<int>(rows.size());
    first_artificial_ = n + num_slack;
    num_cols_ = first_artificial_ + m;
    tableau_.assign(static_cast<std::size_t>(m),
                    std::vector<double>(static_cast<std::size_t>(num_cols_) + 1, 0.0));
    basis_.resize(static_cast<std::size_t>(m));
    int slack = n;
    for (int i = 0; i < m; ++i) {
      std::vector<double>& t = tableau_[static_cast<std::size_t>(i)];
      const StdRow& row = rows[static_cast<std::size_t>(i)];
      std::copy(row.a.begin(), row.a.end(), t.begin());
      if (row.sense == Sense::kLe) t[static_cast<std::size_t>(slack++)] = 1.0;
      if (row.sense == Sense::kGe) t[static_cast<std::size_t>(slack++)] = -1.0;
      t[static_cast<std::size_t>(first_artificial_ + i)] = 1.0;
      t[static_cast<std::size_t>(num_cols_)] = row.rhs;
      basis_[static_cast<std::size_t>(i)] = first_artificial_ + i;
    }
  }

  Solution Run(const Model& model) {
    Solution solution;
    // Phase 1: minimize the sum of the artificials.
    std::vector<double> cost(static_cast<std::size_t>(num_cols_), 0.0);
    for (int j = first_artificial_; j < num_cols_; ++j) cost[static_cast<std::size_t>(j)] = 1.0;
    SolveStatus status = Iterate(cost, /*allow_artificials=*/true);
    if (status == SolveStatus::kIterationLimit) {
      solution.status = status;
      return solution;
    }
    double infeasibility = 0.0;
    double scale = 1.0;
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      const double rhs = tableau_[i][static_cast<std::size_t>(num_cols_)];
      scale = std::max(scale, std::abs(rhs));
      if (basis_[i] >= first_artificial_) infeasibility += rhs;
    }
    if (infeasibility > 1e-7 * scale) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    // Drive the zero-valued artificials out of the basis; a row with no
    // other nonzero is redundant and keeps its artificial at zero.
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      if (basis_[i] < first_artificial_) continue;
      for (int j = 0; j < first_artificial_; ++j) {
        if (std::abs(tableau_[i][static_cast<std::size_t>(j)]) > kPivotTol) {
          Pivot(static_cast<int>(i), j);
          break;
        }
      }
    }

    // Phase 2: minimize the model's objective over the original columns.
    std::fill(cost.begin(), cost.end(), 0.0);
    const double sign = model.maximize() ? -1.0 : 1.0;
    for (int j = 0; j < num_struct_; ++j) {
      cost[static_cast<std::size_t>(j)] = sign * model.var(j).objective;
    }
    status = Iterate(cost, /*allow_artificials=*/false);
    solution.status = status;
    if (status != SolveStatus::kOptimal) return solution;

    solution.values.assign(static_cast<std::size_t>(num_struct_), 0.0);
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      if (basis_[i] < num_struct_) {
        solution.values[static_cast<std::size_t>(basis_[i])] =
            tableau_[i][static_cast<std::size_t>(num_cols_)];
      }
    }
    for (int j = 0; j < num_struct_; ++j) {
      solution.values[static_cast<std::size_t>(j)] += model.var(j).lower;
      solution.objective += model.var(j).objective * solution.values[static_cast<std::size_t>(j)];
    }
    return solution;
  }

  // Bland's-rule primal simplex on the tableau for `cost`, starting from
  // the current (feasible) basis.
  SolveStatus Iterate(const std::vector<double>& cost, bool allow_artificials) {
    const int limit = allow_artificials ? num_cols_ : first_artificial_;
    for (std::int64_t pivots = 0; pivots < kMaxPivots; ++pivots) {
      int entering = -1;
      for (int j = 0; j < limit && entering < 0; ++j) {
        double reduced = cost[static_cast<std::size_t>(j)];
        for (std::size_t i = 0; i < basis_.size(); ++i) {
          reduced -= cost[static_cast<std::size_t>(basis_[i])] *
                     tableau_[i][static_cast<std::size_t>(j)];
        }
        if (reduced < -kCostTol) entering = j;
      }
      if (entering < 0) return SolveStatus::kOptimal;

      int leaving = -1;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < basis_.size(); ++i) {
        const double a = tableau_[i][static_cast<std::size_t>(entering)];
        if (a <= kPivotTol) continue;
        const double ratio = tableau_[i][static_cast<std::size_t>(num_cols_)] / a;
        if (leaving < 0 || ratio < best_ratio - kTieTol ||
            (ratio <= best_ratio + kTieTol &&
             basis_[i] < basis_[static_cast<std::size_t>(leaving)])) {
          leaving = static_cast<int>(i);
          best_ratio = ratio;
        }
      }
      if (leaving < 0) return SolveStatus::kUnbounded;
      Pivot(leaving, entering);
    }
    return SolveStatus::kIterationLimit;
  }

  void Pivot(int r, int c) {
    std::vector<double>& pivot_row = tableau_[static_cast<std::size_t>(r)];
    const double inv = 1.0 / pivot_row[static_cast<std::size_t>(c)];
    for (double& value : pivot_row) value *= inv;
    for (std::size_t i = 0; i < tableau_.size(); ++i) {
      if (static_cast<int>(i) == r) continue;
      const double factor = tableau_[i][static_cast<std::size_t>(c)];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < pivot_row.size(); ++j) {
        tableau_[i][j] -= factor * pivot_row[j];
      }
    }
    basis_[static_cast<std::size_t>(r)] = c;
  }

  int num_struct_ = 0;
  int first_artificial_ = 0;
  int num_cols_ = 0;
  /// One row per standard-form constraint; the last entry is the
  /// right-hand side, i.e. the value of the row's basic variable.
  std::vector<std::vector<double>> tableau_;
  std::vector<int> basis_;
};

}  // namespace sfp::lp
