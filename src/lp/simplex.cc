#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace sfp::lp {
namespace {

constexpr double kInf = kInfinity;

bool IsFinite(double v) { return std::isfinite(v); }

}  // namespace

Simplex::Simplex(const Model& model, SimplexOptions options)
    : options_(options),
      num_rows_(model.num_rows()),
      num_struct_(model.num_vars()),
      num_total_(model.num_rows() + model.num_vars()),
      maximize_(model.maximize()) {
  BuildColumns(model);

  lower_.resize(num_total_);
  upper_.resize(num_total_);
  cost_.assign(num_total_, 0.0);
  rhs_.resize(num_rows_);

  for (VarId v = 0; v < num_struct_; ++v) {
    const Variable& var = model.var(v);
    lower_[v] = var.lower;
    upper_[v] = var.upper;
    cost_[v] = maximize_ ? -var.objective : var.objective;
  }
  for (RowId r = 0; r < num_rows_; ++r) {
    const Row& row = model.row(r);
    rhs_[r] = row.rhs;
    const std::int32_t slack = num_struct_ + r;
    switch (row.sense) {
      case Sense::kLe:
        lower_[slack] = 0.0;
        upper_[slack] = kInf;
        break;
      case Sense::kGe:
        lower_[slack] = -kInf;
        upper_[slack] = 0.0;
        break;
      case Sense::kEq:
        lower_[slack] = 0.0;
        upper_[slack] = 0.0;
        break;
    }
  }

  status_.assign(num_total_, VStatus::kAtLower);
  basis_.assign(num_rows_, 0);
  x_.assign(num_total_, 0.0);
}

void Simplex::BuildColumns(const Model& model) {
  columns_.resize(static_cast<std::size_t>(num_struct_));
  // Gather per-column entries; duplicate (row, var) pairs are summed.
  for (RowId r = 0; r < num_rows_; ++r) {
    const Row& row = model.row(r);
    for (std::size_t t = 0; t < row.vars.size(); ++t) {
      if (row.coeffs[t] == 0.0) continue;
      Column& col = columns_[static_cast<std::size_t>(row.vars[t])];
      if (!col.rows.empty() && col.rows.back() == r) {
        col.vals.back() += row.coeffs[t];
      } else {
        col.rows.push_back(r);
        col.vals.push_back(row.coeffs[t]);
      }
    }
  }
}

void Simplex::SetVarBounds(VarId var, double lower, double upper) {
  SFP_CHECK_GE(var, 0);
  SFP_CHECK_LT(var, num_struct_);
  SFP_CHECK_LE(lower, upper);
  lower_[var] = lower;
  upper_[var] = upper;
}

void Simplex::ResetBasis() { basis_valid_ = false; }

Simplex::BasisState Simplex::SaveBasis() const {
  BasisState state;
  state.basis = basis_;
  state.status.resize(status_.size());
  for (std::size_t v = 0; v < status_.size(); ++v) {
    state.status[v] = static_cast<std::uint8_t>(status_[v]);
  }
  state.num_struct = num_struct_;
  state.num_rows = num_rows_;
  return state;
}

void Simplex::RestoreBasis(const BasisState& state) {
  // Unstamped snapshots (num_struct < 0) are taken to have this
  // instance's shape; a snapshot of any other shape cold-starts.
  const bool shape_ok =
      (state.num_struct < 0 || state.num_struct == num_struct_) &&
      (state.num_rows < 0 || state.num_rows == num_rows_) &&
      state.basis.size() == static_cast<std::size_t>(num_rows_) &&
      state.status.size() == static_cast<std::size_t>(num_total_);
  if (!shape_ok) {
    basis_valid_ = false;
    return;
  }
  for (std::int32_t v = 0; v < num_total_; ++v) {
    status_[static_cast<std::size_t>(v)] =
        static_cast<VStatus>(state.status[static_cast<std::size_t>(v)]);
  }
  basis_ = state.basis;
  basis_valid_ = true;
  needs_refactor_ = true;
}

void Simplex::ResetBasisToSlacks() {
  ++basis_epoch_;
  for (std::int32_t r = 0; r < num_rows_; ++r) {
    basis_[r] = num_struct_ + r;
    status_[num_struct_ + r] = VStatus::kBasic;
  }
  for (std::int32_t v = 0; v < num_struct_; ++v) {
    if (IsFinite(lower_[v])) {
      status_[v] = VStatus::kAtLower;
    } else if (IsFinite(upper_[v])) {
      status_[v] = VStatus::kAtUpper;
    } else {
      status_[v] = VStatus::kFreeNb;
    }
  }
  if (options_.use_dense_inverse) {
    binv_.assign(static_cast<std::size_t>(num_rows_) * num_rows_, 0.0);
    for (std::int32_t r = 0; r < num_rows_; ++r) {
      binv_[static_cast<std::size_t>(r) * num_rows_ + r] = 1.0;
    }
  } else {
    RefactorizeSparse();  // the slack basis is the identity: cannot fail
  }
  pivots_since_refactor_ = 0;
  basis_valid_ = true;
  needs_refactor_ = false;
}

void Simplex::SnapNonbasicToBounds() {
  const auto snap = [&](std::int32_t v) {
    switch (status_[v]) {
      case VStatus::kBasic:
        break;
      case VStatus::kAtLower:
        if (IsFinite(lower_[v])) {
          x_[v] = lower_[v];
        } else if (IsFinite(upper_[v])) {
          status_[v] = VStatus::kAtUpper;
          x_[v] = upper_[v];
        } else {
          status_[v] = VStatus::kFreeNb;
          x_[v] = 0.0;
        }
        break;
      case VStatus::kAtUpper:
        if (IsFinite(upper_[v])) {
          x_[v] = upper_[v];
        } else if (IsFinite(lower_[v])) {
          status_[v] = VStatus::kAtLower;
          x_[v] = lower_[v];
        } else {
          status_[v] = VStatus::kFreeNb;
          x_[v] = 0.0;
        }
        break;
      case VStatus::kFreeNb:
        if (IsFinite(lower_[v]) || IsFinite(upper_[v])) {
          // Bounds were tightened since the variable went free.
          if (IsFinite(lower_[v])) {
            status_[v] = VStatus::kAtLower;
            x_[v] = lower_[v];
          } else {
            status_[v] = VStatus::kAtUpper;
            x_[v] = upper_[v];
          }
        } else {
          x_[v] = 0.0;
        }
        break;
    }
  };
  for (std::int32_t v = 0; v < num_total_; ++v) snap(v);
}

void Simplex::ComputeBasicValues() {
  // residual = b - sum over nonbasic columns of A_j * x_j.
  std::vector<double> residual = rhs_;
  for (std::int32_t v = 0; v < num_struct_; ++v) {
    if (status_[v] == VStatus::kBasic || x_[v] == 0.0) continue;
    const Column& col = columns_[static_cast<std::size_t>(v)];
    for (std::size_t t = 0; t < col.rows.size(); ++t) {
      residual[static_cast<std::size_t>(col.rows[t])] -= col.vals[t] * x_[v];
    }
  }
  for (std::int32_t r = 0; r < num_rows_; ++r) {
    const std::int32_t slack = num_struct_ + r;
    if (status_[slack] != VStatus::kBasic && x_[slack] != 0.0) {
      residual[static_cast<std::size_t>(r)] -= x_[slack];
    }
  }
  if (options_.use_dense_inverse) {
    // x_B = Binv * residual.
    for (std::int32_t p = 0; p < num_rows_; ++p) {
      const double* row = &binv_[static_cast<std::size_t>(p) * num_rows_];
      double acc = 0.0;
      for (std::int32_t r = 0; r < num_rows_; ++r) {
        acc += row[r] * residual[static_cast<std::size_t>(r)];
      }
      x_[static_cast<std::size_t>(basis_[p])] = acc;
    }
  } else {
    lu_.Ftran(residual);
    for (std::int32_t p = 0; p < num_rows_; ++p) {
      x_[static_cast<std::size_t>(basis_[p])] = residual[static_cast<std::size_t>(p)];
    }
  }
}

bool Simplex::Refactorize() {
  ++stats_.refactorizations;
  const bool ok =
      options_.use_dense_inverse ? RefactorizeDense() : RefactorizeSparse();
  if (ok) pivots_since_refactor_ = 0;
  return ok;
}

bool Simplex::RefactorizeSparse() {
  std::vector<SparseColumn> cols(static_cast<std::size_t>(num_rows_));
  for (std::int32_t p = 0; p < num_rows_; ++p) {
    const std::int32_t var = basis_[p];
    SparseColumn& out = cols[static_cast<std::size_t>(p)];
    if (var < num_struct_) {
      const Column& col = columns_[static_cast<std::size_t>(var)];
      out.rows = col.rows;
      out.vals = col.vals;
    } else {
      out.rows = {var - num_struct_};
      out.vals = {1.0};
    }
  }
  return lu_.Factorize(cols);
}

bool Simplex::RefactorizeDense() {
  const std::size_t m = static_cast<std::size_t>(num_rows_);
  std::vector<double> bmat(m * m, 0.0);
  for (std::size_t p = 0; p < m; ++p) {
    const std::int32_t var = basis_[p];
    if (var < num_struct_) {
      const Column& col = columns_[static_cast<std::size_t>(var)];
      for (std::size_t t = 0; t < col.rows.size(); ++t) {
        bmat[static_cast<std::size_t>(col.rows[t]) * m + p] = col.vals[t];
      }
    } else {
      bmat[static_cast<std::size_t>(var - num_struct_) * m + p] = 1.0;
    }
  }
  std::vector<double> inv(m * m, 0.0);
  for (std::size_t r = 0; r < m; ++r) inv[r * m + r] = 1.0;

  // Gauss-Jordan with partial pivoting, applied to [bmat | inv].
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t pivot_row = k;
    double best = std::abs(bmat[k * m + k]);
    for (std::size_t r = k + 1; r < m; ++r) {
      const double cand = std::abs(bmat[r * m + k]);
      if (cand > best) {
        best = cand;
        pivot_row = r;
      }
    }
    if (best < 1e-11) return false;  // singular basis
    if (pivot_row != k) {
      for (std::size_t c = 0; c < m; ++c) {
        std::swap(bmat[pivot_row * m + c], bmat[k * m + c]);
        std::swap(inv[pivot_row * m + c], inv[k * m + c]);
      }
    }
    const double scale = 1.0 / bmat[k * m + k];
    for (std::size_t c = 0; c < m; ++c) {
      bmat[k * m + c] *= scale;
      inv[k * m + c] *= scale;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (r == k) continue;
      const double factor = bmat[r * m + k];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < m; ++c) {
        bmat[r * m + c] -= factor * bmat[k * m + c];
        inv[r * m + c] -= factor * inv[k * m + c];
      }
    }
  }
  binv_ = std::move(inv);
  return true;
}

void Simplex::Ftran(std::int32_t j, std::vector<double>& w) {
  const std::size_t m = static_cast<std::size_t>(num_rows_);
  w.assign(m, 0.0);
  if (options_.use_dense_inverse) {
    if (j < num_struct_) {
      const Column& col = columns_[static_cast<std::size_t>(j)];
      for (std::size_t p = 0; p < m; ++p) {
        const double* row = &binv_[p * m];
        double acc = 0.0;
        for (std::size_t t = 0; t < col.rows.size(); ++t) {
          acc += row[static_cast<std::size_t>(col.rows[t])] * col.vals[t];
        }
        w[p] = acc;
      }
    } else {
      const std::size_t r = static_cast<std::size_t>(j - num_struct_);
      for (std::size_t p = 0; p < m; ++p) w[p] = binv_[p * m + r];
    }
  } else {
    if (j < num_struct_) {
      const Column& col = columns_[static_cast<std::size_t>(j)];
      for (std::size_t t = 0; t < col.rows.size(); ++t) {
        w[static_cast<std::size_t>(col.rows[t])] = col.vals[t];
      }
    } else {
      w[static_cast<std::size_t>(j - num_struct_)] = 1.0;
    }
    lu_.Ftran(w);
  }
  for (std::size_t p = 0; p < m; ++p) {
    if (w[p] != 0.0) ++stats_.ftran_nnz;
  }
}

void Simplex::ComputeDuals(const std::vector<double>& cost, std::vector<double>& y) const {
  const std::size_t m = static_cast<std::size_t>(num_rows_);
  if (options_.use_dense_inverse) {
    y.assign(m, 0.0);
    for (std::size_t p = 0; p < m; ++p) {
      const double cb = cost[static_cast<std::size_t>(basis_[p])];
      if (cb == 0.0) continue;
      const double* row = &binv_[p * m];
      for (std::size_t r = 0; r < m; ++r) y[r] += cb * row[r];
    }
  } else {
    y.resize(m);
    for (std::size_t p = 0; p < m; ++p) {
      y[p] = cost[static_cast<std::size_t>(basis_[p])];
    }
    lu_.Btran(y);
  }
}

double Simplex::ReducedCost(std::int32_t j, const std::vector<double>& cost,
                            const std::vector<double>& y) const {
  double d = cost[static_cast<std::size_t>(j)];
  if (j < num_struct_) {
    const Column& col = columns_[static_cast<std::size_t>(j)];
    for (std::size_t t = 0; t < col.rows.size(); ++t) {
      d -= y[static_cast<std::size_t>(col.rows[t])] * col.vals[t];
    }
  } else {
    d -= y[static_cast<std::size_t>(j - num_struct_)];
  }
  return d;
}

Simplex::Entering Simplex::PriceEntering(const std::vector<double>& cost,
                                         const std::vector<double>& y,
                                         bool bland) const {
  Entering best;
  double best_score = options_.opt_tol;
  // Returns true when the scan should stop (Bland: first eligible).
  const auto consider = [&](std::int32_t j) -> bool {
    const VStatus st = status_[j];
    if (st == VStatus::kBasic) return false;
    if (upper_[j] - lower_[j] <= 0.0) return false;  // fixed variable
    const double d = ReducedCost(j, cost, y);
    int direction = 0;
    if (st == VStatus::kAtLower && d < -options_.opt_tol) {
      direction = +1;
    } else if (st == VStatus::kAtUpper && d > options_.opt_tol) {
      direction = -1;
    } else if (st == VStatus::kFreeNb && std::abs(d) > options_.opt_tol) {
      direction = d < 0.0 ? +1 : -1;
    } else {
      return false;
    }
    if (bland) {  // first eligible index
      best.var = j;
      best.direction = direction;
      best.reduced_cost = d;
      return true;
    }
    const double score = std::abs(d);
    if (score > best_score) {
      best_score = score;
      best.var = j;
      best.direction = direction;
      best.reduced_cost = d;
    }
    return false;
  };
  for (std::int32_t j = 0; j < num_total_; ++j) {
    if (consider(j)) return best;
  }
  return best;
}

Simplex::RatioResult Simplex::RatioTest(const Entering& e, const std::vector<double>& w,
                                        bool phase1, bool bland) const {
  const double tol = options_.feas_tol;
  RatioResult result;
  double best_step = kInf;
  std::int32_t best_pos = -1;
  bool best_at_upper = false;
  double best_pivot_mag = 0.0;

  for (std::int32_t p = 0; p < num_rows_; ++p) {
    const double wp = w[static_cast<std::size_t>(p)];
    if (std::abs(wp) < 1e-9) continue;
    const std::int32_t var = basis_[p];
    const double v = x_[static_cast<std::size_t>(var)];
    const double lo = lower_[static_cast<std::size_t>(var)];
    const double up = upper_[static_cast<std::size_t>(var)];
    const double rate = -e.direction * wp;  // change of this basic per unit step

    double step = kInf;
    bool at_upper = false;
    if (phase1 && v < lo - tol) {
      // Infeasible below: blocks only when climbing back to its lower bound.
      if (rate > 0.0) {
        step = (lo - v) / rate;
        at_upper = false;
      }
    } else if (phase1 && v > up + tol) {
      // Infeasible above: blocks only when descending to its upper bound.
      if (rate < 0.0) {
        step = (v - up) / (-rate);
        at_upper = true;
      }
    } else {
      if (rate > 0.0 && IsFinite(up)) {
        step = (up - v) / rate;
        at_upper = true;
      } else if (rate < 0.0 && IsFinite(lo)) {
        step = (v - lo) / (-rate);
        at_upper = false;
      }
    }
    if (step == kInf) continue;
    if (step < 0.0) step = 0.0;  // numerical noise on degenerate bases

    bool take = false;
    if (step < best_step - 1e-10) {
      take = true;
    } else if (step < best_step + 1e-10) {
      if (bland) {
        take = best_pos < 0 || var < basis_[best_pos];
      } else {
        take = std::abs(wp) > best_pivot_mag;  // stability tie-break
      }
    }
    if (take) {
      best_step = step;
      best_pos = p;
      best_at_upper = at_upper;
      best_pivot_mag = std::abs(wp);
    }
  }

  // The entering variable itself can flip to its opposite bound.
  const double span = upper_[static_cast<std::size_t>(e.var)] -
                      lower_[static_cast<std::size_t>(e.var)];
  const bool flip_possible = status_[static_cast<std::size_t>(e.var)] != VStatus::kFreeNb &&
                             IsFinite(span);
  if (flip_possible && span < best_step) {
    result.step = span;
    result.leaving_pos = -1;
    return result;
  }
  if (best_pos < 0) {
    result.unbounded = true;
    return result;
  }
  result.step = best_step;
  result.leaving_pos = best_pos;
  result.leaving_at_upper = best_at_upper;
  return result;
}

void Simplex::ApplyStep(const Entering& e, const std::vector<double>& w,
                        const RatioResult& r) {
  const std::size_t m = static_cast<std::size_t>(num_rows_);
  const double step = r.step;
  // Move all basic variables.
  if (step != 0.0) {
    for (std::size_t p = 0; p < m; ++p) {
      if (w[p] == 0.0) continue;
      x_[static_cast<std::size_t>(basis_[p])] -= e.direction * w[p] * step;
    }
  }
  const std::size_t j = static_cast<std::size_t>(e.var);
  x_[j] += e.direction * step;

  if (r.leaving_pos < 0) {
    // Bound flip.
    status_[j] = e.direction > 0 ? VStatus::kAtUpper : VStatus::kAtLower;
    x_[j] = e.direction > 0 ? upper_[j] : lower_[j];
    return;
  }

  const std::size_t p = static_cast<std::size_t>(r.leaving_pos);
  const std::int32_t leaving = basis_[p];
  status_[static_cast<std::size_t>(leaving)] =
      r.leaving_at_upper ? VStatus::kAtUpper : VStatus::kAtLower;
  x_[static_cast<std::size_t>(leaving)] = r.leaving_at_upper
                                              ? upper_[static_cast<std::size_t>(leaving)]
                                              : lower_[static_cast<std::size_t>(leaving)];
  basis_[p] = e.var;
  status_[j] = VStatus::kBasic;

  bool update_ok = true;
  if (options_.use_dense_inverse) {
    // Product-form update of the dense inverse: row p is scaled by
    // 1/w_p and eliminated from every other row.
    const double pivot = w[p];
    double* prow = &binv_[p * m];
    const double inv_pivot = 1.0 / pivot;
    for (std::size_t c = 0; c < m; ++c) prow[c] *= inv_pivot;
    for (std::size_t q = 0; q < m; ++q) {
      if (q == p) continue;
      const double factor = w[q];
      if (factor == 0.0) continue;
      double* qrow = &binv_[q * m];
      for (std::size_t c = 0; c < m; ++c) qrow[c] -= factor * prow[c];
    }
  } else {
    update_ok = lu_.Update(r.leaving_pos, w);
  }

  if (!update_ok || ++pivots_since_refactor_ >= options_.refactor_interval) {
    if (!Refactorize()) {
      SFP_LOG_WARN << "singular basis during refactorization; resetting";
      ResetBasisToSlacks();
      SnapNonbasicToBounds();
    }
    ComputeBasicValues();
  }
}

double Simplex::TotalInfeasibility() const {
  double total = 0.0;
  for (std::int32_t p = 0; p < num_rows_; ++p) {
    const std::size_t var = static_cast<std::size_t>(basis_[p]);
    const double v = x_[var];
    if (v < lower_[var]) total += lower_[var] - v;
    if (v > upper_[var]) total += v - upper_[var];
  }
  return total;
}

void Simplex::BuildPhase1Cost(std::vector<double>& cost) const {
  cost.assign(static_cast<std::size_t>(num_total_), 0.0);
  const double tol = options_.feas_tol;
  for (std::int32_t p = 0; p < num_rows_; ++p) {
    const std::size_t var = static_cast<std::size_t>(basis_[p]);
    const double v = x_[var];
    if (v < lower_[var] - tol) {
      cost[var] = -1.0;  // wants to increase
    } else if (v > upper_[var] + tol) {
      cost[var] = +1.0;  // wants to decrease
    }
  }
}

double Simplex::CurrentObjective() const {
  double metric = 0.0;
  for (std::int32_t v = 0; v < num_total_; ++v) {
    metric += cost_[static_cast<std::size_t>(v)] * x_[static_cast<std::size_t>(v)];
  }
  return metric;
}

SolveStatus Simplex::Iterate(const std::vector<double>& cost, bool phase1) {
  std::vector<double> working_cost;
  std::vector<double> y;
  std::vector<double> w;
  int stall = 0;
  bool bland = false;
  double last_progress_metric = phase1 ? TotalInfeasibility() : kInf;

  for (;;) {
    if (stats_.iterations - iterations_at_solve_start_ >= options_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }

    const std::vector<double>* active_cost = &cost;
    if (phase1) {
      if (TotalInfeasibility() <= options_.feas_tol * (num_rows_ + 1)) {
        return SolveStatus::kOptimal;
      }
      BuildPhase1Cost(working_cost);
      active_cost = &working_cost;
    }

    ComputeDuals(*active_cost, y);
    const Entering e = PriceEntering(*active_cost, y, bland);
    if (e.var < 0) {
      if (phase1) {
        return TotalInfeasibility() <= options_.feas_tol * (num_rows_ + 1)
                   ? SolveStatus::kOptimal
                   : SolveStatus::kInfeasible;
      }
      return SolveStatus::kOptimal;
    }

    Ftran(e.var, w);
    const RatioResult r = RatioTest(e, w, phase1, bland);
    if (r.unbounded) {
      // Phase 1's objective is bounded below by zero, so an unbounded
      // ray here means numerical trouble; report infeasible.
      return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
    }
    ApplyStep(e, w, r);
    ++stats_.iterations;
    if (phase1) ++stats_.phase1_iterations;

    // Anti-cycling: switch to Bland's rule during long degenerate runs.
    double metric;
    if (phase1) {
      metric = TotalInfeasibility();
    } else {
      metric = CurrentObjective();
    }
    if (metric < last_progress_metric - 1e-10) {
      last_progress_metric = metric;
      stall = 0;
      bland = false;
    } else if (++stall > options_.bland_trigger) {
      bland = true;
    }
  }
}

Simplex::DualOutcome Simplex::TryDualWarmStart() {
  const std::size_t m = static_cast<std::size_t>(num_rows_);
  const double tol = options_.feas_tol;
  std::vector<double> y;
  ComputeDuals(cost_, y);

  // Dual-feasibility repair: a nonbasic variable whose reduced cost
  // points away from its bound flips to the opposite finite bound
  // (typically the fresh candidate column with an attractive cost).
  // A flip with no finite opposite bound, or a free variable with a
  // nonzero reduced cost, cannot be repaired without primal pivots —
  // degrade to phase 1. The scan is two-pass on purpose: flips are
  // collected first and applied only once the whole set proves
  // repairable, so a fallback leaves x_/status_ exactly as the caller
  // left them (a half-applied flip set breaks Ax = b for phase 1).
  bool repairable = true;
  std::vector<std::int32_t> flips;
  const auto repair = [&](std::int32_t j) {
    if (!repairable) return;
    const std::size_t sj = static_cast<std::size_t>(j);
    if (status_[sj] == VStatus::kBasic) return;
    if (upper_[sj] - lower_[sj] <= 0.0) return;  // fixed: vacuously dual ok
    const double d = ReducedCost(j, cost_, y);
    if (status_[sj] == VStatus::kAtLower && d < -options_.opt_tol) {
      if (!IsFinite(upper_[sj])) {
        repairable = false;
        return;
      }
      flips.push_back(j);
    } else if (status_[sj] == VStatus::kAtUpper && d > options_.opt_tol) {
      if (!IsFinite(lower_[sj])) {
        repairable = false;
        return;
      }
      flips.push_back(j);
    } else if (status_[sj] == VStatus::kFreeNb && std::abs(d) > options_.opt_tol) {
      repairable = false;
    }
  };
  for (std::int32_t j = 0; j < num_total_ && repairable; ++j) repair(j);
  if (!repairable) return DualOutcome::kFallback;
  for (std::int32_t j : flips) {
    const std::size_t sj = static_cast<std::size_t>(j);
    if (status_[sj] == VStatus::kAtLower) {
      status_[sj] = VStatus::kAtUpper;
      x_[sj] = upper_[sj];
    } else {
      status_[sj] = VStatus::kAtLower;
      x_[sj] = lower_[sj];
    }
  }
  if (!flips.empty()) ComputeBasicValues();

  std::int64_t budget = options_.max_dual_iterations > 0
                            ? options_.max_dual_iterations
                            : std::max<std::int64_t>(200, 4 * num_rows_);
  const std::int64_t epoch = basis_epoch_;
  std::vector<double> rho;
  std::vector<double> w;

  for (;;) {
    // A singular refactorization inside ApplyStep resets the basis to
    // slacks mid-flight; the dual state is then meaningless.
    if (basis_epoch_ != epoch) return DualOutcome::kFallback;

    // Leaving choice: the most primal-infeasible basic variable.
    std::int32_t p = -1;
    double delta = 0.0;  // x - violated bound (sign = side of violation)
    bool at_upper = false;
    double worst = tol;
    for (std::int32_t q = 0; q < num_rows_; ++q) {
      const std::size_t var = static_cast<std::size_t>(basis_[q]);
      const double v = x_[var];
      if (v < lower_[var] - worst) {
        worst = lower_[var] - v;
        p = q;
        delta = v - lower_[var];
        at_upper = false;
      } else if (v > upper_[var] + worst) {
        worst = v - upper_[var];
        p = q;
        delta = v - upper_[var];
        at_upper = true;
      }
    }
    if (p < 0) return DualOutcome::kPrimalFeasible;
    if (budget-- <= 0) return DualOutcome::kFallback;
    if (stats_.iterations - iterations_at_solve_start_ >= options_.max_iterations) {
      return DualOutcome::kFallback;
    }

    // rho = row p of Binv; alpha_j = rho . A_j is the pivot-row entry.
    if (options_.use_dense_inverse) {
      const double* row = &binv_[static_cast<std::size_t>(p) * m];
      rho.assign(row, row + m);
    } else {
      rho.assign(m, 0.0);
      rho[static_cast<std::size_t>(p)] = 1.0;
      lu_.Btran(rho);
    }
    ComputeDuals(cost_, y);

    // Entering choice: smallest dual ratio |d_j| / |alpha_j| among the
    // nonbasic columns whose admissible move drives x_B[p] toward its
    // violated bound, i.e. sign(direction * alpha_j) == sign(delta).
    // Ties break toward the larger |alpha| for numerical stability.
    std::int32_t best_j = -1;
    int best_dir = 0;
    double best_theta = kInf;
    double best_alpha_mag = 0.0;
    double best_d = 0.0;
    const auto consider = [&](std::int32_t j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      if (status_[sj] == VStatus::kBasic) return;
      if (upper_[sj] - lower_[sj] <= 0.0) return;  // fixed
      double alpha;
      if (j < num_struct_) {
        const Column& col = columns_[sj];
        alpha = 0.0;
        for (std::size_t t = 0; t < col.rows.size(); ++t) {
          alpha += rho[static_cast<std::size_t>(col.rows[t])] * col.vals[t];
        }
      } else {
        alpha = rho[static_cast<std::size_t>(j - num_struct_)];
      }
      if (std::abs(alpha) < 1e-9) return;
      int dir;
      if (status_[sj] == VStatus::kAtLower) {
        dir = +1;
      } else if (status_[sj] == VStatus::kAtUpper) {
        dir = -1;
      } else {  // free: pick whichever direction helps
        dir = (delta * alpha > 0.0) ? +1 : -1;
      }
      if ((dir * alpha > 0.0) != (delta > 0.0)) return;  // wrong direction
      const double d = ReducedCost(j, cost_, y);
      const double theta = std::abs(d) / std::abs(alpha);
      if (theta < best_theta - 1e-12 ||
          (theta < best_theta + 1e-12 && std::abs(alpha) > best_alpha_mag)) {
        best_theta = theta;
        best_j = j;
        best_dir = dir;
        best_alpha_mag = std::abs(alpha);
        best_d = d;
      }
    };
    for (std::int32_t j = 0; j < num_total_; ++j) consider(j);
    if (best_j < 0) {
      // No column can move row p back inside its bounds: the row is a
      // primal-infeasibility certificate. The caller confirms via
      // phase 1 rather than trusting the warm path's verdict.
      return DualOutcome::kInfeasible;
    }

    Entering e;
    e.var = best_j;
    e.direction = best_dir;
    e.reduced_cost = best_d;
    Ftran(best_j, w);
    const double alpha_p = w[static_cast<std::size_t>(p)];
    if (std::abs(alpha_p) < 1e-9 ||
        ((best_dir * alpha_p > 0.0) != (delta > 0.0))) {
      // The fresh Ftran disagrees with the Btran row: numerics are
      // drifting, let phase 1 take over.
      return DualOutcome::kFallback;
    }
    const double step = delta / (best_dir * alpha_p);  // > 0 by the sign rules

    RatioResult r;
    const double span = upper_[static_cast<std::size_t>(best_j)] -
                        lower_[static_cast<std::size_t>(best_j)];
    if (status_[static_cast<std::size_t>(best_j)] != VStatus::kFreeNb &&
        IsFinite(span) && span < step) {
      // The entering variable hits its opposite bound first: bound
      // flip, then re-examine the (reduced) violation of row p.
      r.step = span;
      r.leaving_pos = -1;
    } else {
      r.step = step;
      r.leaving_pos = p;
      r.leaving_at_upper = at_upper;
    }
    ApplyStep(e, w, r);
    ++stats_.iterations;
    ++stats_.dual_iterations;
  }
}

Solution Simplex::Solve() {
  Solution solution;
  iterations_at_solve_start_ = stats_.iterations;
  if (num_rows_ == 0 && num_struct_ == 0) {
    solution.status = SolveStatus::kOptimal;
    return solution;
  }
  bool warm = basis_valid_;
  if (!basis_valid_) {
    ResetBasisToSlacks();
  } else if (needs_refactor_) {
    // A restored snapshot: factorize it; a singular one (stale
    // numerics after bound changes) falls back to the slack basis.
    if (Refactorize()) {
      needs_refactor_ = false;
    } else {
      ResetBasisToSlacks();
      warm = false;
    }
  }
  SnapNonbasicToBounds();
  ComputeBasicValues();

  bool primal_feasible = false;
  if (warm && options_.warm_dual) {
    ++stats_.warm_attempts;
    if (TryDualWarmStart() == DualOutcome::kPrimalFeasible) {
      ++stats_.warm_successes;
      primal_feasible = true;
    }
    // kInfeasible and kFallback both degrade to composite phase 1 from
    // wherever the dual pivots left the basis — the dual path is an
    // accelerator, never the arbiter of feasibility.
  }

  SolveStatus status =
      primal_feasible ? SolveStatus::kOptimal : Iterate(cost_, /*phase1=*/true);
  if (status == SolveStatus::kOptimal) {
    status = Iterate(cost_, /*phase1=*/false);
  }

  solution.status = status;
  if (status == SolveStatus::kOptimal || status == SolveStatus::kIterationLimit) {
    solution.values.assign(x_.begin(), x_.begin() + num_struct_);
    double obj = 0.0;
    for (std::int32_t v = 0; v < num_struct_; ++v) {
      obj += cost_[static_cast<std::size_t>(v)] * x_[static_cast<std::size_t>(v)];
    }
    solution.objective = maximize_ ? -obj : obj;
  }
  return solution;
}

}  // namespace sfp::lp
