#include "lp/model.h"

namespace sfp::lp {

VarId Model::AddVar(double lower, double upper, double objective, bool is_integer,
                    std::string name) {
  SFP_CHECK_MSG(lower <= upper, "variable with empty domain");
  Variable v;
  v.lower = lower;
  v.upper = upper;
  v.objective = objective;
  v.is_integer = is_integer;
  v.name = std::move(name);
  vars_.push_back(std::move(v));
  return static_cast<VarId>(vars_.size() - 1);
}

RowId Model::AddRow(std::vector<VarId> vars, std::vector<double> coeffs, Sense sense,
                    double rhs, std::string name) {
  SFP_CHECK_EQ(vars.size(), coeffs.size());
  for (VarId v : vars) {
    SFP_CHECK_GE(v, 0);
    SFP_CHECK_LT(v, num_vars());
  }
  Row r;
  r.vars = std::move(vars);
  r.coeffs = std::move(coeffs);
  r.sense = sense;
  r.rhs = rhs;
  r.name = std::move(name);
  rows_.push_back(std::move(r));
  return static_cast<RowId>(rows_.size() - 1);
}

void Model::SetVarBounds(VarId var, double lower, double upper) {
  SFP_CHECK_MSG(lower <= upper, "variable with empty domain");
  auto& v = vars_[static_cast<std::size_t>(var)];
  v.lower = lower;
  v.upper = upper;
}

void Model::ReplaceRows(std::vector<Row> rows) {
  for (const Row& row : rows) {
    SFP_CHECK_EQ(row.vars.size(), row.coeffs.size());
    for (VarId v : row.vars) {
      SFP_CHECK_GE(v, 0);
      SFP_CHECK_LT(v, num_vars());
    }
  }
  rows_ = std::move(rows);
}

void Model::SetBranchPriority(VarId var, int priority) {
  vars_[static_cast<std::size_t>(var)].branch_priority = priority;
}

std::size_t Model::num_nonzeros() const {
  std::size_t nnz = 0;
  for (const auto& r : rows_) nnz += r.vars.size();
  return nnz;
}

std::vector<VarId> Model::IntegerVars() const {
  std::vector<VarId> ids;
  for (VarId v = 0; v < num_vars(); ++v) {
    if (vars_[static_cast<std::size_t>(v)].is_integer) ids.push_back(v);
  }
  return ids;
}

const char* ToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
    case SolveStatus::kTimeLimit:
      return "time-limit";
    case SolveStatus::kFeasible:
      return "feasible";
  }
  return "unknown";
}

}  // namespace sfp::lp
