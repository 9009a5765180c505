#include "lp/mip.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/logging.h"
#include "common/worker_pool.h"

namespace sfp::lp {
namespace {

/// Observations per direction before a variable's own pseudocost is
/// trusted over the global average.
constexpr std::int64_t kPseudocostReliability = 1;

}  // namespace

MipSolver::MipSolver(const Model& model, MipOptions options)
    : model_(model),
      options_(options),
      simplex_(model, options.simplex),
      int_vars_(model.IntegerVars()),
      sense_(model.maximize() ? 1.0 : -1.0) {}

void MipSolver::ApplyNodeBounds(Simplex& simplex, const NodeChain* chain) const {
  // Restore root bounds for all integer variables, then overlay the
  // node's chain of branching decisions (walked root-ward; the last
  // write per variable must win, so collect then apply in order).
  for (VarId v : int_vars_) {
    const Variable& var = model_.var(v);
    simplex.SetVarBounds(v, var.lower, var.upper);
  }
  std::vector<const BoundChange*> path;
  for (const NodeChain* c = chain; c != nullptr; c = c->parent.get()) {
    path.push_back(&c->change);
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    simplex.SetVarBounds((*it)->var, (*it)->lower, (*it)->upper);
  }
}

VarId MipSolver::PickBranchVar(const std::vector<double>& values) {
  double global_avg[2] = {0.0, 0.0};
  std::int64_t total_obs = 0;
  {
    std::lock_guard<std::mutex> lock(pseudo_mutex_);
    total_obs = pseudo_global_count_[0] + pseudo_global_count_[1];
    for (int d = 0; d < 2; ++d) {
      if (pseudo_global_count_[d] > 0) {
        global_avg[d] = pseudo_global_sum_[d] / static_cast<double>(pseudo_global_count_[d]);
      }
    }
  }

  VarId best = -1;
  int best_priority = std::numeric_limits<int>::min();
  double best_score = -1.0;
  double best_dist = -1.0;
  // Select within the highest branch-priority class. With pseudocost
  // observations available, rank by the product of estimated objective
  // degradations in each direction; otherwise (and as a tie-break) use
  // the most-fractional rule. Ascending var order + strict comparisons
  // make exact ties deterministic (lowest id wins).
  std::unique_lock<std::mutex> pc_lock(pseudo_mutex_, std::defer_lock);
  if (total_obs > 0) pc_lock.lock();
  for (VarId v : int_vars_) {
    const double value = values[static_cast<std::size_t>(v)];
    const double frac = value - std::floor(value);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= options_.integer_tol) continue;
    const int priority = model_.var(v).branch_priority;
    double score = 0.0;
    if (total_obs > 0) {
      const Pseudocost& pc = pseudo_[static_cast<std::size_t>(v)];
      const double down = pc.count[0] >= kPseudocostReliability
                              ? pc.sum[0] / static_cast<double>(pc.count[0])
                              : global_avg[0];
      const double up = pc.count[1] >= kPseudocostReliability
                            ? pc.sum[1] / static_cast<double>(pc.count[1])
                            : global_avg[1];
      score = std::max(down * frac, 1e-12) * std::max(up * (1.0 - frac), 1e-12);
    }
    if (priority > best_priority ||
        (priority == best_priority &&
         (score > best_score || (score == best_score && dist > best_dist)))) {
      best_priority = priority;
      best_score = score;
      best_dist = dist;
      best = v;
    }
  }
  return best;
}

bool MipSolver::CandidateIsFeasible(const std::vector<double>& candidate) const {
  if (candidate.size() != static_cast<std::size_t>(model_.num_vars())) return false;
  const double tol = 1e-6;
  for (VarId v = 0; v < model_.num_vars(); ++v) {
    const Variable& var = model_.var(v);
    const double value = candidate[static_cast<std::size_t>(v)];
    if (value < var.lower - tol || value > var.upper + tol) return false;
    if (var.is_integer && std::abs(value - std::round(value)) > options_.integer_tol) {
      return false;
    }
  }
  for (const Row& row : model_.rows()) {
    double lhs = 0.0;
    for (std::size_t t = 0; t < row.vars.size(); ++t) {
      lhs += row.coeffs[t] * candidate[static_cast<std::size_t>(row.vars[t])];
    }
    const double slack_tol = 1e-6 * (1.0 + std::abs(row.rhs));
    switch (row.sense) {
      case Sense::kLe:
        if (lhs > row.rhs + slack_tol) return false;
        break;
      case Sense::kGe:
        if (lhs < row.rhs - slack_tol) return false;
        break;
      case Sense::kEq:
        if (std::abs(lhs - row.rhs) > slack_tol) return false;
        break;
    }
  }
  return true;
}

double MipSolver::Objective(const std::vector<double>& values) const {
  double obj = 0.0;
  for (VarId v = 0; v < model_.num_vars(); ++v) {
    obj += model_.var(v).objective * values[static_cast<std::size_t>(v)];
  }
  return obj;
}

void MipSolver::TryImproveIncumbent(const std::vector<double>& values, const Stopwatch& watch) {
  const double obj = Objective(values);
  const double internal = sense_ * obj;
  std::lock_guard<std::mutex> lock(incumbent_mutex_);
  if (has_incumbent_ && internal <= best_internal_ + options_.objective_tol) return;
  best_internal_ = internal;
  has_incumbent_ = true;
  // Publish the prune threshold for the lock-free fast path: nodes
  // bounded at or below it cannot beat this incumbent.
  cutoff_.store(internal + options_.objective_tol + options_.relative_gap * std::abs(internal),
                std::memory_order_relaxed);
  result_.solution.values = values;
  result_.solution.objective = obj;
  const double seconds = watch.ElapsedSeconds();
  result_.incumbent_trace.push_back({seconds, obj});
  result_.gap_trace.push_back({seconds, obj, sense_ * root_bound_internal_});
  SFP_LOG_DEBUG << "new incumbent " << obj << " at " << seconds << "s";
}

void MipSolver::RecordDroppedNode(double parent_bound) {
  nodes_dropped_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(incumbent_mutex_);
  // The abandoned subtree may hold anything up to its parent's bound;
  // folding that bound into the final dual bound keeps it sound.
  dropped_internal_ = std::max(dropped_internal_, parent_bound);
  SFP_LOG_WARN << "node LP hit the iteration limit; dropping node (bound "
               << sense_ * parent_bound << " folded into best_bound)";
}

void MipSolver::UpdatePseudocost(VarId var, int dir, double frac, double degradation) {
  const int d = dir > 0 ? 1 : 0;
  const double unit = degradation / std::max(frac, 1e-6);
  std::lock_guard<std::mutex> lock(pseudo_mutex_);
  Pseudocost& pc = pseudo_[static_cast<std::size_t>(var)];
  pc.sum[d] += unit;
  ++pc.count[d];
  pseudo_global_sum_[d] += unit;
  ++pseudo_global_count_[d];
}

void MipSolver::ProcessNode(Simplex& simplex, const OpenNode& node, bool snapshot_basis,
                            const Stopwatch& watch, Children& out) {
  out.has_preferred = false;
  out.has_other = false;

  ApplyNodeBounds(simplex, node.chain.get());
  if (node.warm != nullptr) simplex.RestoreBasis(*node.warm);
  const Solution lp = simplex.Solve();
  const std::int64_t node_index = nodes_explored_.fetch_add(1, std::memory_order_relaxed);

  if (lp.status == SolveStatus::kInfeasible) return;
  if (lp.status == SolveStatus::kUnbounded) {
    // An unbounded relaxation of a bounded MIP indicates a modelling
    // error; surface it loudly rather than silently mis-solving.
    SFP_CHECK_MSG(false, "unbounded LP relaxation in branch & bound");
  }
  if (lp.status == SolveStatus::kIterationLimit) {
    RecordDroppedNode(node.parent_bound);
    return;
  }

  const double bound = sense_ * lp.objective;
  if (node.chain == nullptr) {
    std::lock_guard<std::mutex> lock(incumbent_mutex_);
    root_bound_internal_ = bound;
  }
  if (node.branch_var >= 0) {
    const double degradation = std::max(0.0, node.parent_bound - bound);
    if (std::isfinite(degradation)) {
      UpdatePseudocost(node.branch_var, node.branch_dir, node.branch_frac, degradation);
    }
  }
  if (bound <= cutoff_.load(std::memory_order_relaxed)) return;

  const VarId branch_var = PickBranchVar(lp.values);
  if (branch_var < 0) {
    TryImproveIncumbent(lp.values, watch);
    return;
  }

  const bool heuristic_due =
      heuristic_ &&
      ((options_.heuristic_period > 0 && node_index % options_.heuristic_period == 0) ||
       model_.var(branch_var).branch_priority < options_.heuristic_priority_threshold);
  if (heuristic_due) {
    std::vector<double> candidate;
    bool proposed;
    {
      // The callback may keep mutable state (e.g. an Rng); serialize it.
      std::lock_guard<std::mutex> lock(heuristic_mutex_);
      proposed = heuristic_(lp.values, candidate);
    }
    if (proposed && CandidateIsFeasible(candidate)) {
      TryImproveIncumbent(candidate, watch);
      if (bound <= cutoff_.load(std::memory_order_relaxed)) return;
    }
  }

  const double value = lp.values[static_cast<std::size_t>(branch_var)];
  const double floor_value = std::floor(value);
  const double frac = value - floor_value;
  const Variable& var = model_.var(branch_var);

  // Both children share the parent's basis snapshot; the node LPs then
  // warm-start from it instead of a cold slack basis.
  std::shared_ptr<const Simplex::BasisState> warm;
  if (snapshot_basis) {
    warm = std::make_shared<const Simplex::BasisState>(simplex.SaveBasis());
  }

  // A child whose domain would be empty (possible when the variable's
  // model bounds are themselves fractional) is simply not created.
  const bool down_feasible = floor_value >= var.lower;
  const bool up_feasible = floor_value + 1.0 <= var.upper;
  OpenNode down, up;
  if (down_feasible) {
    down.chain = std::make_shared<const NodeChain>(
        NodeChain{{branch_var, var.lower, floor_value}, node.chain});
    down.warm = warm;
    down.parent_bound = bound;
    down.branch_var = branch_var;
    down.branch_dir = -1;
    down.branch_frac = std::max(frac, options_.integer_tol);
    down.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  if (up_feasible) {
    up.chain = std::make_shared<const NodeChain>(
        NodeChain{{branch_var, floor_value + 1.0, var.upper}, node.chain});
    up.warm = warm;
    up.parent_bound = bound;
    up.branch_var = branch_var;
    up.branch_dir = +1;
    up.branch_frac = std::max(1.0 - frac, options_.integer_tol);
    up.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  // Plunge toward the child nearest the fractional value.
  const bool prefer_up = frac >= 0.5;
  if (down_feasible && up_feasible) {
    out.has_preferred = true;
    out.has_other = true;
    out.preferred = prefer_up ? std::move(up) : std::move(down);
    out.other = prefer_up ? std::move(down) : std::move(up);
  } else if (down_feasible || up_feasible) {
    out.has_preferred = true;
    out.preferred = down_feasible ? std::move(down) : std::move(up);
  }
}

double MipSolver::SolveSerial(const Stopwatch& watch) {
  std::vector<OpenNode> stack;
  {
    OpenNode root;
    root.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    stack.push_back(std::move(root));
  }
  Children kids;
  while (!stack.empty()) {
    if (watch.ElapsedSeconds() > options_.time_limit_seconds ||
        nodes_explored_.load(std::memory_order_relaxed) >= options_.max_nodes) {
      stop_.store(true, std::memory_order_relaxed);
      break;
    }
    OpenNode node = std::move(stack.back());
    stack.pop_back();
    if (node.parent_bound <= cutoff_.load(std::memory_order_relaxed)) {
      continue;  // pruned by the parent's bound
    }
    // The serial engine stays warm from the previous node; snapshots are
    // only needed when children may be picked up by another worker.
    ProcessNode(simplex_, node, /*snapshot_basis=*/false, watch, kids);
    if (kids.has_other) stack.push_back(std::move(kids.other));
    if (kids.has_preferred) stack.push_back(std::move(kids.preferred));
  }
  double open_internal = -kInfinity;
  for (const OpenNode& node : stack) {
    open_internal = std::max(open_internal, node.parent_bound);
  }
  return open_internal;
}

bool MipSolver::WorseNode(const OpenNode& a, const OpenNode& b) {
  if (a.parent_bound != b.parent_bound) return a.parent_bound < b.parent_bound;
  return a.seq > b.seq;
}

void MipSolver::WorkerRun(Simplex& simplex, const Stopwatch& watch) {
  Children kids;
  OpenNode local;
  bool have_local = false;
  for (;;) {
    if (!have_local) {
      std::unique_lock<std::mutex> lock(tree_mutex_);
      tree_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !heap_.empty() || active_workers_ == 0;
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      // Empty heap with no active worker means the tree is exhausted.
      if (heap_.empty()) return;
      std::pop_heap(heap_.begin(), heap_.end(), WorseNode);
      local = std::move(heap_.back());
      heap_.pop_back();
      have_local = true;
      ++active_workers_;
    }
    if (watch.ElapsedSeconds() > options_.time_limit_seconds ||
        nodes_explored_.load(std::memory_order_relaxed) >= options_.max_nodes) {
      // Push the in-hand node back so its bound still counts as open.
      std::lock_guard<std::mutex> lock(tree_mutex_);
      stop_.store(true, std::memory_order_relaxed);
      heap_.push_back(std::move(local));
      std::push_heap(heap_.begin(), heap_.end(), WorseNode);
      --active_workers_;
      tree_cv_.notify_all();
      return;
    }
    if (local.parent_bound > cutoff_.load(std::memory_order_relaxed)) {
      ProcessNode(simplex, local, /*snapshot_basis=*/true, watch, kids);
    } else {
      kids.has_preferred = false;
      kids.has_other = false;
    }
    if (kids.has_other) {
      std::lock_guard<std::mutex> lock(tree_mutex_);
      heap_.push_back(std::move(kids.other));
      std::push_heap(heap_.begin(), heap_.end(), WorseNode);
      tree_cv_.notify_one();
    }
    if (kids.has_preferred) {
      local = std::move(kids.preferred);  // plunge
    } else {
      have_local = false;
      std::lock_guard<std::mutex> lock(tree_mutex_);
      --active_workers_;
      if (heap_.empty() && active_workers_ == 0) tree_cv_.notify_all();
    }
  }
}

double MipSolver::SolveParallel(const Stopwatch& watch) {
  int workers = options_.num_workers > 0 ? options_.num_workers : common::DefaultParallelism();
  workers = std::max(1, workers);
  heap_.clear();
  active_workers_ = 0;
  {
    OpenNode root;
    root.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    heap_.push_back(std::move(root));
  }
  common::WorkerPool pool(workers);
  pool.ParallelFor(workers, [this, &watch](int) {
    Simplex simplex(model_, options_.simplex);
    WorkerRun(simplex, watch);
    const Simplex::Stats& st = simplex.stats();
    std::lock_guard<std::mutex> lock(incumbent_mutex_);
    result_.simplex_pivots += st.iterations;
    result_.refactorizations += st.refactorizations;
    result_.ftran_nnz += st.ftran_nnz;
  });
  double open_internal = -kInfinity;
  for (const OpenNode& node : heap_) {
    open_internal = std::max(open_internal, node.parent_bound);
  }
  heap_.clear();
  return open_internal;
}

MipResult MipSolver::FinishResult(const Stopwatch& watch, double open_internal,
                                  bool stopped_early) {
  MipResult result = std::move(result_);
  result_ = MipResult{};
  result.nodes_explored = nodes_explored_.load(std::memory_order_relaxed);
  result.nodes_dropped = nodes_dropped_.load(std::memory_order_relaxed);
  result.seconds = watch.ElapsedSeconds();

  // Dual bound, in the internal max sense: the best bound over nodes
  // still outstanding (left open or dropped), combined with the
  // incumbent. An exhausted tree with nothing outstanding and no
  // incumbent is infeasible; the bound over the empty set is -infinity
  // internally, i.e. -infinity when maximizing and +infinity when
  // minimizing after the sense flip.
  const double outstanding = std::max(open_internal, dropped_internal_);
  double internal;
  if (outstanding == -kInfinity) {
    internal = has_incumbent_ ? best_internal_ : -kInfinity;
  } else {
    internal = std::max(outstanding, has_incumbent_ ? best_internal_ : -kInfinity);
  }
  result.best_bound = sense_ * internal;

  if (stopped_early) {
    result.solution.status = has_incumbent_ ? SolveStatus::kFeasible : SolveStatus::kTimeLimit;
  } else if (has_incumbent_) {
    // Dropped subtrees may hide a better solution: only claim
    // optimality when nothing outstanding can beat the incumbent.
    result.solution.status = outstanding <= cutoff_.load(std::memory_order_relaxed)
                                 ? SolveStatus::kOptimal
                                 : SolveStatus::kFeasible;
  } else {
    // No incumbent and an exhausted tree: genuinely infeasible only if
    // no subtree was dropped along the way.
    result.solution.status =
        result.nodes_dropped > 0 ? SolveStatus::kIterationLimit : SolveStatus::kInfeasible;
  }
  return result;
}

MipResult MipSolver::Solve() {
  Stopwatch watch;

  result_ = MipResult{};
  nodes_explored_.store(0, std::memory_order_relaxed);
  nodes_dropped_.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  cutoff_.store(-kInfinity, std::memory_order_relaxed);
  next_seq_.store(0, std::memory_order_relaxed);
  best_internal_ = -kInfinity;
  has_incumbent_ = false;
  dropped_internal_ = -kInfinity;
  root_bound_internal_ = kInfinity;
  pseudo_.assign(static_cast<std::size_t>(model_.num_vars()), Pseudocost{});
  pseudo_global_sum_[0] = pseudo_global_sum_[1] = 0.0;
  pseudo_global_count_[0] = pseudo_global_count_[1] = 0;

  if (!initial_incumbent_.empty() && CandidateIsFeasible(initial_incumbent_)) {
    TryImproveIncumbent(initial_incumbent_, watch);
  }

  double open_internal;
  if (options_.deterministic) {
    const std::int64_t pivots0 = simplex_.stats().iterations;
    const int refac0 = simplex_.stats().refactorizations;
    const std::int64_t nnz0 = simplex_.stats().ftran_nnz;
    open_internal = SolveSerial(watch);
    result_.simplex_pivots += simplex_.stats().iterations - pivots0;
    result_.refactorizations += simplex_.stats().refactorizations - refac0;
    result_.ftran_nnz += simplex_.stats().ftran_nnz - nnz0;
  } else {
    open_internal = SolveParallel(watch);
  }
  return FinishResult(watch, open_internal, stop_.load(std::memory_order_relaxed));
}

}  // namespace sfp::lp
