// Branch & bound mixed-integer solver over the simplex LP relaxation.
//
// Two tree-search modes share one node-processing core:
//  * deterministic (default) — serial depth-first search ("plunging")
//    with a fixed node order on a single worker, so node counts,
//    incumbent traces and solutions are bit-reproducible run to run,
//  * parallel — a best-first shared node queue worked by a
//    common::WorkerPool; each worker plunges depth-first from the node
//    it pops (keeping the child nearest the fractional value, pushing
//    the sibling), re-warm-starting its private Simplex from the parent
//    basis snapshot carried in the node. The incumbent cutoff is a
//    lock-free atomic read on the hot pruning path.
//
// Branching is by pseudocosts (objective degradation per unit of
// fractional distance, learned from child LP solves) within the highest
// branch-priority class, falling back to the most-fractional rule until
// costs are initialized. A wall-clock time limit with an incumbent
// trace drives the Fig. 9 early-termination experiment; an optional
// problem-specific rounding heuristic finds incumbents early.
//
// Memory: each open node stores one bound change plus a shared pointer
// to its parent's chain, so a path's bound set is shared rather than
// copied — worst-case memory is O(open nodes), not O(nodes x depth).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/stopwatch.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace sfp::lp {

/// Branch & bound options.
struct MipOptions {
  /// Wall-clock limit in seconds; infinity = run to completion.
  double time_limit_seconds = kInfinity;
  /// Absolute objective tolerance for pruning and optimality.
  double objective_tol = 1e-6;
  /// Relative optimality gap: a node is pruned when its bound is within
  /// `relative_gap` x |incumbent| of the incumbent. 0 = exact.
  double relative_gap = 0.0;
  /// Integrality tolerance.
  double integer_tol = 1e-6;
  /// Node cap (safety net).
  std::int64_t max_nodes = 5'000'000;
  /// Invoke the rounding heuristic every this many nodes (0 = never).
  int heuristic_period = 20;
  /// Additionally invoke the heuristic whenever the branching variable's
  /// priority is below this value — i.e. all structurally important
  /// variables are already integral. INT_MIN disables.
  int heuristic_priority_threshold = -2147483647;
  /// Serial depth-first search with a fixed node order: node counts and
  /// incumbent traces are reproducible run to run. Turn off to search
  /// the tree with `num_workers` parallel workers.
  bool deterministic = true;
  /// Parallel tree-search workers when `deterministic` is off
  /// (0 = common::DefaultParallelism()).
  int num_workers = 0;
  SimplexOptions simplex;
};

/// A timestamped incumbent improvement.
struct IncumbentEvent {
  double seconds = 0.0;
  double objective = 0.0;
};

/// A timestamped (incumbent, dual bound) pair — the optimality-gap
/// trace, sampled at every incumbent improvement. `bound` is the best
/// dual bound known at that moment (the root LP bound once available).
struct GapEvent {
  double seconds = 0.0;
  double objective = 0.0;
  double bound = 0.0;
};

/// Branch & bound result.
struct MipResult {
  Solution solution;
  /// Best dual bound at termination (== objective when optimal). For an
  /// infeasible exhausted tree this is the empty-set bound: -infinity
  /// when maximizing, +infinity when minimizing.
  double best_bound = 0.0;
  std::int64_t nodes_explored = 0;
  /// Nodes abandoned because their LP hit the iteration limit; their
  /// parent bounds are folded into `best_bound` so it stays sound.
  std::int64_t nodes_dropped = 0;
  /// Simplex work across all workers.
  std::int64_t simplex_pivots = 0;
  std::int64_t refactorizations = 0;
  std::int64_t ftran_nnz = 0;
  double seconds = 0.0;
  /// Every incumbent improvement, in discovery order.
  std::vector<IncumbentEvent> incumbent_trace;
  /// Gap trace: (incumbent, dual bound) at each improvement.
  std::vector<GapEvent> gap_trace;
};

/// Branch & bound solver. The heuristic, when set, receives the node
/// LP's fractional values and may propose a full integral assignment;
/// the solver re-checks it against every row before accepting. In
/// parallel mode heuristic invocations are serialized, so the callback
/// may keep mutable state (e.g. an Rng) without its own locking.
class MipSolver {
 public:
  /// Heuristic callback: receives node-LP values, fills `candidate`
  /// with a complete assignment; returns false to decline.
  using Heuristic =
      std::function<bool(const std::vector<double>& lp_values, std::vector<double>& candidate)>;

  MipSolver(const Model& model, MipOptions options = {});

  /// Installs a rounding heuristic (optional).
  void SetHeuristic(Heuristic heuristic) { heuristic_ = std::move(heuristic); }

  /// Seeds branch & bound with a known-feasible assignment (e.g. from a
  /// primal heuristic run on the root relaxation). Checked against
  /// every row at Solve() start; an infeasible seed is ignored.
  void SetInitialIncumbent(std::vector<double> values) {
    initial_incumbent_ = std::move(values);
  }

  /// Runs branch & bound.
  MipResult Solve();

 private:
  struct BoundChange {
    VarId var;
    double lower;
    double upper;
  };
  /// One branching decision + shared parent link (nullptr = root).
  struct NodeChain {
    BoundChange change;
    std::shared_ptr<const NodeChain> parent;
  };
  /// Open node: its bound-change chain, the parent's basis snapshot
  /// (parallel mode), the LP bound inherited from the parent, and how
  /// the node was created (for pseudocost updates).
  struct OpenNode {
    std::shared_ptr<const NodeChain> chain;
    std::shared_ptr<const Simplex::BasisState> warm;
    double parent_bound = kInfinity;  // internal max sense
    VarId branch_var = -1;
    int branch_dir = 0;      // -1 down child, +1 up child
    double branch_frac = 0;  // fractional distance covered by the branch
    std::uint64_t seq = 0;   // creation order; heap tie-break
  };
  /// Children produced by one node expansion. `preferred` is the child
  /// nearest the fractional value (plunged into first).
  struct Children {
    bool has_preferred = false, has_other = false;
    OpenNode preferred, other;
  };
  /// Per-direction pseudocost accumulators ([0]=down, [1]=up).
  struct Pseudocost {
    double sum[2] = {0.0, 0.0};
    std::int64_t count[2] = {0, 0};
  };

  void ApplyNodeBounds(Simplex& simplex, const NodeChain* chain) const;
  /// Index of the branching variable, or -1 if the LP point is integral.
  VarId PickBranchVar(const std::vector<double>& values);
  bool CandidateIsFeasible(const std::vector<double>& candidate) const;
  double Objective(const std::vector<double>& values) const;
  void TryImproveIncumbent(const std::vector<double>& values, const Stopwatch& watch);
  void RecordDroppedNode(double parent_bound);
  void UpdatePseudocost(VarId var, int dir, double frac, double degradation);
  /// Expands one node on `simplex`: solves its LP, updates incumbent /
  /// pseudocosts / drop accounting, and fills `out` with surviving
  /// children. `snapshot_basis` attaches a basis snapshot to children.
  void ProcessNode(Simplex& simplex, const OpenNode& node, bool snapshot_basis,
                   const Stopwatch& watch, Children& out);
  MipResult FinishResult(const Stopwatch& watch, double open_internal, bool stopped_early);

  /// Run the search; both return the best bound among nodes left open.
  double SolveSerial(const Stopwatch& watch);
  double SolveParallel(const Stopwatch& watch);
  /// Parallel worker body: pop / plunge / push until the tree is done.
  void WorkerRun(Simplex& simplex, const Stopwatch& watch);
  /// Heap order: highest parent bound first, earliest seq on ties.
  static bool WorseNode(const OpenNode& a, const OpenNode& b);

  const Model& model_;
  MipOptions options_;
  Simplex simplex_;  // serial-mode engine (kept warm across nodes)
  Heuristic heuristic_;
  std::vector<double> initial_incumbent_;
  std::vector<VarId> int_vars_;
  double sense_ = 1.0;  // +1 maximize, -1 minimize (internal max-sense)

  // --- shared solve state (parallel workers touch all of this) -------
  std::mutex incumbent_mutex_;  // incumbent, traces, drop accounting
  std::mutex pseudo_mutex_;
  std::mutex heuristic_mutex_;
  /// Lock-free prune threshold (internal max sense): nodes bounded at
  /// or below it cannot improve the incumbent.
  std::atomic<double> cutoff_{-kInfinity};
  std::atomic<std::int64_t> nodes_explored_{0};
  std::atomic<std::int64_t> nodes_dropped_{0};
  std::atomic<bool> stop_{false};
  double best_internal_ = -kInfinity;
  bool has_incumbent_ = false;
  double dropped_internal_ = -kInfinity;  // max bound among dropped nodes
  double root_bound_internal_ = kInfinity;
  std::atomic<std::uint64_t> next_seq_{0};
  std::vector<Pseudocost> pseudo_;
  double pseudo_global_sum_[2] = {0.0, 0.0};
  std::int64_t pseudo_global_count_[2] = {0, 0};
  MipResult result_;

  // Parallel-mode tree state (guarded by tree_mutex_).
  std::mutex tree_mutex_;
  std::condition_variable tree_cv_;
  std::vector<OpenNode> heap_;  // max-heap on (parent_bound, -seq)
  int active_workers_ = 0;
};

}  // namespace sfp::lp
