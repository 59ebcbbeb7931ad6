#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "ilp/model.hpp"

namespace mebl::exec {
class ThreadPool;
}

namespace mebl::ilp {

/// Outcome of a branch-and-bound run.
enum class SolveStatus {
  kOptimal,     ///< proven optimal solution found
  kFeasible,    ///< stopped by a limit with an incumbent, optimality unproven
  kInfeasible,  ///< proven infeasible
  kLimit,       ///< stopped by a limit with no incumbent found
};

/// Solver knobs. The defaults are effectively unlimited; the experiment
/// harnesses set a time limit so the Table VII "ILP too slow / NA" behaviour
/// of the paper reproduces in bounded wall-clock time.
struct SolveOptions {
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  std::int64_t max_nodes = std::numeric_limits<std::int64_t>::max();
  /// Absolute wall-clock deadline, typically shared by many solves (the
  /// router's per-circuit ILP budget under parallel panel fan-out). Checked
  /// inside the search alongside time_limit_seconds, so one over-budget
  /// solve stops mid-search instead of blowing past the budget. Unset =
  /// no deadline. Wall-clock limits make the *point where a search is cut
  /// off* machine-dependent; replayable flows should use node_budget.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Deterministic-effort mode: > 0 caps the search at (approximately) this
  /// many branch-and-bound nodes, counted identically on every machine and
  /// at every thread count. When set it takes precedence over the wall-clock
  /// limits above (they are not checked at all), and cross-subproblem
  /// incumbent sharing is disabled, so the full Solution — status,
  /// objective, values and nodes_explored — is a pure function of (model,
  /// options). This is what replayable modes (mebl_serve ECO) use.
  std::int64_t node_budget = 0;
  /// Optional warm-start assignment: must be feasible; used as the initial
  /// incumbent so pruning starts immediately.
  std::optional<std::vector<std::uint8_t>> warm_start;
  /// Optional branching preference: unfixed variables listed here are
  /// branched before the default cover-guided rule kicks in (value 1 first).
  /// Typically the support of a heuristic solution, so the search re-derives
  /// and then improves on it quickly. Unknown/fixed entries are skipped.
  std::vector<VarId> branch_hint;
  /// Number of root subproblems the search is split into before fan-out.
  /// Part of the determinism contract: fixed by the caller, never derived
  /// from the thread count (DESIGN.md §7) — the same split must be used at
  /// every pool size for the merged solution to be bit-identical. 1 runs the
  /// plain sequential DFS of the seed solver; 0 selects the default (32).
  int split_target = 0;
};

/// Solve result: status, incumbent (when any), objective and search stats.
struct Solution {
  SolveStatus status = SolveStatus::kLimit;
  double objective = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> values;  // empty when no incumbent
  std::int64_t nodes_explored = 0;
  /// True when the search was cut short by any limit (time, deadline,
  /// max_nodes or node_budget) — i.e. status would have been kOptimal or
  /// kInfeasible given unlimited effort. Wall-clock cut-offs are machine-
  /// dependent, so run reports must keep this out of canonical bytes.
  bool limit_hit = false;
};

/// Exact DFS branch-and-bound for 0/1 minimization ILPs, packaged as a
/// stateful, reentrant solver object.
///
/// Kernel techniques (unchanged from the seed solver): bounds-consistency
/// propagation on every constraint, objective lower bounding (fixed cost +
/// negative-coefficient relaxation + a greedy disjoint bound over
/// unsatisfied set-covering constraints), and cover-constraint guided
/// branching (pick the cheapest unfixed variable of a tight "choose one"
/// constraint, try 1 first). Exact but exponential in the worst case — a
/// faithful stand-in for the paper's CPLEX usage, including its blow-up on
/// large panels.
///
/// What the object adds over a plain sequential DFS:
///
///  * Parallel subtree exploration. The root is expanded sequentially into
///    a fixed-size frontier of subproblems (split_target — never derived
///    from the thread count), the subproblems are solved on the exec pool,
///    and the incumbents are merged in subproblem-index order with exact
///    comparisons. Under that discipline the merged solution is
///    bit-identical at any pool size, including none (DESIGN.md §7).
///    Outside node-budget mode, subproblems prune against the best
///    objective any other subproblem has found so far. That sharing only
///    ever cuts strictly-worse branches, so it accelerates the search
///    without touching the result (nodes_explored then varies with the
///    execution interleaving).
///  * Warm starts. solve() accepts a feasible assignment as the initial
///    incumbent plus a branch hint.
///  * A deterministic node budget (SolveOptions::node_budget) as the
///    replayable alternative to wall-clock limits.
///
/// A Solver owns reusable search scratch, so keeping one per worker thread
/// and feeding it a sequence of models avoids per-solve allocation. One
/// in-flight solve per Solver: the object is reentrant in the sense that
/// solve() may be called again (and from inside pool workers — nested
/// parallelism degrades to the inline sequential path), but concurrent
/// solves need distinct Solver instances, which are cheap to construct.
class Solver {
 public:
  /// `pool` runs the subproblem fan-out; nullptr (or a pool of 1) solves
  /// them sequentially — same results either way.
  explicit Solver(exec::ThreadPool* pool = nullptr);
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  void set_pool(exec::ThreadPool* pool);

  /// Solve one model.
  Solution solve(const Model& model, const SolveOptions& options = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mebl::ilp
