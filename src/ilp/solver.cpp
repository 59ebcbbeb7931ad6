#include "ilp/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <mutex>
#include <utility>

#include "exec/thread_pool.hpp"

namespace mebl::ilp {

namespace {

constexpr double kTol = 1e-9;
constexpr int kDefaultSplit = 32;
constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

/// Immutable per-model derived data shared by every subproblem search:
/// var -> constraint incidence, the cover-constraint list, initial
/// constraint activity bounds and the objective's negative-coefficient
/// relaxation. Built once per solve; every SearchCore starts from a copy
/// of the bounds instead of rescanning the model.
struct ModelIndex {
  std::vector<std::vector<std::size_t>> of_var;  // first num_vars slots valid
  std::vector<std::size_t> covers;
  std::vector<double> min_lhs0;
  std::vector<double> max_lhs0;
  double base_bound = 0.0;

  void build(const Model& model) {
    const std::size_t n = model.num_vars();
    if (of_var.size() < n) of_var.resize(n);
    for (std::size_t v = 0; v < n; ++v) of_var[v].clear();
    covers.clear();
    const auto& cons = model.constraints();
    min_lhs0.assign(cons.size(), 0.0);
    max_lhs0.assign(cons.size(), 0.0);
    for (std::size_t c = 0; c < cons.size(); ++c) {
      double lo = 0.0, hi = 0.0;
      bool all_unit = true;
      for (const Term& t : cons[c].terms) {
        lo += std::min(0.0, t.coeff);
        hi += std::max(0.0, t.coeff);
        of_var[static_cast<std::size_t>(t.var)].push_back(c);
        if (std::abs(t.coeff - 1.0) > kTol) all_unit = false;
      }
      min_lhs0[c] = lo;
      max_lhs0[c] = hi;
      // "Cover" constraints (sum x >= 1 or == 1 with unit coefficients)
      // drive both the branching rule and the disjoint lower bound.
      if (all_unit && cons[c].rhs >= 1.0 - kTol &&
          (cons[c].sense == Sense::kGe || cons[c].sense == Sense::kEq))
        covers.push_back(c);
    }
    base_bound = 0.0;
    for (std::size_t v = 0; v < n; ++v)
      base_bound += std::min(0.0, model.objective_coeff(static_cast<VarId>(v)));
  }
};

/// Limits and shared state for one DFS run (whole model or one subproblem).
struct RunLimits {
  std::int64_t max_nodes = std::numeric_limits<std::int64_t>::max();
  bool check_clock = false;
  double time_limit_seconds = kInf;
  std::optional<Clock::time_point> deadline;
  Clock::time_point start{};
  /// Best objective published by any subproblem so far, or nullptr when
  /// cross-subproblem sharing is off. Pruning against it uses a *strict*
  /// comparison with no tolerance: a node is cut only when its bound is
  /// strictly above a real solution's objective, so no branch holding a
  /// solution <= the global optimum is ever lost and the index-ordered
  /// merge stays deterministic under any interleaving.
  std::atomic<double>* shared_best = nullptr;
};

/// One DFS branch-and-bound search over the model (optionally rooted at a
/// subproblem prefix). The kernel — propagation, bounding, branching — is
/// the seed solver's, restructured so the state is resettable (reusable
/// scratch across solves) and seedable (warm-start incumbent, replayed
/// decision prefix, branch hints, shared bound).
class SearchCore {
 public:
  /// A subproblem of the root expansion: the branching decisions that lead
  /// from the root to this subtree.
  struct Subproblem {
    std::vector<std::pair<VarId, std::int8_t>> decisions;
  };

  void reset(const Model& model, const ModelIndex& index) {
    model_ = &model;
    index_ = &index;
    const std::size_t n = model.num_vars();
    value_.assign(n, -1);
    min_lhs_.assign(index.min_lhs0.begin(), index.min_lhs0.end());
    max_lhs_.assign(index.max_lhs0.begin(), index.max_lhs0.end());
    used_mark_.assign(n, 0);
    epoch_ = 0;
    dirty_.clear();
    trail_.clear();
    fixed_cost_ = 0.0;
    relax_gain_ = 0.0;
    incumbent_.clear();
    incumbent_obj_ = kInf;
    nodes_ = 0;
    hint_ = nullptr;
  }

  void set_hint(const std::vector<VarId>* hint) { hint_ = hint; }

  void seed_incumbent(const std::vector<std::uint8_t>& values, double obj) {
    incumbent_ = values;
    incumbent_obj_ = obj;
  }

  /// Seed the propagation queue with every constraint so trivially
  /// infeasible models are detected at the root (seed-solver behaviour:
  /// the root node itself performs the first full propagation pass).
  void seed_all_dirty() {
    for (std::size_t c = 0; c < model_->constraints().size(); ++c)
      dirty_.push_back(c);
  }

  /// Drain the propagation queue; false on conflict.
  bool settle() {
    if (!propagate()) {
      dirty_.clear();
      return false;
    }
    return true;
  }

  /// Replay one branching decision of a subproblem prefix; false when the
  /// prefix is infeasible (the subtree is exhausted trivially).
  bool apply_decision(VarId var, std::int8_t val) {
    dirty_.clear();
    if (!assign(var, val)) return false;
    return settle();
  }

  /// Sequential, deterministic expansion of the root into at most
  /// 2^max_depth subproblems (the first `max_depth` levels of the exact
  /// branching tree). Prefixes that conflict or are bound-pruned die here;
  /// complete assignments found on the way become root incumbents. Callers
  /// seed_all_dirty() first. Never limited: the frontier is a few dozen
  /// nodes, each counted in nodes().
  void expand(int depth, int max_depth, std::vector<Subproblem>& out,
              std::vector<std::pair<VarId, std::int8_t>>& prefix) {
    if (depth == max_depth) {
      out.push_back(Subproblem{prefix});
      return;
    }
    ++nodes_;
    const std::size_t mark = trail_.size();
    if (!settle()) {
      undo_to(mark);
      return;
    }
    if (!incumbent_.empty() && lower_bound() >= incumbent_obj_ - kTol) {
      undo_to(mark);
      return;
    }
    const VarId var = pick_branch_var();
    if (var == -1) {
      accept_leaf();
      undo_to(mark);
      return;
    }
    for (const std::int8_t val : {std::int8_t{1}, std::int8_t{0}}) {
      const std::size_t inner = trail_.size();
      dirty_.clear();
      if (assign(var, val)) {
        prefix.emplace_back(var, val);
        expand(depth + 1, max_depth, out, prefix);
        prefix.pop_back();
      }
      undo_to(inner);
    }
    undo_to(mark);
  }

  /// Exhaustive DFS under `limits`; true when the subtree was searched
  /// completely (no limit hit).
  bool run(const RunLimits& limits) {
    limits_ = limits;
    return dfs();
  }

  [[nodiscard]] std::int64_t nodes() const noexcept { return nodes_; }
  [[nodiscard]] bool has_incumbent() const noexcept {
    return !incumbent_.empty();
  }
  [[nodiscard]] double incumbent_obj() const noexcept { return incumbent_obj_; }
  [[nodiscard]] const std::vector<std::uint8_t>& incumbent() const noexcept {
    return incumbent_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take_incumbent() {
    return std::move(incumbent_);
  }

 private:
  // --- assignment / trail --------------------------------------------------

  bool assign(VarId var, std::int8_t val) {
    auto& slot = value_[static_cast<std::size_t>(var)];
    if (slot != -1) return slot == val;
    slot = val;
    trail_.push_back(var);
    fixed_cost_ += val == 1 ? model_->objective_coeff(var) : 0.0;
    // The var leaves the relaxation term sum(min(0, c_i) over unfixed).
    relax_gain_ -= std::min(0.0, model_->objective_coeff(var));
    for (std::size_t c : index_->of_var[static_cast<std::size_t>(var)]) {
      const Constraint& con = model_->constraints()[c];
      // Find this var's coefficient (vars appear once per constraint).
      for (const Term& t : con.terms) {
        if (t.var != var) continue;
        if (t.coeff > 0.0) {
          if (val == 1)
            min_lhs_[c] += t.coeff;  // range [0,c] -> {c}
          else
            max_lhs_[c] -= t.coeff;  // range [0,c] -> {0}
        } else if (t.coeff < 0.0) {
          if (val == 1)
            max_lhs_[c] += t.coeff;  // range [c,0] -> {c}
          else
            min_lhs_[c] -= t.coeff;  // range [c,0] -> {0}
        }
        break;
      }
      dirty_.push_back(c);
    }
    return true;
  }

  void undo_to(std::size_t trail_mark) {
    while (trail_.size() > trail_mark) {
      const VarId var = trail_.back();
      trail_.pop_back();
      const std::int8_t val = value_[static_cast<std::size_t>(var)];
      value_[static_cast<std::size_t>(var)] = -1;
      fixed_cost_ -= val == 1 ? model_->objective_coeff(var) : 0.0;
      relax_gain_ += std::min(0.0, model_->objective_coeff(var));
      for (std::size_t c : index_->of_var[static_cast<std::size_t>(var)]) {
        const Constraint& con = model_->constraints()[c];
        for (const Term& t : con.terms) {
          if (t.var != var) continue;
          if (t.coeff > 0.0) {
            if (val == 1)
              min_lhs_[c] -= t.coeff;
            else
              max_lhs_[c] += t.coeff;
          } else if (t.coeff < 0.0) {
            if (val == 1)
              max_lhs_[c] -= t.coeff;
            else
              min_lhs_[c] += t.coeff;
          }
          break;
        }
      }
    }
  }

  // --- propagation ---------------------------------------------------------

  /// Bounds-consistency pass over constraints touched since the last call.
  /// Returns false on a detected conflict.
  bool propagate() {
    while (!dirty_.empty()) {
      const std::size_t c = dirty_.back();
      dirty_.pop_back();
      const Constraint& con = model_->constraints()[c];
      const bool need_le = con.sense != Sense::kGe;
      const bool need_ge = con.sense != Sense::kLe;
      if (need_le && min_lhs_[c] > con.rhs + kTol) return false;
      if (need_ge && max_lhs_[c] < con.rhs - kTol) return false;
      for (const Term& t : con.terms) {
        if (value_[static_cast<std::size_t>(t.var)] != -1 || t.coeff == 0.0)
          continue;
        if (t.coeff > 0.0) {
          // Setting to 1 adds coeff to min; setting to 0 removes it from max.
          if (need_le && min_lhs_[c] + t.coeff > con.rhs + kTol) {
            if (!assign(t.var, 0)) return false;
          } else if (need_ge && max_lhs_[c] - t.coeff < con.rhs - kTol) {
            if (!assign(t.var, 1)) return false;
          }
        } else {
          if (need_le && min_lhs_[c] - t.coeff > con.rhs + kTol) {
            if (!assign(t.var, 1)) return false;
          } else if (need_ge && max_lhs_[c] + t.coeff < con.rhs - kTol) {
            if (!assign(t.var, 0)) return false;
          }
        }
      }
    }
    return true;
  }

  // --- bounding ------------------------------------------------------------

  /// Lower bound on any completion of the current partial assignment.
  double lower_bound() {
    double bound = fixed_cost_ + index_->base_bound + relax_gain_;
    // Greedy disjoint cover bound: unsatisfied "choose one" constraints with
    // pairwise-disjoint unfixed supports each force at least their cheapest
    // member into the solution.
    ++epoch_;
    for (std::size_t c : index_->covers) {
      const Constraint& con = model_->constraints()[c];
      double cheapest = kInf;
      bool satisfied = false;
      bool disjoint = true;
      for (const Term& t : con.terms) {
        const auto v = static_cast<std::size_t>(t.var);
        if (value_[v] == 1) {
          satisfied = true;
          break;
        }
        if (value_[v] == 0) continue;
        if (used_mark_[v] == epoch_) disjoint = false;
        cheapest = std::min(cheapest, model_->objective_coeff(t.var));
      }
      if (satisfied || !disjoint || cheapest <= 0.0 || cheapest == kInf)
        continue;
      bound += cheapest;
      for (const Term& t : con.terms) {
        const auto v = static_cast<std::size_t>(t.var);
        if (value_[v] == -1) used_mark_[v] = epoch_;
      }
    }
    return bound;
  }

  // --- branching -----------------------------------------------------------

  /// Choose the next variable to branch on: a hinted unfixed var first (the
  /// support of a heuristic warm start, so the search re-derives it fast),
  /// else the cheapest unfixed member of the first unsatisfied cover
  /// constraint, else the first unfixed var.
  [[nodiscard]] VarId pick_branch_var() const {
    if (hint_ != nullptr) {
      for (const VarId v : *hint_) {
        if (v >= 0 && static_cast<std::size_t>(v) < value_.size() &&
            value_[static_cast<std::size_t>(v)] == -1)
          return v;
      }
    }
    for (std::size_t c : index_->covers) {
      const Constraint& con = model_->constraints()[c];
      VarId best = -1;
      double best_cost = kInf;
      bool satisfied = false;
      for (const Term& t : con.terms) {
        const auto v = static_cast<std::size_t>(t.var);
        if (value_[v] == 1) {
          satisfied = true;
          break;
        }
        if (value_[v] == -1 && model_->objective_coeff(t.var) < best_cost) {
          best_cost = model_->objective_coeff(t.var);
          best = t.var;
        }
      }
      if (!satisfied && best != -1) return best;
    }
    for (std::size_t v = 0; v < value_.size(); ++v)
      if (value_[v] == -1) return static_cast<VarId>(v);
    return -1;
  }

  /// Record the complete assignment at the current node as the incumbent
  /// when it improves (strictly — ties keep the first one found, which the
  /// deterministic merge relies on), and publish the new bound.
  void accept_leaf() {
    const double obj = fixed_cost_;
    if (!incumbent_.empty() && obj >= incumbent_obj_) return;
    incumbent_.resize(value_.size());
    for (std::size_t v = 0; v < value_.size(); ++v)
      incumbent_[v] = static_cast<std::uint8_t>(value_[v]);
    incumbent_obj_ = obj;
    if (limits_.shared_best != nullptr) {
      double seen = limits_.shared_best->load(std::memory_order_relaxed);
      while (obj < seen && !limits_.shared_best->compare_exchange_weak(
                               seen, obj, std::memory_order_relaxed)) {
      }
    }
  }

  [[nodiscard]] bool over_clock() const {
    if (std::chrono::duration<double>(Clock::now() - limits_.start).count() >
        limits_.time_limit_seconds)
      return true;
    return limits_.deadline && Clock::now() > *limits_.deadline;
  }

  /// Returns true when the subtree was searched exhaustively (no limit hit).
  bool dfs() {
    ++nodes_;
    // The node limit is exact — a compare per node costs nothing and keeps
    // tiny budget slices meaningful — while the clock (a syscall) is only
    // consulted every 1024 nodes, as in the seed solver.
    if (nodes_ > limits_.max_nodes ||
        ((nodes_ & 0x3ff) == 0 && limits_.check_clock && over_clock()))
      return false;

    const std::size_t mark = trail_.size();
    if (!settle()) {
      undo_to(mark);
      return true;  // conflict: subtree exhausted
    }
    if (!incumbent_.empty() || limits_.shared_best != nullptr) {
      const double lb = lower_bound();
      if (!incumbent_.empty() && lb >= incumbent_obj_ - kTol) {
        undo_to(mark);
        return true;  // pruned against the local incumbent
      }
      if (limits_.shared_best != nullptr &&
          lb > limits_.shared_best->load(std::memory_order_relaxed)) {
        undo_to(mark);
        return true;  // pruned against another subproblem's incumbent
      }
    }

    const VarId var = pick_branch_var();
    if (var == -1) {
      // Full assignment; propagation kept every constraint satisfiable and
      // all bounds are now tight, so it is feasible.
      accept_leaf();
      undo_to(mark);
      return true;
    }

    bool complete = true;
    for (const std::int8_t branch_val : {std::int8_t{1}, std::int8_t{0}}) {
      const std::size_t inner = trail_.size();
      dirty_.clear();
      if (assign(var, branch_val)) {
        if (!dfs()) complete = false;
      }
      undo_to(inner);
      if (!complete) break;  // limit hit; stop immediately
    }
    undo_to(mark);
    return complete;
  }

  const Model* model_ = nullptr;
  const ModelIndex* index_ = nullptr;
  RunLimits limits_;
  const std::vector<VarId>* hint_ = nullptr;

  std::vector<std::int8_t> value_;  // -1 unknown / 0 / 1
  std::vector<double> min_lhs_;
  std::vector<double> max_lhs_;
  std::vector<std::size_t> dirty_;
  std::vector<VarId> trail_;

  double fixed_cost_ = 0.0;
  double relax_gain_ = 0.0;  // correction as vars leave the relaxation
  std::vector<std::uint32_t> used_mark_;
  std::uint32_t epoch_ = 0;

  std::vector<std::uint8_t> incumbent_;
  double incumbent_obj_ = kInf;
  std::int64_t nodes_ = 0;
};

[[nodiscard]] int split_depth(int split_target) {
  int depth = 0;
  while ((1 << depth) < split_target && depth < 16) ++depth;
  return depth;
}

}  // namespace

struct Solver::Impl {
  exec::ThreadPool* pool = nullptr;
  ModelIndex index;
  SearchCore root;
  // Reusable subproblem search states, recycled across fan-outs and solves.
  std::mutex core_mutex;
  std::vector<std::unique_ptr<SearchCore>> free_cores;

  std::unique_ptr<SearchCore> acquire_core() {
    const std::lock_guard<std::mutex> lock(core_mutex);
    if (free_cores.empty()) return std::make_unique<SearchCore>();
    auto core = std::move(free_cores.back());
    free_cores.pop_back();
    return core;
  }
  void release_core(std::unique_ptr<SearchCore> core) {
    const std::lock_guard<std::mutex> lock(core_mutex);
    free_cores.push_back(std::move(core));
  }
};

Solver::Solver(exec::ThreadPool* pool) : impl_(std::make_unique<Impl>()) {
  impl_->pool = pool;
}
Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

void Solver::set_pool(exec::ThreadPool* pool) { impl_->pool = pool; }

Solution Solver::solve(const Model& model, const SolveOptions& options) {
  Impl& im = *impl_;
  Solution out;
  if (model.num_vars() == 0) {
    out.status = SolveStatus::kOptimal;
    out.objective = 0.0;
    return out;
  }

  const Clock::time_point start = Clock::now();
  im.index.build(model);

  const bool budget_mode = options.node_budget > 0;
  const int split = options.split_target > 0 ? options.split_target
                                             : kDefaultSplit;

  SearchCore& root = im.root;
  root.reset(model, im.index);
  if (!options.branch_hint.empty()) root.set_hint(&options.branch_hint);
  if (options.warm_start) {
    assert(model.is_feasible(*options.warm_start));
    root.seed_incumbent(*options.warm_start,
                        model.objective_value(*options.warm_start));
  }

  RunLimits base;
  base.start = start;
  if (budget_mode) {
    base.max_nodes = std::min(options.node_budget, options.max_nodes);
  } else {
    base.max_nodes = options.max_nodes;
    base.check_clock = options.deadline.has_value() ||
                       std::isfinite(options.time_limit_seconds);
    base.time_limit_seconds = options.time_limit_seconds;
    base.deadline = options.deadline;
  }

  bool complete = true;
  std::vector<std::uint8_t> best_values;
  double best_obj = kInf;

  if (split <= 1) {
    // Plain sequential DFS — the seed solver, node for node.
    root.seed_all_dirty();
    complete = root.run(base);
    out.nodes_explored = root.nodes();
    if (root.has_incumbent()) {
      best_obj = root.incumbent_obj();
      best_values = root.take_incumbent();
    }
  } else {
    // Deterministic root expansion to a frontier of subproblems. The split
    // is fixed by the options — never by the pool size — so the frontier,
    // and with it the merged solution, is identical at every thread count.
    std::vector<SearchCore::Subproblem> subs;
    std::vector<std::pair<VarId, std::int8_t>> prefix;
    root.seed_all_dirty();
    root.expand(0, split_depth(split), subs, prefix);
    const std::int64_t root_nodes = root.nodes();
    out.nodes_explored = root_nodes;

    std::atomic<double> shared_best{
        root.has_incumbent() ? root.incumbent_obj() : kInf};
    RunLimits sub_limits = base;
    bool run_subs = !subs.empty();
    if (budget_mode) {
      // Even, deterministic node slices: each subproblem gets its share of
      // whatever the root expansion left, independent of the interleaving.
      const std::int64_t remaining =
          std::max<std::int64_t>(0, base.max_nodes - root_nodes);
      if (remaining == 0 || subs.empty())
        run_subs = false;
      else
        sub_limits.max_nodes = std::max<std::int64_t>(
            1, remaining / static_cast<std::int64_t>(subs.size()));
    } else {
      if (!subs.empty() &&
          base.max_nodes != std::numeric_limits<std::int64_t>::max())
        sub_limits.max_nodes = std::max<std::int64_t>(
            1, base.max_nodes / static_cast<std::int64_t>(subs.size()));
      sub_limits.shared_best = &shared_best;
    }

    struct SubResult {
      std::vector<std::uint8_t> values;
      double obj = kInf;
      std::int64_t nodes = 0;
      bool complete = true;
    };
    std::vector<SubResult> results(subs.size());

    if (run_subs) {
      const std::function<void(std::size_t)> solve_sub = [&](std::size_t i) {
        auto core = im.acquire_core();
        core->reset(model, im.index);
        if (!options.branch_hint.empty()) core->set_hint(&options.branch_hint);
        if (root.has_incumbent())
          core->seed_incumbent(root.incumbent(), root.incumbent_obj());
        SubResult r;
        core->seed_all_dirty();
        bool alive = core->settle();
        for (std::size_t d = 0; alive && d < subs[i].decisions.size(); ++d)
          alive = core->apply_decision(subs[i].decisions[d].first,
                                       subs[i].decisions[d].second);
        // A dead prefix means the subtree is exhausted without search; the
        // root-seeded incumbent it reports back is then just the seed.
        if (alive) r.complete = core->run(sub_limits);
        if (core->has_incumbent()) {
          r.obj = core->incumbent_obj();
          r.values = core->take_incumbent();
        }
        r.nodes = core->nodes();
        im.release_core(std::move(core));
        results[i] = std::move(r);
      };
      if (im.pool != nullptr && subs.size() > 1)
        im.pool->parallel_for(0, subs.size(), solve_sub);
      else
        for (std::size_t i = 0; i < subs.size(); ++i) solve_sub(i);
    } else {
      complete = subs.empty();
    }

    // Index-ordered merge with exact comparisons: the earliest subproblem
    // achieving the best objective wins, bit-identically at any pool size.
    if (root.has_incumbent()) {
      best_obj = root.incumbent_obj();
      best_values = root.take_incumbent();
    }
    if (run_subs) {
      for (SubResult& r : results) {
        if (!r.complete) complete = false;
        out.nodes_explored += r.nodes;
        if (!r.values.empty() && r.obj < best_obj) {
          best_obj = r.obj;
          best_values = std::move(r.values);
        }
      }
    }
  }

  if (!best_values.empty()) {
    out.objective = best_obj;
    out.values = std::move(best_values);
    out.status = complete ? SolveStatus::kOptimal : SolveStatus::kFeasible;
  } else {
    out.status = complete ? SolveStatus::kInfeasible : SolveStatus::kLimit;
  }
  out.limit_hit = !complete;
  return out;
}

}  // namespace mebl::ilp
