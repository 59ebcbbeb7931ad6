#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "exec/thread_pool.hpp"
#include "ilp/solver.hpp"
#include "util/rng.hpp"

namespace mebl::ilp {
namespace {

/// Most tests exercise the Solver API through a throwaway instance.
Solution solve_with(const Model& model, const SolveOptions& options = {}) {
  Solver solver;
  return solver.solve(model, options);
}

TEST(Ilp, EmptyModelIsOptimalZero) {
  Model model;
  const auto solution = solve_with(model);
  EXPECT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(solution.objective, 0.0);
}

TEST(Ilp, UnconstrainedMinimizationSetsPositiveCostVarsToZero) {
  Model model;
  model.add_binary(3.0);
  model.add_binary(-2.0);
  const auto solution = solve_with(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(solution.objective, -2.0);
  EXPECT_EQ(solution.values[0], 0);
  EXPECT_EQ(solution.values[1], 1);
}

TEST(Ilp, ChooseOnePicksCheapest) {
  Model model;
  const VarId a = model.add_binary(5.0);
  const VarId b = model.add_binary(2.0);
  const VarId c = model.add_binary(9.0);
  model.add_sum_constraint({a, b, c}, Sense::kEq, 1.0);
  const auto solution = solve_with(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(solution.objective, 2.0);
  EXPECT_EQ(solution.values[static_cast<std::size_t>(b)], 1);
}

TEST(Ilp, InfeasibleDetected) {
  Model model;
  const VarId a = model.add_binary(1.0);
  model.add_sum_constraint({a}, Sense::kGe, 2.0);  // impossible for binary
  const auto solution = solve_with(model);
  EXPECT_EQ(solution.status, SolveStatus::kInfeasible);
}

TEST(Ilp, ConflictingEqualities) {
  Model model;
  const VarId a = model.add_binary(1.0);
  model.add_sum_constraint({a}, Sense::kEq, 1.0);
  model.add_sum_constraint({a}, Sense::kEq, 0.0);
  EXPECT_EQ(solve_with(model).status, SolveStatus::kInfeasible);
}

TEST(Ilp, NegativeCoefficientConstraint) {
  // x - y >= 0 with objective min(x - 2y) forces x=1,y=1.
  Model model;
  const VarId x = model.add_binary(1.0);
  const VarId y = model.add_binary(-2.0);
  model.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kGe, 0.0);
  const auto solution = solve_with(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(solution.objective, -1.0);
  EXPECT_EQ(solution.values[static_cast<std::size_t>(x)], 1);
  EXPECT_EQ(solution.values[static_cast<std::size_t>(y)], 1);
}

TEST(Ilp, SetCoverSmall) {
  // Classic weighted set cover as ILP; optimum picks sets {0,2} (cost 4).
  Model model;
  const VarId s0 = model.add_binary(3.0);  // covers {a, b}
  const VarId s1 = model.add_binary(5.0);  // covers {a, b, c}
  const VarId s2 = model.add_binary(1.0);  // covers {c}
  model.add_sum_constraint({s0, s1}, Sense::kGe, 1.0);       // a
  model.add_sum_constraint({s0, s1}, Sense::kGe, 1.0);       // b
  model.add_sum_constraint({s1, s2}, Sense::kGe, 1.0);       // c
  const auto solution = solve_with(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(solution.objective, 4.0);
}

TEST(Ilp, WarmStartActsAsIncumbent) {
  Model model;
  const VarId a = model.add_binary(1.0);
  const VarId b = model.add_binary(2.0);
  model.add_sum_constraint({a, b}, Sense::kGe, 1.0);
  SolveOptions options;
  options.warm_start = std::vector<std::uint8_t>{1, 1};  // feasible, cost 3
  const auto solution = solve_with(model, options);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(solution.objective, 1.0);  // still finds the optimum
}

TEST(Ilp, NodeLimitReportsFeasibleOrLimit) {
  Model model;
  std::vector<VarId> vars;
  for (int i = 0; i < 30; ++i) vars.push_back(model.add_binary(1.0 + i % 3));
  for (int i = 0; i + 3 < 30; i += 2)
    model.add_sum_constraint({vars[static_cast<std::size_t>(i)],
                              vars[static_cast<std::size_t>(i + 1)],
                              vars[static_cast<std::size_t>(i + 3)]},
                             Sense::kGe, 1.0);
  SolveOptions options;
  options.max_nodes = 3;
  const auto solution = solve_with(model, options);
  EXPECT_TRUE(solution.status == SolveStatus::kFeasible ||
              solution.status == SolveStatus::kLimit ||
              solution.status == SolveStatus::kOptimal);
}

TEST(Ilp, MatchesBruteForceOnRandomModels) {
  util::Rng rng(123);
  for (int round = 0; round < 60; ++round) {
    Model model;
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    for (int i = 0; i < n; ++i)
      model.add_binary(static_cast<double>(rng.uniform_int(-5, 9)));
    const int m = static_cast<int>(rng.uniform_int(1, 6));
    for (int c = 0; c < m; ++c) {
      std::vector<Term> terms;
      for (VarId v = 0; v < n; ++v)
        if (rng.chance(0.5))
          terms.push_back({v, static_cast<double>(rng.uniform_int(-2, 3))});
      if (terms.empty()) continue;
      const auto sense = static_cast<Sense>(rng.uniform_int(0, 2));
      model.add_constraint(std::move(terms), sense,
                           static_cast<double>(rng.uniform_int(-2, 4)));
    }

    // Brute force over all assignments.
    double best = std::numeric_limits<double>::infinity();
    for (int mask = 0; mask < (1 << n); ++mask) {
      std::vector<std::uint8_t> assignment(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        assignment[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((mask >> i) & 1);
      if (model.is_feasible(assignment))
        best = std::min(best, model.objective_value(assignment));
    }

    const auto solution = solve_with(model);
    if (best == std::numeric_limits<double>::infinity()) {
      EXPECT_EQ(solution.status, SolveStatus::kInfeasible) << "round " << round;
    } else {
      ASSERT_EQ(solution.status, SolveStatus::kOptimal) << "round " << round;
      EXPECT_NEAR(solution.objective, best, 1e-9) << "round " << round;
      EXPECT_TRUE(model.is_feasible(solution.values));
    }
  }
}

// ---------------------------------------------------------------- Solver API

/// A random model family dense enough that split solves actually branch.
Model random_model(util::Rng& rng, int n) {
  Model model;
  std::vector<VarId> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(model.add_binary(static_cast<double>(rng.uniform_int(1, 9))));
  for (int i = 0; i + 4 < n; i += 2)
    model.add_sum_constraint({vars[static_cast<std::size_t>(i)],
                              vars[static_cast<std::size_t>(i + 2)],
                              vars[static_cast<std::size_t>(i + 4)]},
                             Sense::kEq, 1.0);
  for (int i = 1; i + 3 < n; i += 3)
    model.add_sum_constraint({vars[static_cast<std::size_t>(i)],
                              vars[static_cast<std::size_t>(i + 3)]},
                             Sense::kLe, 1.0);
  return model;
}

TEST(IlpSolver, SplitSolveMatchesSequentialAtEveryPoolSize) {
  util::Rng rng(41);
  for (int round = 0; round < 8; ++round) {
    const Model model = random_model(rng, 16 + 2 * round);
    SolveOptions sequential;
    sequential.split_target = 1;
    const Solution expect = solve_with(model, sequential);

    for (const int threads : {0, 2, 8}) {
      SolveOptions split;
      split.split_target = 32;
      Solver solver;
      std::optional<exec::ThreadPool> pool;
      if (threads > 0) {
        pool.emplace(threads);
        solver.set_pool(&*pool);
      }
      const Solution got = solver.solve(model, split);
      EXPECT_EQ(got.status, expect.status) << "round " << round;
      if (!expect.values.empty()) {
        EXPECT_DOUBLE_EQ(got.objective, expect.objective) << "round " << round;
        EXPECT_EQ(got.values, expect.values)
            << "round " << round << " threads " << threads;
      }
    }
  }
}

TEST(IlpSolver, NodeBudgetIsDeterministicAcrossPoolSizes) {
  util::Rng rng(99);
  const Model model = random_model(rng, 26);
  SolveOptions options;
  options.node_budget = 60;  // small enough to truncate the search

  std::optional<Solution> reference;
  for (const int threads : {0, 2, 8}) {
    Solver solver;
    std::optional<exec::ThreadPool> pool;
    if (threads > 0) {
      pool.emplace(threads);
      solver.set_pool(&*pool);
    }
    const Solution got = solver.solve(model, options);
    if (!reference) {
      reference = got;
      continue;
    }
    EXPECT_EQ(got.status, reference->status) << "threads " << threads;
    EXPECT_EQ(got.values, reference->values) << "threads " << threads;
    EXPECT_EQ(got.nodes_explored, reference->nodes_explored)
        << "threads " << threads;
    EXPECT_EQ(got.limit_hit, reference->limit_hit) << "threads " << threads;
  }
}

TEST(IlpSolver, LimitHitFlagSetOnTruncatedSearch) {
  util::Rng rng(31);
  const Model model = random_model(rng, 30);
  SolveOptions options;
  options.node_budget = 2;
  const Solution solution = solve_with(model, options);
  EXPECT_TRUE(solution.limit_hit);

  const Solution full = solve_with(model);
  EXPECT_FALSE(full.limit_hit);
}

}  // namespace
}  // namespace mebl::ilp
