#pragma once

#include <string>
#include <vector>

namespace mebl::ilp {

using VarId = std::int32_t;

/// Comparison sense of a linear constraint.
enum class Sense { kLe, kGe, kEq };

/// One term of a linear expression: coeff * x_var.
struct Term {
  VarId var;
  double coeff;
};

/// A linear constraint: sum(terms) (sense) rhs.
struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// 0/1 integer linear program (minimization). This is the model interface
/// the track-assignment ILP of the paper (eqs. 5-9) is built against; the
/// exact branch-and-bound ilp::Solver (solver.hpp) replaces CPLEX.
class Model {
 public:
  /// Add a binary decision variable with the given objective coefficient.
  VarId add_binary(double objective_coeff, std::string name = {});

  /// Add a linear constraint over previously created variables.
  void add_constraint(std::vector<Term> terms, Sense sense, double rhs);

  /// Convenience: sum of vars (unit coefficients) (sense) rhs.
  void add_sum_constraint(const std::vector<VarId>& vars, Sense sense,
                          double rhs);

  [[nodiscard]] std::size_t num_vars() const noexcept { return obj_.size(); }
  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return constraints_.size();
  }
  [[nodiscard]] double objective_coeff(VarId v) const {
    return obj_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const std::string& var_name(VarId v) const {
    return names_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  /// Evaluate the objective for a full assignment.
  [[nodiscard]] double objective_value(
      const std::vector<std::uint8_t>& assignment) const;

  /// Check a full assignment against every constraint (for tests and for
  /// validating incumbents).
  [[nodiscard]] bool is_feasible(
      const std::vector<std::uint8_t>& assignment) const;

 private:
  std::vector<double> obj_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
};

}  // namespace mebl::ilp
