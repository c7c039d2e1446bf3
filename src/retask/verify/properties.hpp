// Property registry for differential solver verification.
//
// The paper's contribution is the measured gap between heuristics (Greedy,
// FPTAS) and the exact optimum, so a solver that silently returns a wrong
// objective corrupts every downstream table. This module states, once, what
// each solver's output must satisfy and checks a whole lineup against one
// instance:
//
//   * structural   — the solution revalidates (check_solution) and its
//                    energy/penalty split matches an independent
//                    recomputation from the accept mask and bindings;
//   * exact-match  — solvers claiming exactness (opt-dp, opt-exh,
//                    mp-opt-exh) agree with the best exact objective;
//   * approx-bound — the FPTAS objective is within its (1+eps) factor of
//                    the exact optimum;
//   * no-regression— no validated solution beats the claimed optimum (a
//                    heuristic "better than optimal" means the exact solver
//                    is wrong, which pairwise exact checks alone can miss).
//
// The fuzz driver (verify/differential.hpp) runs these checks over random
// scenario sweeps; tests run them on fixed instances.
#ifndef RETASK_VERIFY_PROPERTIES_HPP
#define RETASK_VERIFY_PROPERTIES_HPP

#include <memory>
#include <string>
#include <vector>

#include "retask/core/solver.hpp"

namespace retask {

/// How strong a solver's optimality claim is; selects the differential
/// properties applied to its output.
enum class SolverClaim {
  kExact,      ///< must match the best exact objective (up to kObjectiveTol)
  kApprox,     ///< objective <= approx_factor * optimum
  kHeuristic,  ///< structural checks only, plus the no-regression bound
};

/// One solver wired into the verification lineup.
struct SolverUnderTest {
  std::string name;  ///< registry name (reproducible via make_solver)
  std::shared_ptr<const RejectionSolver> solver;
  SolverClaim claim = SolverClaim::kHeuristic;
  double approx_factor = 1.0;  ///< kApprox: allowed objective / optimum
};

/// One failed property on one instance.
struct PropertyViolation {
  std::string property;  ///< "solve-error", "structural", "exact-match", ...
  std::string solver;    ///< offending solver's registry name
  std::string detail;    ///< human-readable evidence (objectives, bounds)
};

/// Relative tolerance for cross-solver objective comparisons. Looser than
/// kRelTol: objectives are floating-point sums of energies, so independent
/// solve paths legitimately differ in the last bits.
inline constexpr double kObjectiveTol = 1e-7;

/// The standard lineup for an instance with `processor_count` processors:
/// single-processor instances get the exact DP + exhaustive oracle + two
/// FPTAS settings + both greedies + both baselines; multiprocessor ones get
/// the exhaustive oracle + every mp-capable heuristic. Built from
/// known_solver_names() so newly registered solvers join automatically.
std::vector<SolverUnderTest> default_suite(int processor_count);

/// A deliberately wrong solver — the exact DP run against a capacity one
/// cycle short — used to prove the harness catches real bugs (tests and
/// retask_fuzz --inject-broken). It claims kExact but is suboptimal on any
/// instance whose optimum uses the full capacity.
SolverUnderTest broken_capacity_solver();

/// Runs every solver in `suite` on `problem` and checks all applicable
/// properties. Returns the (possibly empty) list of violations; never
/// throws on solver misbehavior — solver exceptions become "solve-error"
/// violations.
std::vector<PropertyViolation> check_instance(const RejectionProblem& problem,
                                              const std::vector<SolverUnderTest>& suite);

/// One-line rendering "property/solver: detail" for logs and test output.
std::string to_string(const PropertyViolation& violation);

}  // namespace retask

#endif  // RETASK_VERIFY_PROPERTIES_HPP
