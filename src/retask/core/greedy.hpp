// Heuristic and baseline algorithms for single-processor task rejection.
//
// These are the "heuristic algorithms" half of the paper's contribution:
// * AllAcceptSolver   — the conservative baseline: keep everything, reject
//                       only what must go to regain feasibility.
// * DensityGreedySolver — one pass over tasks in increasing penalty density
//                       rho_i / c_i: cheap-per-cycle tasks are rejected
//                       whenever the exact energy saving exceeds the
//                       penalty; the natural O(n log n) heuristic.
// * MarginalGreedySolver — steepest-descent local search over single flips
//                       (reject an accepted task / re-accept a rejected
//                       one), seeded with the density-greedy solution.
// * RandomRejectSolver — the RAND-style reference baseline: rejects
//                       uniformly random tasks until feasible, with no
//                       objective awareness.
#ifndef RETASK_CORE_GREEDY_HPP
#define RETASK_CORE_GREEDY_HPP

#include <cstdint>
#include <vector>

#include "retask/core/solver.hpp"

namespace retask {

/// The density greedy's accept mask for a single-processor `problem`,
/// outside any solve timer: DensityGreedySolver's pass, and the seed of
/// MarginalGreedySolver and FptasSolver, whose own timers therefore never
/// nest greedy.density_solve_ns. Counts greedy.density_solves and
/// greedy.density_rejections.
std::vector<bool> density_greedy_accepted(const RejectionProblem& problem);

/// Accept-everything baseline; rejects in increasing penalty density only
/// while the instance is infeasible.
class AllAcceptSolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "ALL-ACCEPT"; }
};

/// Single-pass greedy over increasing penalty density with exact marginal
/// energy evaluation.
class DensityGreedySolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "GREEDY"; }
};

/// Local search over single accept/reject flips (steepest descent). The
/// iteration budget is quadratic in n, which in practice is never reached:
/// each move strictly lowers the objective.
class MarginalGreedySolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "LS-GREEDY"; }
};

/// Random rejection until feasible; deterministic for a fixed seed.
class RandomRejectSolver final : public RejectionSolver {
 public:
  explicit RandomRejectSolver(std::uint64_t seed = 1) : seed_(seed) {}
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "RAND"; }

 private:
  std::uint64_t seed_;
};

}  // namespace retask

#endif  // RETASK_CORE_GREEDY_HPP
