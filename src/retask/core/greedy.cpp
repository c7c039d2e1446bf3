#include "retask/core/greedy.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {

namespace {

/// Indices sorted by increasing penalty density rho_i / c_i (cheapest
/// rejection per saved cycle first); ties by index for determinism.
std::vector<std::size_t> density_order(const RejectionProblem& problem) {
  std::vector<std::size_t> order(problem.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const FrameTask& ta = problem.tasks()[a];
    const FrameTask& tb = problem.tasks()[b];
    return ta.penalty * static_cast<double>(tb.cycles) <
           tb.penalty * static_cast<double>(ta.cycles);
  });
  return order;
}

/// Rejects tasks from `accepted` in `order` until the load fits one
/// processor. Returns the remaining accepted cycle load.
Cycles reject_until_feasible(const RejectionProblem& problem,
                             const std::vector<std::size_t>& order, std::vector<bool>& accepted) {
  Cycles load = problem.accepted_cycles(accepted);
  for (const std::size_t i : order) {
    if (load <= problem.cycle_capacity()) break;
    if (accepted[i]) {
      accepted[i] = false;
      load -= problem.tasks()[i].cycles;
    }
  }
  require(load <= problem.cycle_capacity(),
          "reject_until_feasible: instance infeasible even with every task rejected");
  return load;
}

}  // namespace

std::vector<bool> density_greedy_accepted(const RejectionProblem& problem) {
  const std::vector<std::size_t> order = density_order(problem);
  std::vector<bool> accepted(problem.size(), true);
  Cycles load = reject_until_feasible(problem, order, accepted);
  RETASK_COUNT("greedy.density_solves", 1);

  // One pass over the remaining tasks in density order: reject whenever the
  // exact energy saving at the current load beats the penalty.
  RETASK_OBS_ONLY(std::uint64_t rejections = 0;)
  for (const std::size_t i : order) {
    if (!accepted[i]) continue;
    const FrameTask& task = problem.tasks()[i];
    const double saving =
        problem.energy_of_cycles(load) - problem.energy_of_cycles(load - task.cycles);
    if (saving > task.penalty) {
      accepted[i] = false;
      load -= task.cycles;
      RETASK_OBS_ONLY(++rejections;)
    }
  }
  RETASK_COUNT("greedy.density_rejections", rejections);
  return accepted;
}

RejectionSolution AllAcceptSolver::solve(const RejectionProblem& problem) const {
  require(problem.processor_count() == 1, "AllAcceptSolver: single-processor algorithm");
  std::vector<bool> accepted(problem.size(), true);
  reject_until_feasible(problem, density_order(problem), accepted);
  return make_solution_on_one(problem, std::move(accepted));
}

RejectionSolution DensityGreedySolver::solve(const RejectionProblem& problem) const {
  RETASK_SCOPED_TIMER("greedy.density_solve_ns");
  require(problem.processor_count() == 1, "DensityGreedySolver: single-processor algorithm");
  return make_solution_on_one(problem, density_greedy_accepted(problem));
}

RejectionSolution MarginalGreedySolver::solve(const RejectionProblem& problem) const {
  RETASK_SCOPED_TIMER("greedy.marginal_solve_ns");
  require(problem.processor_count() == 1, "MarginalGreedySolver: single-processor algorithm");

  // Seed with the density-greedy solution, then steepest-descent over flips.
  std::vector<bool> accepted = density_greedy_accepted(problem);
  Cycles load = problem.accepted_cycles(accepted);
  RETASK_COUNT("greedy.marginal_solves", 1);

  const std::size_t n = problem.size();
  const std::size_t max_moves = 4 * n * n + 16;
  RETASK_OBS_ONLY(std::uint64_t moves_made = 0;)
  for (std::size_t move = 0; move < max_moves; ++move) {
    // Recompute the objective from the current state each round: an
    // incrementally accumulated objective drifts across many flips, and the
    // strict-improvement threshold below is what prevents cycling.
    const double energy_at_load = problem.energy_of_cycles(load);
    const double objective = energy_at_load + problem.rejected_penalty(accepted);

    // Steepest descent: the first flip whose objective change is below the
    // threshold and every earlier flip's (strict <, so ties go to the lower
    // index). A re-accept that does not fit is no flip at all.
    double best_delta = -1e-12 * std::max(objective, 1.0);  // strict improvement only
    std::size_t best_index = n;
    for (std::size_t i = 0; i < n; ++i) {
      const FrameTask& task = problem.tasks()[i];
      double delta = 0.0;
      if (accepted[i]) {
        // Reject i: pay penalty, save energy.
        delta = task.penalty - (energy_at_load - problem.energy_of_cycles(load - task.cycles));
      } else if (load + task.cycles <= problem.cycle_capacity()) {
        // Re-accept i: save penalty, pay energy.
        delta = (problem.energy_of_cycles(load + task.cycles) - energy_at_load) - task.penalty;
      } else {
        continue;
      }
      if (delta < best_delta) {
        best_delta = delta;
        best_index = i;
      }
    }
    if (best_index == n) break;
    RETASK_OBS_ONLY(++moves_made;)
    if (accepted[best_index]) {
      accepted[best_index] = false;
      load -= problem.tasks()[best_index].cycles;
    } else {
      accepted[best_index] = true;
      load += problem.tasks()[best_index].cycles;
    }
  }
  RETASK_COUNT("greedy.local_search_moves", moves_made);
  return make_solution_on_one(problem, std::move(accepted));
}

RejectionSolution RandomRejectSolver::solve(const RejectionProblem& problem) const {
  require(problem.processor_count() == 1, "RandomRejectSolver: single-processor algorithm");
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (problem.size() + 1)));
  std::vector<bool> accepted(problem.size(), true);
  Cycles load = problem.accepted_cycles(accepted);

  std::vector<std::size_t> candidates(problem.size());
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  rng.shuffle(candidates);
  for (const std::size_t i : candidates) {
    if (load <= problem.cycle_capacity()) break;
    accepted[i] = false;
    load -= problem.tasks()[i].cycles;
  }
  require(load <= problem.cycle_capacity(),
          "RandomRejectSolver: instance infeasible even with every task rejected");
  return make_solution_on_one(problem, std::move(accepted));
}

}  // namespace retask
