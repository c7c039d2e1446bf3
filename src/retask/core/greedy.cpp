#include "retask/core/greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/simd/kernels.hpp"

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
  GreedyScratch& scratch = greedy_scratch();
  const simd::KernelTable& kernels = simd::kernels();
  RETASK_OBS_ONLY(std::uint64_t moves_made = 0;)
  for (std::size_t move = 0; move < max_moves; ++move) {
    // Recompute the objective from the current state each round: an
    // incrementally accumulated objective drifts across many flips, and the
    // strict-improvement threshold below is what prevents cycling.
    const double energy_at_load = problem.energy_of_cycles(load);
    const double objective = energy_at_load + problem.rejected_penalty(accepted);

    // Probe loads of every feasible flip (structure-of-arrays), batched
    // through the fused energy kernel; infeasible re-accepts keep an +inf
    // delta so the argmin scan never picks them — the exact effect of the
    // old `continue`. E is pure, so hoisting E(load) out of the flip loop
    // and batching the probes changes which call sites evaluate energies,
    // never a produced bit.
    std::vector<Cycles>& eval_cycles = scratch.eval_cycles;
    std::vector<double>& eval_energy = scratch.eval_energy;
    std::vector<double>& delta = scratch.delta;
    eval_cycles.clear();
    delta.assign(n, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
      const FrameTask& task = problem.tasks()[i];
      if (accepted[i]) {
        eval_cycles.push_back(load - task.cycles);
      } else if (load + task.cycles <= problem.cycle_capacity()) {
        eval_cycles.push_back(load + task.cycles);
      }
    }
    eval_energy.resize(eval_cycles.size());
    problem.energy_of_cycles_batch(eval_cycles.data(), eval_energy.data(), eval_cycles.size());
    std::size_t probe = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const FrameTask& task = problem.tasks()[i];
      if (accepted[i]) {
        // Reject i: pay penalty, save energy.
        delta[i] = task.penalty - (energy_at_load - eval_energy[probe++]);
      } else if (load + task.cycles <= problem.cycle_capacity()) {
        // Re-accept i when it fits: save penalty, pay energy.
        delta[i] = (eval_energy[probe++] - energy_at_load) - task.penalty;
      }
    }

    const double threshold = -1e-12 * std::max(objective, 1.0);  // strict improvement only
    const std::size_t best_index = kernels.argmin_f64(delta.data(), n, threshold);
    if (best_index == simd::kNpos) break;
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
