// Energy-budgeted acceptance: the dual of the rejection problem.
//
// Instead of minimizing energy + rejection penalties, a battery-constrained
// system maximizes the value of the work it accepts under a hard energy
// budget:
//
//     maximize  sum of accepted values
//     s.t.      E(accepted work) <= budget,  accepted work <= smax * D.
//
// The two formulations share their machinery (the same energy curve and the
// same knapsack-over-cycles table); the budgeted DP is exact and
// pseudo-polynomial, the density greedy is the fast heuristic, and the
// fractional relaxation gives the venue-standard upper bound for
// normalizing large instances. Tasks reuse FrameTask with `penalty` read as
// the task's VALUE.
#ifndef RETASK_CORE_BUDGETED_HPP
#define RETASK_CORE_BUDGETED_HPP

#include <vector>

#include "retask/power/energy_curve.hpp"
#include "retask/task/task_set.hpp"

namespace retask {

/// A budgeted-acceptance instance.
struct BudgetedProblem {
  FrameTaskSet tasks;  ///< FrameTask::penalty is the task's value
  EnergyCurve curve;
  double work_per_cycle = 1.0;
  double energy_budget = 0.0;
};

/// Validates the instance (positive budget and scale); throws retask::Error.
void validate(const BudgetedProblem& problem);

/// A validated accept set with its value/energy bookkeeping.
struct BudgetedSolution {
  std::vector<bool> accepted;
  double value = 0.0;
  double energy = 0.0;
};

/// Builds and validates a solution (recomputes value and energy; throws when
/// the accept set violates the capacity or the budget).
BudgetedSolution make_budgeted_solution(const BudgetedProblem& problem,
                                        std::vector<bool> accepted);

/// Exact pseudo-polynomial DP, O(n * Wcap).
BudgetedSolution solve_budgeted_dp(const BudgetedProblem& problem);

/// Exact DP at every budget of a sweep over one instance. The knapsack table
/// is filled once at the largest budget's cycle cap and each budget's answer
/// is read off the shared prefix. Bit-identical to calling solve_budgeted_dp
/// with energy_budget = b for each b, in order. `problem.energy_budget` is
/// ignored; every entry of `budgets` must be positive.
std::vector<BudgetedSolution> solve_budgeted_dp_sweep(const BudgetedProblem& problem,
                                                      const std::vector<double>& budgets);

/// Density greedy: accept in decreasing value per cycle while the budget and
/// capacity hold.
BudgetedSolution solve_budgeted_greedy(const BudgetedProblem& problem);

/// Fractional upper bound on the achievable value (continuous relaxation:
/// tasks divisible; valid for normalization of large instances — needs only
/// an increasing energy curve).
double budgeted_fractional_upper_bound(const BudgetedProblem& problem);

}  // namespace retask

#endif  // RETASK_CORE_BUDGETED_HPP
