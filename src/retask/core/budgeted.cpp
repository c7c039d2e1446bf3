#include "retask/core/budgeted.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "retask/cache/energy_memo.hpp"
#include "retask/cache/scratch.hpp"
#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

Cycles cycle_capacity(const BudgetedProblem& problem) {
  return static_cast<Cycles>(
      std::floor(problem.curve.max_workload() / problem.work_per_cycle * (1.0 + 1e-12) + 1e-9));
}

double energy_of(const BudgetedProblem& problem, Cycles cycles) {
  return problem.curve.energy(problem.work_per_cycle * static_cast<double>(cycles));
}

/// Largest cycle count whose energy fits the budget (E is increasing).
/// `energy` must return energy_of(problem, cycles) bits; the sweep entry
/// point passes a memoized wrapper, which preserves the search because the
/// memo replays exact values.
template <typename EnergyFn>
Cycles budget_cycle_cap_impl(const BudgetedProblem& problem, const EnergyFn& energy) {
  Cycles lo = 0;
  Cycles hi = std::min(cycle_capacity(problem), problem.tasks.total_cycles());
  if (!leq_tol(energy(Cycles{0}), problem.energy_budget)) return -1;
  while (lo < hi) {
    const Cycles mid = lo + (hi - lo + 1) / 2;
    if (leq_tol(energy(mid), problem.energy_budget)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

Cycles budget_cycle_cap(const BudgetedProblem& problem) {
  return budget_cycle_cap_impl(problem, [&](Cycles c) { return energy_of(problem, c); });
}

/// Knapsack-over-cycles fill into the scratch arena: the exact DP's table
/// (one dp_fill lane, core/dp_table.hpp), including the prefix property
/// that makes one fill at the largest cap serve every smaller cap
/// bit-identically.
void fill_budgeted_table(const BudgetedProblem& problem, Cycles cap, DpScratch& scratch) {
  const DpFillLane lane{problem.tasks.tasks().data(), static_cast<std::size_t>(cap)};
  dp_fill(scratch, problem.tasks.size(), &lane, 1);
}

/// Reads the best accept set for cycle cap `cap` off a table filled at
/// capacity >= cap. Only rows <= cap are touched, so a table filled at a
/// larger capacity yields bit-identical results.
BudgetedSolution select_budgeted(const BudgetedProblem& problem, Cycles cap,
                                 const DpScratch& scratch) {
  // First row attaining the maximum kept value (strict-improvement scan);
  // kNpos means nothing beats the empty accept set.
  const std::size_t hit =
      simd::kernels().argmax_f64(scratch.value.data(), static_cast<std::size_t>(cap) + 1, 0.0);
  const std::size_t best_w = hit == simd::kNpos ? 0 : hit;

  std::vector<bool> accepted;
  dp_backtrack(scratch.take, 0, problem.tasks.tasks().data(), problem.tasks.size(), best_w,
               accepted);
  return make_budgeted_solution(problem, std::move(accepted));
}

std::vector<std::size_t> by_density_desc(const BudgetedProblem& problem) {
  std::vector<std::size_t> order(problem.tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const FrameTask& ta = problem.tasks[a];
    const FrameTask& tb = problem.tasks[b];
    return ta.penalty * static_cast<double>(tb.cycles) >
           tb.penalty * static_cast<double>(ta.cycles);
  });
  return order;
}

}  // namespace

void validate(const BudgetedProblem& problem) {
  require(problem.work_per_cycle > 0.0, "BudgetedProblem: work_per_cycle must be positive");
  require(problem.energy_budget > 0.0, "BudgetedProblem: energy budget must be positive");
}

BudgetedSolution make_budgeted_solution(const BudgetedProblem& problem,
                                        std::vector<bool> accepted) {
  validate(problem);
  require(accepted.size() == problem.tasks.size(),
          "make_budgeted_solution: accept mask size mismatch");
  Cycles cycles = 0;
  double value = 0.0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (accepted[i]) {
      cycles += problem.tasks[i].cycles;
      value += problem.tasks[i].penalty;
    }
  }
  require(cycles <= cycle_capacity(problem), "make_budgeted_solution: capacity exceeded");
  const double energy = energy_of(problem, cycles);
  require(leq_tol(energy, problem.energy_budget), "make_budgeted_solution: budget exceeded");

  BudgetedSolution solution;
  solution.accepted = std::move(accepted);
  solution.value = value;
  solution.energy = energy;
  return solution;
}

BudgetedSolution solve_budgeted_dp(const BudgetedProblem& problem) {
  validate(problem);
  const Cycles cap = budget_cycle_cap(problem);
  require(cap >= 0, "solve_budgeted_dp: even an empty accept set exceeds the budget");
  DpScratch& scratch = budgeted_scratch();
  fill_budgeted_table(problem, cap, scratch);
  return select_budgeted(problem, cap, scratch);
}

std::vector<BudgetedSolution> solve_budgeted_dp_sweep(const BudgetedProblem& problem,
                                                      const std::vector<double>& budgets) {
  if (budgets.empty()) return {};

  // One memo serves every budget's binary search: the curve and
  // work_per_cycle are fixed across the sweep, only the budget threshold
  // moves, so the searches probe overlapping cycle counts.
  EnergyMemo memo;
  const auto memo_energy = [&](Cycles c) {
    return memo.get_or_compute(c, [&](Cycles cc) { return energy_of(problem, cc); });
  };

  BudgetedProblem local = problem;
  std::vector<Cycles> caps(budgets.size());
  Cycles max_cap = 0;
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    local.energy_budget = budgets[b];
    validate(local);
    caps[b] = budget_cycle_cap_impl(local, memo_energy);
    require(caps[b] >= 0,
            "solve_budgeted_dp_sweep: even an empty accept set exceeds a budget");
    max_cap = std::max(max_cap, caps[b]);
  }

  // One fill at the largest budget's cycle cap; each budget's answer is the
  // value sweep over its own prefix of the shared table.
  DpScratch& scratch = budgeted_scratch();
  fill_budgeted_table(problem, max_cap, scratch);
  RETASK_COUNT("dp.warm_starts", budgets.size() - 1);

  std::vector<BudgetedSolution> solutions;
  solutions.reserve(budgets.size());
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    local.energy_budget = budgets[b];
    solutions.push_back(select_budgeted(local, caps[b], scratch));
  }
  return solutions;
}

BudgetedSolution solve_budgeted_greedy(const BudgetedProblem& problem) {
  validate(problem);
  const Cycles cap = budget_cycle_cap(problem);
  require(cap >= 0, "solve_budgeted_greedy: even an empty accept set exceeds the budget");
  std::vector<bool> accepted(problem.tasks.size(), false);
  Cycles load = 0;
  for (const std::size_t i : by_density_desc(problem)) {
    const Cycles c = problem.tasks[i].cycles;
    if (load + c <= cap) {
      accepted[i] = true;
      load += c;
    }
  }
  return make_budgeted_solution(problem, std::move(accepted));
}

double budgeted_fractional_upper_bound(const BudgetedProblem& problem) {
  validate(problem);
  const Cycles cap = budget_cycle_cap(problem);
  require(cap >= 0, "budgeted_fractional_upper_bound: budget below the idle energy");
  double remaining = static_cast<double>(cap);
  double value = 0.0;
  for (const std::size_t i : by_density_desc(problem)) {
    if (remaining <= 0.0) break;
    const FrameTask& task = problem.tasks[i];
    const double used = std::min(remaining, static_cast<double>(task.cycles));
    value += task.penalty * used / static_cast<double>(task.cycles);
    remaining -= used;
  }
  return value;
}

}  // namespace retask
