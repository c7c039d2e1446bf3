#include "retask/core/exact_dp.hpp"

#include <algorithm>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/obs/trace.hpp"

namespace retask {
namespace {

/// Fills the knapsack table for `problem`'s task set at capacity `cap` into
/// the scratch arena and takes its staircase (see core/dp_table.hpp for the
/// table and the prefix property the sweep entry point exploits). Each fill
/// counts one path: exact_dp.list_fills when the list phase finished it, else
/// the reason it handed off.
void fill_table(const RejectionProblem& problem, Cycles cap, DpScratch& scratch) {
  [[maybe_unused]] const DpFillCounts counts = dp_fill(
      scratch, problem.tasks().tasks().data(), problem.size(), static_cast<std::size_t>(cap));
  RETASK_COUNT("exact_dp.cells_touched", counts.cells_touched);
  RETASK_COUNT("exact_dp.cells_skipped", counts.cells_skipped);
  RETASK_COUNT("exact_dp.tasks_pruned", counts.tasks_pruned);
  RETASK_COUNT("exact_dp.list_entries", counts.list_entries);
  RETASK_COUNT("exact_dp.list_fills", counts.handoff == DpHandoff::kNone);
  RETASK_COUNT("exact_dp.fallback.list_outgrew_reach",
               counts.handoff == DpHandoff::kListOutgrewReach);
  RETASK_COUNT("exact_dp.fallback.mask_width", counts.handoff == DpHandoff::kMaskWidth);
  RETASK_RECORD("exact_dp.table_width", cap + 1);
}

/// Reads the best solution for `problem` off a table filled at capacity
/// >= `cap`: the staircase walk over the records w <= cap, then the
/// choice-bit backtrack. Only rows <= cap are read, so a table filled at a
/// larger capacity yields bit-identical results.
RejectionSolution select_best(const RejectionProblem& problem, Cycles cap,
                              const DpScratch& scratch) {
  const DpPick pick =
      dp_select(scratch.stairs, static_cast<std::size_t>(cap), problem.tasks().total_penalty(),
                [&problem](Cycles w) { return problem.energy_of_cycles(w); });
  RETASK_COUNT("exact_dp.energy_evals", pick.energy_evals);

  std::vector<bool> accepted;
  dp_backtrack(scratch, problem.tasks().tasks().data(), problem.size(), pick.best_w, accepted);
  return make_solution_on_one(problem, std::move(accepted));
}

}  // namespace

RejectionSolution ExactDpSolver::solve(const RejectionProblem& problem) const {
  RETASK_SCOPED_TIMER("exact_dp.solve_ns");
  RETASK_TRACE_SCOPE("exact_dp.solve");
  const Cycles cap = dp_fill_capacity(problem);
  DpScratch& scratch = dp_scratch();
  fill_table(problem, cap, scratch);
  RETASK_COUNT("exact_dp.solves", 1);
  return select_best(problem, cap, scratch);
}

std::vector<RejectionSolution> ExactDpSolver::solve_sweep(
    const std::vector<const RejectionProblem*>& points) const {
  if (points.empty()) return {};

  // The warm start requires every point to share the task set (the table is
  // a function of nothing else); a mixed sweep falls back to per-point
  // solves so callers never have to pre-check.
  bool shared_tasks = true;
  for (std::size_t p = 1; p < points.size() && shared_tasks; ++p) {
    shared_tasks = same_task_sets(points[0]->tasks(), points[p]->tasks());
  }
  if (!shared_tasks || points.size() == 1) {
    RETASK_COUNT("dp.sweep_fallbacks", shared_tasks ? 0 : 1);
    return RejectionSolver::solve_sweep(points);
  }

  RETASK_SCOPED_TIMER("exact_dp.solve_sweep_ns");
  RETASK_TRACE_SCOPE("exact_dp.solve_sweep");
  std::vector<Cycles> caps(points.size());
  Cycles max_cap = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    caps[p] = dp_fill_capacity(*points[p]);
    max_cap = std::max(max_cap, caps[p]);
  }

  // One fill and one staircase at the largest capacity; every point reads its
  // answer off the shared prefix (the prefix property in core/dp_table.hpp).
  DpScratch& scratch = dp_scratch();
  fill_table(*points[0], max_cap, scratch);
  RETASK_COUNT("exact_dp.solves", 1);
  RETASK_COUNT("dp.warm_starts", points.size() - 1);

  std::vector<RejectionSolution> solutions;
  solutions.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    solutions.push_back(select_best(*points[p], caps[p], scratch));
  }
  return solutions;
}

}  // namespace retask
