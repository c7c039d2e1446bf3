#include "retask/core/multiproc.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/sched/partition.hpp"

namespace retask {
namespace {

std::vector<std::size_t> by_descending_cycles(const RejectionProblem& problem) {
  std::vector<std::size_t> order(problem.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.tasks()[a].cycles > problem.tasks()[b].cycles;
  });
  return order;
}

}  // namespace

RejectionSolution MultiProcLtfRejectSolver::solve(const RejectionProblem& problem) const {
  const auto m = static_cast<std::size_t>(problem.processor_count());

  // Largest-Task-First pre-partition of every task (rejection comes later).
  std::vector<double> weights(problem.size());
  for (std::size_t i = 0; i < problem.size(); ++i) {
    weights[i] = static_cast<double>(problem.tasks()[i].cycles);
  }
  const Partition partition = partition_items(weights, problem.processor_count(),
                                              PartitionPolicy::kLargestFirst);

  // Bucket the task indices by bin in one pass (index order preserved per
  // bin, the order the per-bin scan used to produce).
  std::vector<std::vector<std::size_t>> bin_tasks(m);
  for (std::size_t i = 0; i < problem.size(); ++i) {
    if (partition.bin_of[i] >= 0) {
      bin_tasks[static_cast<std::size_t>(partition.bin_of[i])].push_back(i);
    }
  }

  // Optimal rejection per processor via the exact DP on the subproblem.
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);
  const ExactDpSolver dp;
  for (std::size_t p = 0; p < m; ++p) {
    if (bin_tasks[p].empty()) continue;
    std::vector<FrameTask> local;
    local.reserve(bin_tasks[p].size());
    for (const std::size_t i : bin_tasks[p]) local.push_back(problem.tasks()[i]);
    const RejectionProblem sub(FrameTaskSet(std::move(local)), problem.curve(),
                               problem.work_per_cycle(), 1);
    const RejectionSolution sub_solution = dp.solve(sub);
    for (std::size_t k = 0; k < bin_tasks[p].size(); ++k) {
      if (sub_solution.accepted[k]) {
        accepted[bin_tasks[p][k]] = true;
        processor_of[bin_tasks[p][k]] = static_cast<int>(p);
      }
    }
  }
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

RejectionSolution MultiProcGreedySolver::solve(const RejectionProblem& problem) const {
  const auto m = static_cast<std::size_t>(problem.processor_count());
  std::vector<Cycles> loads(m, 0);
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);

  // The placement and improvement passes probe E(load_p) for every task
  // until load_p changes; one closed-form evaluation costs about as much as
  // a memo hit, so every probe evaluates.
  std::uint64_t probe_evals = 0;
  const auto energy_at = [&](Cycles cycles) {
    ++probe_evals;
    return problem.curve().energy(problem.work_per_cycle() * static_cast<double>(cycles));
  };

  // Greedy placement in descending size: cheapest of {reject, best proc}.
  for (const std::size_t i : by_descending_cycles(problem)) {
    const FrameTask& task = problem.tasks()[i];
    double best_cost = task.penalty;
    int best_proc = -1;
    for (std::size_t p = 0; p < m; ++p) {
      if (loads[p] + task.cycles > problem.cycle_capacity()) continue;
      const double delta = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
      if (delta < best_cost) {
        best_cost = delta;
        best_proc = static_cast<int>(p);
      }
    }
    if (best_proc >= 0) {
      accepted[i] = true;
      processor_of[i] = best_proc;
      loads[static_cast<std::size_t>(best_proc)] += task.cycles;
    }
  }

  // Improvement passes: re-place each task where it is cheapest now.
  std::uint64_t moves_applied = 0;
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      const FrameTask& task = problem.tasks()[i];
      // Remove i from its current location.
      double current_cost = task.penalty;
      if (accepted[i]) {
        const auto p = static_cast<std::size_t>(processor_of[i]);
        loads[p] -= task.cycles;
        current_cost = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
      }
      double best_cost = task.penalty;
      int best_proc = -1;
      for (std::size_t p = 0; p < m; ++p) {
        if (loads[p] + task.cycles > problem.cycle_capacity()) continue;
        const double delta = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
        if (delta < best_cost) {
          best_cost = delta;
          best_proc = static_cast<int>(p);
        }
      }
      if (best_cost + 1e-12 < current_cost) {
        changed = true;
        ++moves_applied;
      }
      accepted[i] = best_proc >= 0;
      processor_of[i] = best_proc;
      if (best_proc >= 0) loads[static_cast<std::size_t>(best_proc)] += task.cycles;
    }
    if (!changed) break;
  }
  RETASK_COUNT("mp.probe_evals", probe_evals);
  RETASK_COUNT("mp.moves_applied", moves_applied);
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

RejectionSolution MultiProcRandSolver::solve(const RejectionProblem& problem) const {
  const auto m = static_cast<std::size_t>(problem.processor_count());
  std::vector<Cycles> loads(m, 0);
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);

  for (std::size_t i = 0; i < problem.size(); ++i) {
    const FrameTask& task = problem.tasks()[i];
    const auto lightest = std::min_element(loads.begin(), loads.end());
    const auto p = static_cast<std::size_t>(lightest - loads.begin());
    if (loads[p] + task.cycles <= problem.cycle_capacity()) {
      accepted[i] = true;
      processor_of[i] = static_cast<int>(p);
      loads[p] += task.cycles;
    }
  }
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

}  // namespace retask
