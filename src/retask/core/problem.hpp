// The task-rejection scheduling problem.
//
// Given frame-based tasks with worst-case cycles and rejection penalties, M
// identical DVS processors whose energy behaviour over the frame is captured
// by one EnergyCurve, choose an accept set, a partition of the accepted
// tasks onto the processors, and (implicitly, through the curve) execution
// speeds, minimizing
//
//     sum over processors of E(assigned work) + sum of rejected penalties.
//
// The bounded top speed makes the feasibility constraint real: a processor
// can carry at most smax * D work, so overloaded instances force rejections.
// The problem is NP-hard already on one processor: with a linear energy
// curve E(W) = e * W it reads "choose the rejected set R maximizing saved
// energy e * W(R) minus paid penalty rho(R) subject to the knapsack-style
// capacity W(T) - W(R) <= Wmax", i.e. 0/1 knapsack; convex E only
// generalizes it (hardness analysis is the paper's first deliverable).
#ifndef RETASK_CORE_PROBLEM_HPP
#define RETASK_CORE_PROBLEM_HPP

#include <memory>
#include <vector>

#include "retask/cache/energy_memo.hpp"
#include "retask/power/energy_curve.hpp"
#include "retask/task/task_set.hpp"

namespace retask {

/// Largest per-processor cycle load that fits `curve`'s window at top speed
/// for the given cycle scale — the capacity RejectionProblem computes at
/// construction, exposed so task-set-free callers (the serve-mode delta
/// solver sizes its retained DP table before any task exists) derive the
/// same bits.
Cycles cycle_capacity_for(const EnergyCurve& curve, double work_per_cycle);

/// An instance of the rejection-scheduling problem.
class RejectionProblem {
 public:
  /// `work_per_cycle` converts task cycles into the curve's work units
  /// (speed x time); it must be positive. `processor_count` identical
  /// processors each follow `curve`.
  RejectionProblem(FrameTaskSet tasks, EnergyCurve curve, double work_per_cycle,
                   int processor_count = 1);

  const FrameTaskSet& tasks() const { return tasks_; }
  const EnergyCurve& curve() const { return curve_; }
  double work_per_cycle() const { return work_per_cycle_; }
  int processor_count() const { return processor_count_; }
  std::size_t size() const { return tasks_.size(); }

  /// Work units of task `index`.
  double work_of(std::size_t index) const;

  /// Largest per-processor cycle load that fits the window at top speed.
  Cycles cycle_capacity() const { return cycle_capacity_; }

  /// Total work units if every task were accepted.
  double total_work() const;

  /// Energy of a processor loaded with `cycles` accepted cycles:
  /// curve().energy(work_per_cycle() * cycles), one load per call. Every
  /// solver evaluates E through here. When a memo is attached, evaluations
  /// are served from / recorded into it; the memo only replays values this
  /// exact computation produced, so cached and cold calls return identical
  /// bits.
  double energy_of_cycles(Cycles cycles) const;

  /// Shares `memo` for energy_of_cycles lookups. The caller asserts that
  /// every problem attached to one memo has an identical (EnergyCurve,
  /// work_per_cycle) pair — the memo is keyed by cycles alone. Pass nullptr
  /// to detach. Copies of this problem share the attached memo.
  void attach_energy_memo(std::shared_ptr<EnergyMemo> memo) { energy_memo_ = std::move(memo); }

  /// The attached memo, or nullptr when evaluations are uncached.
  const std::shared_ptr<EnergyMemo>& energy_memo() const { return energy_memo_; }

  /// Sum of penalties of tasks with accepted[i] == false; `accepted` must
  /// have one entry per task.
  double rejected_penalty(const std::vector<bool>& accepted) const;

  /// Single-processor helpers (require processor_count() == 1):
  /// total accepted cycles, feasibility, and the full objective.
  Cycles accepted_cycles(const std::vector<bool>& accepted) const;
  bool feasible_on_one(const std::vector<bool>& accepted) const;
  double objective_on_one(const std::vector<bool>& accepted) const;

 private:
  FrameTaskSet tasks_;
  EnergyCurve curve_;
  double work_per_cycle_;
  int processor_count_;
  Cycles cycle_capacity_ = 0;
  std::shared_ptr<EnergyMemo> energy_memo_;
};

}  // namespace retask

#endif  // RETASK_CORE_PROBLEM_HPP
