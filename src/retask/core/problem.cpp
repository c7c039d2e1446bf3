#include "retask/core/problem.hpp"

#include <cmath>

#include "retask/common/error.hpp"
#include "retask/common/math.hpp"

namespace retask {

Cycles cycle_capacity_for(const EnergyCurve& curve, double work_per_cycle) {
  require(work_per_cycle > 0.0, "cycle_capacity_for: work_per_cycle must be positive");
  // Tolerant floor so that "exactly full at top speed" instances keep their
  // analytic capacity.
  return static_cast<Cycles>(
      std::floor(curve.max_workload() / work_per_cycle * (1.0 + 1e-12) + 1e-9));
}

RejectionProblem::RejectionProblem(FrameTaskSet tasks, EnergyCurve curve, double work_per_cycle,
                                   int processor_count)
    : tasks_(std::move(tasks)),
      curve_(std::move(curve)),
      work_per_cycle_(work_per_cycle),
      processor_count_(processor_count) {
  require(work_per_cycle_ > 0.0, "RejectionProblem: work_per_cycle must be positive");
  require(processor_count_ >= 1, "RejectionProblem: processor_count must be at least 1");
  cycle_capacity_ = cycle_capacity_for(curve_, work_per_cycle_);
}

double RejectionProblem::work_of(std::size_t index) const {
  require(index < tasks_.size(), "RejectionProblem::work_of: index out of range");
  return work_per_cycle_ * static_cast<double>(tasks_[index].cycles);
}

double RejectionProblem::total_work() const {
  return work_per_cycle_ * static_cast<double>(tasks_.total_cycles());
}

double RejectionProblem::energy_of_cycles(Cycles cycles) const {
  require(cycles >= 0, "RejectionProblem::energy_of_cycles: negative cycles");
  if (energy_memo_ != nullptr) {
    return energy_memo_->get_or_compute(cycles, [this](Cycles c) {
      return curve_.energy(work_per_cycle_ * static_cast<double>(c));
    });
  }
  return curve_.energy(work_per_cycle_ * static_cast<double>(cycles));
}

double RejectionProblem::rejected_penalty(const std::vector<bool>& accepted) const {
  require(accepted.size() == tasks_.size(), "RejectionProblem: accept mask size mismatch");
  double penalty = 0.0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (!accepted[i]) penalty += tasks_[i].penalty;
  }
  return penalty;
}

Cycles RejectionProblem::accepted_cycles(const std::vector<bool>& accepted) const {
  require(accepted.size() == tasks_.size(), "RejectionProblem: accept mask size mismatch");
  Cycles cycles = 0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (accepted[i]) cycles += tasks_[i].cycles;
  }
  return cycles;
}

bool RejectionProblem::feasible_on_one(const std::vector<bool>& accepted) const {
  require(processor_count_ == 1, "RejectionProblem: single-processor helper on M > 1 instance");
  return accepted_cycles(accepted) <= cycle_capacity_;
}

double RejectionProblem::objective_on_one(const std::vector<bool>& accepted) const {
  require(feasible_on_one(accepted),
          "RejectionProblem::objective_on_one: accept set exceeds the processor capacity");
  return energy_of_cycles(accepted_cycles(accepted)) + rejected_penalty(accepted);
}

}  // namespace retask
