// Task-set containers: aggregate views (total workload, total penalty,
// utilization, hyper-period) over frame and periodic task collections.
#ifndef RETASK_TASK_TASK_SET_HPP
#define RETASK_TASK_TASK_SET_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "retask/task/task.hpp"

namespace retask {

/// An immutable-after-construction set of frame-based tasks. Copies share
/// one task vector, so copying a set (or a problem holding one) never copies
/// its tasks.
class FrameTaskSet {
 public:
  FrameTaskSet();

  /// Validates every task and freezes the set; ids must be unique.
  explicit FrameTaskSet(std::vector<FrameTask> tasks);

  // Copy only: a move would leave its source without a task vector, and a
  // copy only adds a reference to the shared one.
  FrameTaskSet(const FrameTaskSet&) = default;
  FrameTaskSet& operator=(const FrameTaskSet&) = default;

  const std::vector<FrameTask>& tasks() const { return *tasks_; }
  std::size_t size() const { return tasks_->size(); }
  bool empty() const { return tasks_->empty(); }
  const FrameTask& operator[](std::size_t index) const { return (*tasks_)[index]; }

  /// Sum of worst-case execution cycles over all tasks.
  Cycles total_cycles() const { return total_cycles_; }

  /// Sum of rejection penalties over all tasks.
  double total_penalty() const { return total_penalty_; }

 private:
  std::shared_ptr<const std::vector<FrameTask>> tasks_;
  Cycles total_cycles_ = 0;
  double total_penalty_ = 0.0;
};

/// An immutable-after-construction set of periodic tasks.
class PeriodicTaskSet {
 public:
  PeriodicTaskSet() = default;

  /// Validates every task and freezes the set; ids must be unique.
  explicit PeriodicTaskSet(std::vector<PeriodicTask> tasks);

  const std::vector<PeriodicTask>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  const PeriodicTask& operator[](std::size_t index) const { return tasks_[index]; }

  /// Total demanded execution rate, sum of ci/pi (cycles per time unit).
  double total_rate() const { return total_rate_; }

  /// Sum of rejection penalties over all tasks.
  double total_penalty() const { return total_penalty_; }

  /// Hyper-period: least common multiple of all periods (throws on 64-bit
  /// overflow); 1 for an empty set.
  std::int64_t hyper_period() const { return hyper_period_; }

 private:
  std::vector<PeriodicTask> tasks_;
  double total_rate_ = 0.0;
  double total_penalty_ = 0.0;
  std::int64_t hyper_period_ = 1;
};

}  // namespace retask

#endif  // RETASK_TASK_TASK_SET_HPP
