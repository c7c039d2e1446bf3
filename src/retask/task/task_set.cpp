#include "retask/task/task_set.hpp"

#include <unordered_set>

#include "retask/common/error.hpp"
#include "retask/common/math.hpp"

namespace retask {
namespace {

template <typename Task>
void check_unique_ids(const std::vector<Task>& tasks) {
  std::unordered_set<int> seen;
  for (const Task& task : tasks) {
    require(seen.insert(task.id).second, "task set: duplicate task id");
  }
}

}  // namespace

FrameTaskSet::FrameTaskSet() : tasks_(std::make_shared<const std::vector<FrameTask>>()) {}

FrameTaskSet::FrameTaskSet(std::vector<FrameTask> tasks)
    : tasks_(std::make_shared<const std::vector<FrameTask>>(std::move(tasks))) {
  check_unique_ids(*tasks_);
  for (const FrameTask& task : *tasks_) {
    validate(task);
    total_cycles_ += task.cycles;
    total_penalty_ += task.penalty;
  }
}

PeriodicTaskSet::PeriodicTaskSet(std::vector<PeriodicTask> tasks) : tasks_(std::move(tasks)) {
  check_unique_ids(tasks_);
  for (const PeriodicTask& task : tasks_) {
    validate(task);
    total_rate_ += task.rate();
    total_penalty_ += task.penalty;
    hyper_period_ = checked_lcm(hyper_period_, task.period);
  }
}

}  // namespace retask
