#include "retask/cache/sweep.hpp"

#include <vector>

#include "retask/common/error.hpp"

namespace retask {

bool same_task_sets(const FrameTaskSet& a, const FrameTaskSet& b) {
  if (&a.tasks() == &b.tasks()) return true;  // copies share one task vector
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].cycles != b[i].cycles || a[i].penalty != b[i].penalty) {
      return false;
    }
  }
  return true;
}

std::vector<RejectionProblem> make_capacity_sweep(const RejectionProblem& base,
                                                  const std::vector<double>& factors) {
  std::vector<RejectionProblem> points;
  points.reserve(factors.size());
  for (const double factor : factors) {
    require(factor > 0.0, "make_capacity_sweep: factors must be positive");
    points.emplace_back(base.tasks(), base.curve(), base.work_per_cycle() / factor,
                        base.processor_count());
  }
  return points;
}

}  // namespace retask
