#include "retask/cache/sweep.hpp"

#include <vector>

#include "retask/common/error.hpp"
#include "retask/power/polynomial_power.hpp"

namespace retask {
namespace {

/// Bitwise power-model equality as far as the energy curve can see it.
/// Discrete models are compared point by point (their curve is a function
/// of the operating points and the static power alone); continuous models
/// are compared by parameters when the concrete type is known. Unknown
/// continuous models never match — the cost is a missed sharing
/// opportunity, never a wrong grouping.
bool same_models(const PowerModel& a, const PowerModel& b) {
  if (&a == &b) return true;  // curves copied from one another share their model
  if (a.is_continuous() != b.is_continuous()) return false;
  if (a.static_power() != b.static_power()) return false;
  if (a.min_speed() != b.min_speed() || a.max_speed() != b.max_speed()) return false;
  if (!a.is_continuous()) {
    const std::vector<double> speeds_a = a.available_speeds();
    if (speeds_a != b.available_speeds()) return false;
    for (const double s : speeds_a) {
      if (a.power(s) != b.power(s)) return false;
    }
    return true;
  }
  const auto* pa = dynamic_cast<const PolynomialPowerModel*>(&a);
  const auto* pb = dynamic_cast<const PolynomialPowerModel*>(&b);
  if (pa == nullptr || pb == nullptr) return false;
  return pa->beta1() == pb->beta1() && pa->beta2() == pb->beta2() && pa->alpha() == pb->alpha();
}

}  // namespace

bool same_curves(const EnergyCurve& a, const EnergyCurve& b) {
  return a.window() == b.window() && a.idle() == b.idle() &&
         a.sleep().switch_time == b.sleep().switch_time &&
         a.sleep().switch_energy == b.sleep().switch_energy &&
         a.max_workload() == b.max_workload() && same_models(a.model(), b.model());
}

bool same_platforms(const RejectionProblem& a, const RejectionProblem& b) {
  return a.work_per_cycle() == b.work_per_cycle() &&
         a.processor_count() == b.processor_count() && same_curves(a.curve(), b.curve());
}

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
