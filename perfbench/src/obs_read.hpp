// Reads the library's obs counters and timers out of a registry.
#ifndef PERFBENCH_OBS_READ_HPP
#define PERFBENCH_OBS_READ_HPP

#include <cstdint>
#include <string>

#include "retask/obs/metrics.hpp"

namespace perfbench {

inline std::uint64_t obs_counter(const retask::obs::Registry& registry, const std::string& name) {
  return registry.counter(retask::obs::intern_metric(retask::obs::MetricKind::kCounter, name));
}

/// Total nanoseconds recorded into the scoped timer `name`.
inline double obs_timer_ns(const retask::obs::Registry& registry, const std::string& name) {
  const retask::obs::Histogram* timer =
      registry.timer(retask::obs::intern_metric(retask::obs::MetricKind::kTimer, name));
  return timer == nullptr ? 0.0 : timer->sum;
}

/// numerator / denominator, 0 when the denominator is 0.
inline double share(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_OBS_READ_HPP
