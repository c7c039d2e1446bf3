// Shared helpers for solver tests: small random instances with exact-DP
// friendly cycle resolutions.
#ifndef RETASK_TESTS_TEST_UTIL_HPP
#define RETASK_TESTS_TEST_UTIL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "retask/common/rng.hpp"
#include "retask/exp/workload.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/simd/backend.hpp"

namespace retask {
namespace test {

/// A small instance on the XScale model (dormant-enable) with coarse cycles
/// so exact DP and exhaustive search stay fast.
inline RejectionProblem small_instance(std::uint64_t seed, int task_count = 10,
                                       double load = 1.4, double penalty_scale = 1.0,
                                       int processors = 1,
                                       IdleDiscipline idle = IdleDiscipline::kDormantEnable) {
  ScenarioConfig config;
  config.task_count = task_count;
  config.load = load;
  config.resolution = 400.0;
  config.penalty_scale = penalty_scale;
  config.idle = idle;
  config.processor_count = processors;
  config.seed = seed;
  const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  return make_scenario(config, model);
}

/// The per-PE shape of an mp-scale solve: `task_count` tasks of 20-80 cycles
/// on an XScale processor of `capacity` cycles, each penalty 0.3-2 times its
/// cycles' share of the full-capacity energy. The exact DP's record list
/// outgrows (reach + 1) / 16 within a few tasks, so its dense phase relaxes
/// the rest.
inline RejectionProblem mp_pe_instance(std::uint64_t seed, int task_count = 60,
                                       Cycles capacity = 3000) {
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const double work_per_cycle = curve.max_workload() / static_cast<double>(capacity);
  const double per_cycle = curve.energy(curve.max_workload()) / static_cast<double>(capacity);
  Rng rng(seed);
  std::vector<FrameTask> tasks;
  for (int i = 0; i < task_count; ++i) {
    const Cycles cycles = rng.uniform_int(20, 80);
    tasks.push_back({i, cycles, per_cycle * static_cast<double>(cycles) * rng.uniform(0.3, 2.0)});
  }
  return RejectionProblem(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
}

/// More tasks than an accept mask holds (68 by default), of 100-1100 cycles
/// and with penalties independent of their cycles, on an XScale processor of
/// three quarters of their cycles. The exact DP's record list stays under
/// (reach + 1) / 16 entries until 64 tasks fill the masks, so its dense phase
/// relaxes only the tasks past the 64th.
inline RejectionProblem mask_width_instance(std::uint64_t seed, int task_count = 68) {
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  Rng rng(seed);
  std::vector<FrameTask> tasks;
  Cycles total = 0;
  for (int i = 0; i < task_count; ++i) {
    const Cycles cycles = rng.uniform_int(100, 1100);
    tasks.push_back({i, cycles, rng.uniform(1.0, 1.5)});
    total += cycles;
  }
  // Penalties comparable to the energy, so that rejecting pays off.
  const double scale = 2.0 * curve.energy(curve.max_workload()) / task_count;
  for (FrameTask& task : tasks) task.penalty *= scale;
  const double work_per_cycle = curve.max_workload() / static_cast<double>(total * 3 / 4);
  return RejectionProblem(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
}

/// Fills among those recorded in `metrics` that handed off to the dense
/// phase: the sum of the `<owner>.fallback.*` reasons dp_fill's callers count
/// ("exact_dp" or "budgeted"). Always 0 when the build records no metrics.
inline std::uint64_t dense_handoffs(const obs::Registry& metrics, const std::string& owner) {
  const auto reason = [&](const char* name) {
    return metrics.counter(
        obs::intern_metric(obs::MetricKind::kCounter, owner + ".fallback." + name));
  };
  return reason("list_outgrew_reach") + reason("mask_width");
}

/// The scalar backend, plus AVX2 when the host can execute it.
inline std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out = {simd::Backend::kScalar};
  if (simd::backend_available(simd::Backend::kAvx2)) out.push_back(simd::Backend::kAvx2);
  return out;
}

/// Whether the build records metrics (RETASK_OBS); checks through counters
/// only hold when it does.
#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
inline constexpr bool kObsEnabled = true;
#else
inline constexpr bool kObsEnabled = false;
#endif

}  // namespace test
}  // namespace retask

#endif  // RETASK_TESTS_TEST_UTIL_HPP
