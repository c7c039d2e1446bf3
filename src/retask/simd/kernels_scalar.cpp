// Scalar kernel backend — the reference implementation every vector backend
// must match bit for bit. Also home of `energy_hull_one`, the single source
// of truth for discrete-model energy evaluation: `EnergyCurve::energy`
// routes its hull branch through this function, so the batched kernels and
// the one-at-a-time path can never disagree.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/simd/kernels.hpp"

namespace retask::simd {

namespace {

/// Transliteration of `EnergyCurve::hull_power` over the flattened hull
/// arrays: time-shared power at average execution speed `s`.
double hull_power_ref(const HullEnergyParams& params, double s) {
  if (s <= params.hull_speed[0]) return params.hull_power[0];
  for (std::size_t i = 0; i + 1 < params.hull_size; ++i) {
    if (leq_tol(s, params.hull_speed[i + 1])) {
      const double theta =
          (params.hull_speed[i + 1] - s) / (params.hull_speed[i + 1] - params.hull_speed[i]);
      return theta * params.hull_power[i] + (1.0 - theta) * params.hull_power[i + 1];
    }
  }
  return params.hull_power[params.hull_size - 1];
}

#include "retask/simd/kernels_scalar_impl.inl"

}  // namespace

double energy_hull_one(const HullEnergyParams& params, double work) {
  // Transliteration of the discrete branch of `EnergyCurve::best_choice`,
  // cost only: same candidate order, same comparisons, same operation order.
  RETASK_ASSERT(work > 0.0);
  RETASK_ASSERT(params.hull_size > 0);
  const double smax = params.smax;
  const double s_req = std::min(work / params.window, smax);
  const bool enable = params.dormant_enable;
  const double pind = params.static_power;

  double best = std::numeric_limits<double>::infinity();
  const auto consider = [&](double exec_speed, double busy_power, bool sleeps) {
    const double busy = work / exec_speed;
    const double idle = std::max(0.0, params.window - busy);
    if (sleeps && (!enable || idle < params.switch_time)) return;
    const double cost = busy * busy_power + (sleeps ? params.switch_energy : pind * idle);
    if (cost < best) best = cost;
  };
  const auto consider_both = [&](double s) {
    const double p = hull_power_ref(params, s);
    consider(s, p, false);
    if (enable) consider(s, p, true);
  };

  // Candidate average speeds: the lower feasibility boundary, smax, every
  // hull vertex strictly between them, and the sleep boundary. Both branch
  // costs are fractional-linear per hull segment, so the optima lie here.
  const double front = params.hull_speed[0];
  const double lower = std::min(std::max(std::max(s_req, front), front), smax);
  consider_both(lower);
  consider_both(smax);
  for (std::size_t i = 0; i < params.hull_size; ++i) {
    const double vertex = params.hull_speed[i];
    if (vertex > lower && vertex < smax) consider_both(vertex);
  }
  if (enable && params.switch_time > 0.0 && params.window - params.switch_time > 0.0) {
    const double s_boundary = work / (params.window - params.switch_time);
    if (s_boundary > lower && s_boundary < smax) consider_both(s_boundary);
  }
  RETASK_ASSERT(best < std::numeric_limits<double>::infinity());
  return best;
}

const KernelTable* scalar_table() noexcept {
  static const KernelTable table{
      &scalar_relax_desc_f64, &scalar_relax_desc_i64, &scalar_argmax_f64,
      &scalar_argmin_f64,     &scalar_energy_hull_cycles,
  };
  return &table;
}

}  // namespace retask::simd
