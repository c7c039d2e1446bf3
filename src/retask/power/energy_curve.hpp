// The energy curve E(W): minimum energy to execute W cycles within a fixed
// scheduling window on one DVS processor.
//
// This is the load-bearing abstraction of the library. Every rejection
// algorithm optimizes `E(sum of accepted cycles) + rejected penalty`, so by
// writing the algorithms against E(W) they become independent of the power
// model (polynomial/table), the idle discipline (dormant-enable vs.
// dormant-disable), the speed granularity (ideal vs. non-ideal) and the
// dormant-mode overheads (free vs. costly sleep).
//
// Construction of E(W): the window splits into a busy part executing W
// cycles at an (average) speed s and an idle tail of length D - W/s. Busy
// energy is (W/s) * P(s), where for non-ideal processors P at a non-listed
// speed means time-sharing the two adjacent operating points on the lower
// convex hull of the table (the classic two-speed emulation). The idle tail
// costs
//     dormant-disable: Pind * t                    (leakage cannot be shed)
//     dormant-enable : min(Pind * t, Esw) if t >= tsw, else Pind * t
// i.e. sleeping through the tail is worth the switch pair (Esw, tsw) only
// past the break-even point; free sleep (Esw = tsw = 0, the default) gives
// idle cost 0. E minimizes over the execution speed, which with free sleep
// reproduces the classic critical-speed rule (never execute below
// s* = argmin P(s)/s on a dormant-enable processor) automatically.
// Continuous models must have P(s) - Pind convex and zero at s = 0, as
// PolynomialPowerModel does: both branch optima are then closed-form.
//
// With free sleep E is convex and increasing; positive switch overheads add
// a jump at W = 0+ (the first cycle forces the processor to wake at all),
// so E stays increasing but is no longer convex — exactly the structural
// change that motivates consolidation heuristics (see
// core/leakage_aware.hpp). Algorithms that require convexity (the
// fractional and multiprocessor lower bounds) go through convex_floor(),
// the certified convex minorant of E, instead of energy() directly.
#ifndef RETASK_POWER_ENERGY_CURVE_HPP
#define RETASK_POWER_ENERGY_CURVE_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "retask/common/math.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/power_model.hpp"
#include "retask/power/sleep.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {

/// What an idle processor may do. Dormant-enable processors can enter a
/// zero-power dormant mode (paying the SleepParams overheads per sleep/wake
/// pair); dormant-disable processors keep drawing the speed-independent
/// power Pind whenever idle.
enum class IdleDiscipline {
  kDormantEnable,
  kDormantDisable,
};

/// One constant-speed execution segment (speed 0 denotes an idle interval).
struct PlanSegment {
  double speed = 0.0;
  double duration = 0.0;
};

/// A window-filling execution recipe: segments whose durations sum to the
/// window length and whose cycle total equals the planned workload.
struct ExecutionPlan {
  std::vector<PlanSegment> segments;

  /// Total cycles executed by the plan.
  double total_cycles() const;

  /// Total wall-clock time covered by the plan.
  double total_time() const;
};

/// Minimum-energy curve for one processor and one scheduling window.
class EnergyCurve {
 public:
  /// Requires window > 0 and valid sleep parameters. The curve keeps its own
  /// copy of the model. SleepParams are only meaningful for dormant-enable
  /// processors (dormant-disable processors never sleep); the default is
  /// free sleeping.
  EnergyCurve(const PowerModel& model, double window, IdleDiscipline idle,
              SleepParams sleep = SleepParams{});

  EnergyCurve(const EnergyCurve& other);
  EnergyCurve& operator=(const EnergyCurve& other);
  EnergyCurve(EnergyCurve&&) noexcept = default;
  EnergyCurve& operator=(EnergyCurve&&) noexcept = default;

  /// Scheduling window length D.
  double window() const { return window_; }

  /// Idle discipline the curve was built for.
  IdleDiscipline idle() const { return idle_; }

  /// Sleep-transition overheads (all-zero for free sleep).
  const SleepParams& sleep() const { return sleep_; }

  /// The processor model (valid as long as the curve lives).
  const PowerModel& model() const { return *model_; }

  /// Largest feasible workload, smax * D.
  double max_workload() const { return max_workload_; }

  /// True when `cycles` fit in the window at top speed (tolerant compare).
  bool feasible(double cycles) const {
    return cycles >= 0.0 && (cycles <= max_workload_ || leq_tol(cycles, max_workload_));
  }

  /// Minimum energy to execute `cycles` in the window; requires
  /// feasible(cycles) and cycles >= 0. E(0) is 0 for dormant-enable (the
  /// processor stays dormant) and Pind * D for dormant-disable.
  double energy(double cycles) const;

  /// Batched energy over integer cycle counts: out[i] equals
  /// energy(work_per_cycle * cycles[i]) bit for bit. Continuous models run
  /// energy()'s closed-form body in a loop; discrete (hull) models dispatch
  /// to the active SIMD backend's fused cycles->energy kernel, falling back
  /// to per-element evaluation outside its exact-conversion range
  /// [0, 2^52). Requires work_per_cycle > 0 and every workload feasible,
  /// like energy(), and throws the same Error when one is not.
  void energy_cycles_batch(double work_per_cycle, const std::int64_t* cycles, double* out,
                           std::size_t n) const;

  /// Cost of an idle interval of length `t` under this curve's discipline
  /// and sleep parameters.
  double idle_cost(double t) const;

  /// Numeric marginal energy dE/dW at `cycles` (one-sided difference at the
  /// domain boundary). Used by greedy thresholds and the fractional lower
  /// bound; with free sleep E is convex so the marginal is non-decreasing.
  double marginal(double cycles) const;

  /// True when E is convex on [0, max_workload()]: dormant-disable (the
  /// awake branch alone, linear busy cost per hull segment plus linear idle
  /// leakage), or dormant-enable with free sleep (the critical-speed rule).
  /// Positive switch overheads add a jump at W = 0+ and an awake/sleep
  /// branch crossover, so E is then increasing but not convex.
  bool convex() const;

  /// A certified convex lower bound on energy(cycles): energy(cycles)
  /// itself when convex(), otherwise the execution-only relaxation that
  /// drops the (nonnegative) idle and switch costs and charges the busy
  /// energy at the cheapest feasible average speed >= cycles / window. That
  /// relaxation is the value function of a parametric LP over execution
  /// plans with total time <= window, hence convex in `cycles`, and it
  /// matches E exactly wherever the sleep branch wins with free overheads.
  /// The Jensen step of the multiprocessor lower bound (core/lower_bound)
  /// requires convexity, so it must call this instead of energy().
  double convex_floor(double cycles) const;

  /// An execution plan achieving energy(cycles): at most two execution
  /// segments (one for continuous models) plus at most one idle segment.
  /// The plan's cycle total reproduces `cycles` and plan_energy(plan)
  /// reproduces energy(cycles); tests verify both.
  ExecutionPlan plan(double cycles) const;

  /// Energy drawn by an arbitrary plan under this curve's model, idle
  /// discipline and sleep parameters (each speed-0 segment is one idle
  /// interval of a WOKEN processor: with overheads it costs
  /// min(Pind * t, Esw), even if the plan is all-idle). A processor that
  /// never wakes is the energy(0) == 0 stay-dormant convention instead.
  /// Used by the simulators to cross-check analytic energies.
  double plan_energy(const ExecutionPlan& plan) const;

 private:
  struct HullPoint {
    double speed = 0.0;
    double power = 0.0;
  };
  struct Choice {
    double exec_speed = 0.0;  // average execution speed (0 when no work)
    double busy = 0.0;        // execution time
    bool sleeps = false;      // idle tail spent dormant
    double cost = 0.0;
  };
  /// What the closed-form continuous body reads, cached at construction so
  /// that one evaluation makes no virtual call (unless the model is not
  /// polynomial) and the batch loop can keep it in registers.
  struct Continuous {
    PowerPolynomial poly;              // P(s) of a polynomial model
    const PowerModel* other = nullptr;  // any other continuous model: its power()
    double s_lo = 0.0;     // lowest execution speed: min_speed, kept off 0
    double s_max = 0.0;
    double s_crit = 0.0;   // argmin P(s)/s in the speed range
    double window = 0.0;
    double pind = 0.0;
    double switch_time = 0.0;
    double switch_energy = 0.0;
    bool enable = false;   // dormant-enable

    double power(double s) const { return other == nullptr ? poly(s) : other->power(s); }
    /// Slowest feasible execution speed for `cycles` > 0.
    double speed_bound(double cycles) const {
      return std::max(std::min(cycles / window, s_max), s_lo);
    }
  };

  double static_power() const;
  void build_hull();
  /// Time-shared power at average execution speed `s` on the exec hull.
  double hull_power(double s) const;
  /// Best (speed, branch) decision for a positive workload.
  Choice best_choice(double cycles) const;
  /// The closed-form continuous body: best_choice for a positive workload,
  /// and energy for any feasible one.
  static Choice continuous_choice(const Continuous& c, double cycles);
  static double continuous_energy(const Continuous& c, double cycles);
  /// Flattened hull + model scalars for the SIMD energy kernels. Only valid
  /// for discrete models; pointers alias hull_speeds_/hull_powers_.
  simd::HullEnergyParams hull_params(double work_per_cycle) const;

  std::unique_ptr<PowerModel> model_;
  double window_ = 0.0;
  IdleDiscipline idle_ = IdleDiscipline::kDormantEnable;
  SleepParams sleep_;
  double max_workload_ = 0.0;
  bool continuous_ = false;
  Continuous cont_;              // continuous models only
  std::vector<HullPoint> hull_;  // discrete models: lower hull of operating points
  // Structure-of-arrays view of hull_ for the vector kernels (same order).
  std::vector<double> hull_speeds_;
  std::vector<double> hull_powers_;
};

}  // namespace retask

#endif  // RETASK_POWER_ENERGY_CURVE_HPP
