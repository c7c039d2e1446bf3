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
// PolynomialPowerModel does, and discrete models time-share their lower
// hull: both branch optima are then closed-form, and one body evaluates E
// for every model (docs/ALGORITHMS.md §1).
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
#include <cstddef>
#include <memory>
#include <vector>

#include "retask/common/math.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/power_model.hpp"
#include "retask/power/sleep.hpp"

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
  /// copy of the model, which copies of the curve share. SleepParams are only
  /// meaningful for dormant-enable processors (dormant-disable processors
  /// never sleep); the default is free sleeping.
  EnergyCurve(const PowerModel& model, double window, IdleDiscipline idle,
              SleepParams sleep = SleepParams{});

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

  /// Cost of an idle interval of length `t` under this curve's discipline
  /// and sleep parameters.
  double idle_cost(double t) const;

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
    double leq_limit = 0.0;  // the largest s with leq_tol(s, speed)
  };
  struct Choice {
    double exec_speed = 0.0;  // average execution speed (0 when no work)
    double busy = 0.0;        // execution time
    double cost = 0.0;
  };
  /// The scalars the closed-form body reads besides P(s), cached at
  /// construction.
  struct Branches {
    double s_lo = 0.0;     // awake speed floor: min_speed kept off 0, or a hull's v_a
    double s_max = 0.0;
    double s_crit = 0.0;   // argmin P(s)/s in the speed range (a hull's v_c)
    double window = 0.0;
    double pind = 0.0;
    double switch_time = 0.0;
    double switch_energy = 0.0;
    bool enable = false;   // dormant-enable

    /// Slowest feasible awake execution speed for `cycles` > 0.
    double speed_bound(double cycles) const {
      return std::max(std::min(cycles / window, s_max), s_lo);
    }
  };
  /// P(s) for the closed-form body, one type per kind of model so that the
  /// body is compiled once per kind and a polynomial evaluation makes no
  /// call and takes no branch on the kind.
  struct PolynomialPower {
    PowerPolynomial poly;
    double operator()(double s) const { return poly(s); }
  };
  struct ModelPower {  // any other continuous model, through power()
    const PowerModel* model = nullptr;
    double operator()(double s) const { return model->power(s); }
  };
  struct HullPower {  // discrete models: time-sharing the lower hull
    const HullPoint* points = nullptr;
    std::size_t size = 0;
    double operator()(double s) const;
  };
  enum class PowerKind { kPolynomial, kModel, kHull };

  double static_power() const;
  void build_hull();
  /// Calls fn(power) with this curve's P(s) functor and returns its result.
  template <typename Fn>
  auto with_power(Fn&& fn) const;
  /// The closed-form body: the best (speed, branch) decision for a positive
  /// feasible workload, which energy() prices and plan() lays out.
  template <typename Power>
  static Choice choose(const Branches& b, const Power& power, double cycles);

  std::shared_ptr<const PowerModel> model_;
  double window_ = 0.0;
  IdleDiscipline idle_ = IdleDiscipline::kDormantEnable;
  SleepParams sleep_;
  double max_workload_ = 0.0;
  PowerKind power_kind_ = PowerKind::kModel;
  Branches branches_;
  PowerPolynomial poly_;         // polynomial models only
  std::vector<HullPoint> hull_;  // discrete models: lower hull of operating points
};

}  // namespace retask

#endif  // RETASK_POWER_ENERGY_CURVE_HPP
