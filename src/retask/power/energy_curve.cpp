#include "retask/power/energy_curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/power/critical_speed.hpp"

namespace retask {
namespace {

constexpr const char* kInfeasible = "EnergyCurve::energy: workload exceeds smax * window";

}  // namespace

double ExecutionPlan::total_cycles() const {
  double cycles = 0.0;
  for (const PlanSegment& seg : segments) cycles += seg.speed * seg.duration;
  return cycles;
}

double ExecutionPlan::total_time() const {
  double time = 0.0;
  for (const PlanSegment& seg : segments) time += seg.duration;
  return time;
}

EnergyCurve::EnergyCurve(const PowerModel& model, double window, IdleDiscipline idle,
                         SleepParams sleep)
    : model_(model.clone()), window_(window), idle_(idle), sleep_(sleep) {
  require(window > 0.0, "EnergyCurve: window must be positive");
  validate(sleep_);
  max_workload_ = model_->max_speed() * window_;
  continuous_ = model_->is_continuous();
  if (!continuous_) {
    build_hull();
    return;
  }
  const auto* poly = dynamic_cast<const PolynomialPowerModel*>(model_.get());
  if (poly != nullptr) cont_.poly = poly->polynomial();
  else cont_.other = model_.get();
  cont_.s_max = model_->max_speed();
  cont_.s_lo = std::max({model_->min_speed(), cont_.s_max * 1e-12, 1e-300});
  cont_.s_crit = critical_speed(*model_);
  cont_.window = window_;
  cont_.pind = model_->static_power();
  cont_.switch_time = sleep_.switch_time;
  cont_.switch_energy = sleep_.switch_energy;
  cont_.enable = idle_ == IdleDiscipline::kDormantEnable;
}

EnergyCurve::EnergyCurve(const EnergyCurve& other)
    : model_(other.model_->clone()),
      window_(other.window_),
      idle_(other.idle_),
      sleep_(other.sleep_),
      max_workload_(other.max_workload_),
      continuous_(other.continuous_),
      cont_(other.cont_),
      hull_(other.hull_),
      hull_speeds_(other.hull_speeds_),
      hull_powers_(other.hull_powers_) {
  if (cont_.other != nullptr) cont_.other = model_.get();
}

EnergyCurve& EnergyCurve::operator=(const EnergyCurve& other) {
  if (this != &other) {
    model_ = other.model_->clone();
    window_ = other.window_;
    idle_ = other.idle_;
    sleep_ = other.sleep_;
    max_workload_ = other.max_workload_;
    continuous_ = other.continuous_;
    cont_ = other.cont_;
    if (cont_.other != nullptr) cont_.other = model_.get();
    hull_ = other.hull_;
    hull_speeds_ = other.hull_speeds_;
    hull_powers_ = other.hull_powers_;
  }
  return *this;
}

double EnergyCurve::static_power() const { return model_->static_power(); }

double EnergyCurve::idle_cost(double t) const {
  require(t >= 0.0, "EnergyCurve::idle_cost: negative idle interval");
  if (idle_ == IdleDiscipline::kDormantDisable) return static_power() * t;
  return idle_interval_energy(static_power(), sleep_, t);
}

void EnergyCurve::build_hull() {
  // Lower convex hull of the operating points (monotone chain). Unlike the
  // idle interval, execution time-sharing is linear in (speed, power), so
  // mixing two adjacent hull speeds realizes any average execution speed.
  hull_.clear();
  for (const double s : model_->available_speeds()) {
    const HullPoint p{s, model_->power(s)};
    while (hull_.size() >= 2) {
      const HullPoint& a = hull_[hull_.size() - 2];
      const HullPoint& b = hull_[hull_.size() - 1];
      const double cross =
          (b.speed - a.speed) * (p.power - a.power) - (b.power - a.power) * (p.speed - a.speed);
      if (cross <= 0.0) {
        hull_.pop_back();
      } else {
        break;
      }
    }
    hull_.push_back(p);
  }
  RETASK_ASSERT(!hull_.empty());
  // Structure-of-arrays mirror for the vector energy kernels.
  hull_speeds_.clear();
  hull_powers_.clear();
  for (const HullPoint& point : hull_) {
    hull_speeds_.push_back(point.speed);
    hull_powers_.push_back(point.power);
  }
}

simd::HullEnergyParams EnergyCurve::hull_params(double work_per_cycle) const {
  RETASK_ASSERT(!hull_.empty());
  simd::HullEnergyParams params;
  params.window = window_;
  params.work_per_cycle = work_per_cycle;
  params.static_power = static_power();
  params.smax = model_->max_speed();
  params.switch_energy = sleep_.switch_energy;
  params.switch_time = sleep_.switch_time;
  params.dormant_enable = idle_ == IdleDiscipline::kDormantEnable;
  params.e_zero = params.dormant_enable ? 0.0 : static_power() * window_;
  params.hull_speed = hull_speeds_.data();
  params.hull_power = hull_powers_.data();
  params.hull_size = hull_speeds_.size();
  return params;
}

double EnergyCurve::hull_power(double s) const {
  RETASK_ASSERT(!hull_.empty());
  if (s <= hull_.front().speed) return hull_.front().power;
  for (std::size_t i = 0; i + 1 < hull_.size(); ++i) {
    const HullPoint& a = hull_[i];
    const HullPoint& b = hull_[i + 1];
    if (leq_tol(s, b.speed)) {
      const double theta = (b.speed - s) / (b.speed - a.speed);
      return theta * a.power + (1.0 - theta) * b.power;
    }
  }
  return hull_.back().power;
}

// Awake branch: its cost never decreases in s, so run as slowly as allowed.
// Sleep branch: the tail must cover the switch, and W * P(s) / s is least at
// s*, so run at s* clamped into the speeds that leave that tail. The two
// monotonicity arguments are in docs/ALGORITHMS.md §1.
inline EnergyCurve::Choice EnergyCurve::continuous_choice(const Continuous& c, double cycles) {
  const double lo = c.speed_bound(cycles);
  const double busy = cycles / lo;
  Choice best{lo, busy, false, busy * c.power(lo) + c.pind * std::max(0.0, c.window - busy)};
  if (!c.enable) return best;
  double sleep_lo = lo;
  if (c.switch_time > 0.0) {
    if (c.window - c.switch_time <= 0.0) return best;
    sleep_lo = std::max(sleep_lo, cycles / (c.window - c.switch_time));
  }
  if (sleep_lo > c.s_max) return best;
  const double s = std::min(std::max(c.s_crit, sleep_lo), c.s_max);
  const double sleep_busy = cycles / s;
  const double idle = std::max(0.0, c.window - sleep_busy);
  if (idle < c.switch_time) return best;
  const double cost = sleep_busy * c.power(s) + c.switch_energy;
  if (cost < best.cost) best = Choice{s, sleep_busy, idle > 0.0, cost};
  return best;
}

inline double EnergyCurve::continuous_energy(const Continuous& c, double cycles) {
  // Dormant-enable processors stay dormant through an empty window.
  if (cycles <= 0.0) return c.enable ? 0.0 : c.pind * c.window;
  return continuous_choice(c, cycles).cost;
}

EnergyCurve::Choice EnergyCurve::best_choice(double cycles) const {
  RETASK_ASSERT(cycles > 0.0);
  if (continuous_) return continuous_choice(cont_, cycles);
  const double smax = model_->max_speed();
  const double s_req = std::min(cycles / window_, smax);
  const bool enable = idle_ == IdleDiscipline::kDormantEnable;
  const double pind = static_power();

  Choice best;
  best.cost = std::numeric_limits<double>::infinity();
  const auto consider = [&](double exec_speed, double busy_power, bool sleeps) {
    const double busy = cycles / exec_speed;
    const double idle = std::max(0.0, window_ - busy);
    if (sleeps && (!enable || idle < sleep_.switch_time)) return;
    const double cost =
        busy * busy_power + (sleeps ? sleep_.switch_energy : pind * idle);
    if (cost < best.cost) best = Choice{exec_speed, busy, sleeps && idle > 0.0, cost};
  };

  // Candidate average speeds: the lower feasibility boundary, the sleep
  // boundary, and every hull vertex at or above the boundary. Both branch
  // costs are fractional-linear per hull segment, so their optima lie at
  // these candidates.
  const double lower = clamp(std::max(s_req, hull_.front().speed), hull_.front().speed, smax);
  std::vector<double> candidates{lower, smax};
  for (const HullPoint& p : hull_) {
    if (p.speed > lower && p.speed < smax) candidates.push_back(p.speed);
  }
  if (enable && sleep_.switch_time > 0.0 && window_ - sleep_.switch_time > 0.0) {
    const double s_boundary = cycles / (window_ - sleep_.switch_time);
    if (s_boundary > lower && s_boundary < smax) candidates.push_back(s_boundary);
  }
  for (const double s : candidates) {
    const double p = hull_power(s);
    consider(s, p, false);
    if (enable) consider(s, p, true);
  }
  RETASK_ASSERT(best.cost < std::numeric_limits<double>::infinity());
  return best;
}

double EnergyCurve::energy(double cycles) const {
  require(feasible(cycles), kInfeasible);
  if (continuous_) return continuous_energy(cont_, cycles);
  if (cycles <= 0.0) {
    // Dormant-enable processors stay dormant through an empty window.
    return idle_ == IdleDiscipline::kDormantEnable ? 0.0 : static_power() * window_;
  }
  // Discrete models route through the shared scalar hull kernel — the same
  // reference body the batched SIMD kernels reduce to — so one-at-a-time and
  // batched evaluation can never diverge by a bit (the energy memo's replay
  // guarantee depends on this). best_choice stays the implementation for
  // plan(), which needs the speed, not the cost.
  return simd::energy_hull_one(hull_params(1.0), cycles);
}

void EnergyCurve::energy_cycles_batch(double work_per_cycle, const std::int64_t* cycles,
                                      double* out, std::size_t n) const {
  require(work_per_cycle > 0.0, "EnergyCurve::energy_cycles_batch: work_per_cycle must be positive");
  if (continuous_) {
    const Continuous c = cont_;  // hoisted: stores to `out` could alias the members
    for (std::size_t i = 0; i < n; ++i) {
      const double w = work_per_cycle * static_cast<double>(cycles[i]);
      require(feasible(w), kInfeasible);
      out[i] = continuous_energy(c, w);
    }
    return;
  }
  constexpr std::int64_t kMaxExact = std::int64_t{1} << 52;  // exact int64->double range
  bool kernel_ok = true;
  for (std::size_t i = 0; i < n && kernel_ok; ++i) {
    kernel_ok = cycles[i] >= 0 && cycles[i] < kMaxExact;
  }
  if (!kernel_ok) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = energy(work_per_cycle * static_cast<double>(cycles[i]));
    }
    return;
  }
  // Same feasibility contract as energy(), checked up front so the kernel
  // only ever sees workloads the scalar path would accept.
  for (std::size_t i = 0; i < n; ++i) {
    require(feasible(work_per_cycle * static_cast<double>(cycles[i])), kInfeasible);
  }
  simd::kernels().energy_hull_cycles(hull_params(work_per_cycle), cycles, out, n);
}

bool EnergyCurve::convex() const {
  return idle_ == IdleDiscipline::kDormantDisable || sleep_.free();
}

double EnergyCurve::convex_floor(double cycles) const {
  if (convex()) return energy(cycles);
  // Dormant-enable with switch overheads: E has a jump at 0+ and a branch
  // crossover, so bound it by the execution-only LP relaxation instead. Any
  // plan for `cycles` pays at least its busy energy, and the cheapest busy
  // energy with total time <= window is attained either at a single hull
  // speed s >= cycles / window (idle slack) or by time-sharing the hull at
  // average speed cycles / window across the full window.
  require(feasible(cycles), "EnergyCurve::convex_floor: workload exceeds smax * window");
  if (cycles <= 0.0) return 0.0;  // stays dormant, like energy(0)
  if (continuous_) {
    // P(s) / s is least at s*.
    const double s = std::min(std::max(cont_.s_crit, cont_.speed_bound(cycles)), cont_.s_max);
    return cycles * (cont_.power(s) / s);
  }
  const double s_avg = cycles / window_;
  double best = std::numeric_limits<double>::infinity();
  for (const HullPoint& p : hull_) {
    if (p.speed >= s_avg) best = std::min(best, cycles * p.power / p.speed);
  }
  if (s_avg >= hull_.front().speed) best = std::min(best, window_ * hull_power(s_avg));
  RETASK_ASSERT(best < std::numeric_limits<double>::infinity());
  return best;
}

double EnergyCurve::marginal(double cycles) const {
  require(feasible(cycles), "EnergyCurve::marginal: workload exceeds smax * window");
  const double h = std::max(max_workload_ * 1e-7, 1e-12);
  const double lo = std::max(0.0, cycles - h);
  const double hi = std::min(max_workload_, cycles + h);
  RETASK_ASSERT(hi > lo);
  return (energy(hi) - energy(lo)) / (hi - lo);
}

ExecutionPlan EnergyCurve::plan(double cycles) const {
  require(feasible(cycles), "EnergyCurve::plan: workload exceeds smax * window");
  ExecutionPlan out;
  if (cycles <= 0.0) {
    out.segments.push_back({0.0, window_});
    return out;
  }
  const Choice choice = best_choice(cycles);

  if (continuous_) {
    out.segments.push_back({choice.exec_speed, choice.busy});
  } else {
    // Decompose the average execution speed into the two adjacent hull
    // speeds (time-sharing), or a single segment when it is a vertex.
    const double s = choice.exec_speed;
    std::size_t seg = hull_.size();  // index of segment start
    for (std::size_t i = 0; i + 1 < hull_.size(); ++i) {
      if (s >= hull_[i].speed && s <= hull_[i + 1].speed) {
        seg = i;
        break;
      }
    }
    if (seg == hull_.size() || almost_equal(s, hull_.front().speed) ||
        (seg + 1 < hull_.size() && almost_equal(s, hull_[seg + 1].speed))) {
      // A vertex (or outside the hull range, clamped): single segment at the
      // nearest available hull speed.
      double vertex = hull_.front().speed;
      double gap = std::fabs(s - vertex);
      for (const HullPoint& p : hull_) {
        if (std::fabs(s - p.speed) < gap) {
          vertex = p.speed;
          gap = std::fabs(s - p.speed);
        }
      }
      out.segments.push_back({vertex, cycles / vertex});
    } else {
      const HullPoint& a = hull_[seg];
      const HullPoint& b = hull_[seg + 1];
      const double theta = (b.speed - s) / (b.speed - a.speed);
      const double t_a = choice.busy * theta;
      const double t_b = choice.busy * (1.0 - theta);
      if (t_a > 0.0) out.segments.push_back({a.speed, t_a});
      if (t_b > 0.0) out.segments.push_back({b.speed, t_b});
    }
  }
  double busy = 0.0;
  for (const PlanSegment& seg : out.segments) busy += seg.duration;
  if (busy < window_) out.segments.push_back({0.0, window_ - busy});
  return out;
}

double EnergyCurve::plan_energy(const ExecutionPlan& plan) const {
  double total = 0.0;
  for (const PlanSegment& seg : plan.segments) {
    require(seg.duration >= 0.0, "EnergyCurve::plan_energy: negative segment duration");
    if (seg.speed <= 0.0) {
      total += idle_cost(seg.duration);
    } else {
      total += seg.duration * model_->power(seg.speed);
    }
  }
  return total;
}

}  // namespace retask
