#include "retask/power/energy_curve.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/power/critical_speed.hpp"

namespace retask {
namespace {

/// The largest double s with leq_tol(s, v), for a positive finite v. As s
/// grows, leq_tol(s, v) turns false once and stays false, and the bit
/// patterns of positive doubles ascend with their values, so a bisection
/// over the bits finds the last s that passes.
double leq_tol_limit(double v) {
  auto pass = std::bit_cast<std::uint64_t>(v);
  auto fail = std::bit_cast<std::uint64_t>(2.0 * v + 1.0);
  while (fail - pass > 1) {
    const std::uint64_t mid = pass + (fail - pass) / 2;
    (leq_tol(std::bit_cast<double>(mid), v) ? pass : fail) = mid;
  }
  return std::bit_cast<double>(pass);
}

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
  branches_.s_max = model_->max_speed();
  branches_.window = window_;
  branches_.pind = model_->static_power();
  branches_.switch_time = sleep_.switch_time;
  branches_.switch_energy = sleep_.switch_energy;
  branches_.enable = idle_ == IdleDiscipline::kDormantEnable;
  if (!model_->is_continuous()) {
    power_kind_ = PowerKind::kHull;
    build_hull();
    return;
  }
  const auto* poly = dynamic_cast<const PolynomialPowerModel*>(model_.get());
  if (poly != nullptr) {
    power_kind_ = PowerKind::kPolynomial;
    poly_ = poly->polynomial();
  }
  branches_.s_lo = std::max({model_->min_speed(), branches_.s_max * 1e-12, 1e-300});
  branches_.s_crit = critical_speed(*model_);
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
    const HullPoint p{s, model_->power(s), leq_tol_limit(s)};
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
  // On a hull segment P(s) = a + k s, the awake cost W (P(s) - Pind) / s +
  // Pind D falls in s while a > Pind and rises after, and the sleep cost
  // W P(s) / s + Esw falls while a > 0 and rises after. The intercepts a
  // fall from segment to segment along a lower convex hull, so each branch
  // is least at the left end of the first segment whose intercept is at
  // most Pind (awake) or 0 (sleep), or at the top vertex when none is. The
  // closed-form body then reads the first as its speed floor and the second
  // as its critical speed; Pind >= 0 puts the critical vertex at or above
  // the floor.
  const auto first_vertex_with_intercept_at_most = [this](double level) {
    for (std::size_t i = 0; i + 1 < hull_.size(); ++i) {
      const HullPoint& a = hull_[i];
      const HullPoint& b = hull_[i + 1];
      const double intercept = a.power - a.speed * (b.power - a.power) / (b.speed - a.speed);
      if (intercept <= level) return a.speed;
    }
    return hull_.back().speed;
  };
  branches_.s_lo = first_vertex_with_intercept_at_most(branches_.pind);
  branches_.s_crit = first_vertex_with_intercept_at_most(0.0);
}

// The time-shared power of the hull at average speed `s`: the interpolation
// on the first segment whose right end v passes leq_tol(s, v), the lowest
// vertex's power at or below it, the top vertex's beyond the last. That test
// fails exactly when s > v's leq_limit, and fails for a prefix of the
// segments, so the segment index is the count of right ends whose limit s
// exceeds, taken without a branch per segment: which segment a load falls on
// is data, and a mispredicted scan costs more than the rest of the body.
inline double EnergyCurve::HullPower::operator()(double s) const {
  std::size_t k = 0;
  for (std::size_t i = 1; i < size; ++i) k += static_cast<std::size_t>(s > points[i].leq_limit);
  if (k + 1 >= size) return points[size - 1].power;
  const HullPoint& a = points[k];
  const HullPoint& b = points[k + 1];
  const double theta = (b.speed - s) / (b.speed - a.speed);
  const double shared = theta * a.power + (1.0 - theta) * b.power;
  return s <= points[0].speed ? points[0].power : shared;
}

template <typename Fn>
auto EnergyCurve::with_power(Fn&& fn) const {
  switch (power_kind_) {
    case PowerKind::kPolynomial:
      return fn(PolynomialPower{poly_});
    case PowerKind::kHull:
      return fn(HullPower{hull_.data(), hull_.size()});
    case PowerKind::kModel:
      break;
  }
  return fn(ModelPower{model_.get()});
}

// Awake branch: its cost falls until the speed floor and rises after, so run
// at the floor or as slowly as the window allows. Sleep branch: the tail must
// cover the switch, and W * P(s) / s is least at s*, so run at s* clamped
// into the speeds that leave that tail. The monotonicity arguments are in
// docs/ALGORITHMS.md §1.
template <typename Power>
inline EnergyCurve::Choice EnergyCurve::choose(const Branches& b, const Power& power,
                                               double cycles) {
  const double lo = b.speed_bound(cycles);
  const double busy = cycles / lo;
  Choice best{lo, busy, busy * power(lo) + b.pind * std::max(0.0, b.window - busy)};
  if (!b.enable) return best;
  double sleep_lo = lo;
  if (b.switch_time > 0.0) {
    if (b.window - b.switch_time <= 0.0) return best;
    sleep_lo = std::max(sleep_lo, cycles / (b.window - b.switch_time));
  }
  if (sleep_lo > b.s_max) return best;
  const double s = std::min(std::max(b.s_crit, sleep_lo), b.s_max);
  const double sleep_busy = cycles / s;
  const double idle = std::max(0.0, b.window - sleep_busy);
  if (idle < b.switch_time) return best;
  const double cost = sleep_busy * power(s) + b.switch_energy;
  if (cost < best.cost) best = Choice{s, sleep_busy, cost};
  return best;
}

double EnergyCurve::energy(double cycles) const {
  require(feasible(cycles), "EnergyCurve::energy: workload exceeds smax * window");
  // Dormant-enable processors stay dormant through an empty window.
  if (cycles <= 0.0) return branches_.enable ? 0.0 : branches_.pind * branches_.window;
  return with_power([&](const auto& power) { return choose(branches_, power, cycles).cost; });
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
  if (power_kind_ != PowerKind::kHull) {
    // P(s) / s is least at s*.
    const Branches& b = branches_;
    const double s = std::min(std::max(b.s_crit, b.speed_bound(cycles)), b.s_max);
    return with_power([&](const auto& power) { return cycles * (power(s) / s); });
  }
  const double s_avg = cycles / window_;
  double best = std::numeric_limits<double>::infinity();
  for (const HullPoint& p : hull_) {
    if (p.speed >= s_avg) best = std::min(best, cycles * p.power / p.speed);
  }
  if (s_avg >= hull_.front().speed) {
    best = std::min(best, window_ * HullPower{hull_.data(), hull_.size()}(s_avg));
  }
  RETASK_ASSERT(best < std::numeric_limits<double>::infinity());
  return best;
}

ExecutionPlan EnergyCurve::plan(double cycles) const {
  require(feasible(cycles), "EnergyCurve::plan: workload exceeds smax * window");
  ExecutionPlan out;
  if (cycles <= 0.0) {
    out.segments.push_back({0.0, window_});
    return out;
  }
  const Choice choice =
      with_power([&](const auto& power) { return choose(branches_, power, cycles); });

  if (power_kind_ != PowerKind::kHull) {
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
