// Tests for dormant-mode overheads: break-even analysis and the sleep-aware
// energy curve (branch structure, boundary behaviour, plan consistency).
#include "retask/power/sleep.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/power/energy_curve.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/table_power.hpp"

namespace retask {
namespace {

TEST(SleepParams, ValidationAndFreeCheck) {
  EXPECT_NO_THROW(validate(SleepParams{0.0, 0.0}));
  EXPECT_NO_THROW(validate(SleepParams{0.1, 2.0}));
  EXPECT_THROW(validate(SleepParams{-0.1, 0.0}), Error);
  EXPECT_THROW(validate(SleepParams{0.0, -1.0}), Error);
  EXPECT_TRUE(SleepParams{}.free());
  EXPECT_FALSE((SleepParams{0.0, 1.0}.free()));
}

TEST(IdleIntervalEnergy, PicksCheaperOfAwakeAndSleep) {
  const SleepParams sleep{0.2, 1.0};
  // Short interval (< tsw): must stay awake.
  EXPECT_DOUBLE_EQ(idle_interval_energy(2.0, sleep, 0.1), 0.2);
  // Long interval: sleeping (1.0) beats leaking (2.0 * 3.0).
  EXPECT_DOUBLE_EQ(idle_interval_energy(2.0, sleep, 3.0), 1.0);
  // Long interval but cheap leakage: staying awake wins.
  EXPECT_DOUBLE_EQ(idle_interval_energy(0.1, sleep, 3.0), 0.3);
  EXPECT_DOUBLE_EQ(idle_interval_energy(1.0, SleepParams{}, 5.0), 0.0);  // free sleep
  EXPECT_THROW(idle_interval_energy(1.0, sleep, -1.0), Error);
}

TEST(BreakEven, MatchesDefinition) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();  // Pind = 0.08
  EXPECT_DOUBLE_EQ(break_even_time(m, SleepParams{}), 0.0);
  // Esw / Pind = 0.4 / 0.08 = 5 dominates tsw = 1.
  EXPECT_NEAR(break_even_time(m, SleepParams{1.0, 0.4}), 5.0, 1e-12);
  // tsw dominates when Esw is tiny.
  EXPECT_NEAR(break_even_time(m, SleepParams{2.0, 0.01}), 2.0, 1e-12);
}

TEST(BreakEven, InfiniteWithoutLeakageToSave) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();  // Pind = 0
  EXPECT_TRUE(std::isinf(break_even_time(m, SleepParams{0.1, 1.0})));
  EXPECT_DOUBLE_EQ(break_even_time(m, SleepParams{0.1, 0.0}), 0.1);
}

// ---------------------------------------------------------------------------
// Sleep-aware energy curve.

TEST(SleepCurve, FreeSleepMatchesDefaultCurve) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve plain(m, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve with_sleep(m, 1.0, IdleDiscipline::kDormantEnable, SleepParams{0.0, 0.0});
  for (double w = 0.0; w <= 1.0; w += 0.05) {
    EXPECT_NEAR(plain.energy(w), with_sleep.energy(w), 1e-12) << "W = " << w;
  }
}

TEST(SleepCurve, SwitchEnergyAddsJumpAtZeroPlus) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const SleepParams sleep{0.0, 0.05};
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable, sleep);
  EXPECT_DOUBLE_EQ(curve.energy(0.0), 0.0);  // stays dormant
  // A tiny workload wakes the processor: it pays execution at the critical
  // speed plus min(leakage of the tail, Esw) — bounded below by ~Esw here.
  const double tiny = 1e-3;
  EXPECT_GT(curve.energy(tiny), 0.04);
  // The free-sleep curve has no such jump.
  const EnergyCurve free_curve(m, 1.0, IdleDiscipline::kDormantEnable);
  EXPECT_LT(free_curve.energy(tiny), 0.001);
}

TEST(SleepCurve, ChoosesAwakeTailWhenSwitchTooExpensive) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();  // Pind = 0.08
  // Esw larger than a full window of leakage: sleeping never pays.
  const SleepParams sleep{0.0, 1.0};
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable, sleep);
  const EnergyCurve disable(m, 1.0, IdleDiscipline::kDormantDisable);
  // With sleeping useless, the enable curve must match dormant-disable for
  // positive workloads (same awake-idle accounting)...
  for (double w = 0.1; w <= 1.0; w += 0.1) {
    EXPECT_NEAR(curve.energy(w), disable.energy(w), 1e-9) << "W = " << w;
  }
  // ...but not at zero, where staying dormant is free.
  EXPECT_DOUBLE_EQ(curve.energy(0.0), 0.0);
}

TEST(SleepCurve, SwitchTimeRestrictsSleepableTails) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  // Free switch energy but a switch that takes 0.5 time units: workloads
  // whose optimal tail is shorter than 0.5 cannot sleep.
  const SleepParams sleep{0.5, 0.0};
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable, sleep);
  const EnergyCurve free_curve(m, 1.0, IdleDiscipline::kDormantEnable);
  // Light load (W = 0.1): the critical-speed plan leaves a 0.66 tail, well
  // past tsw, so the curve matches free sleeping.
  EXPECT_NEAR(curve.energy(0.1), free_curve.energy(0.1), 1e-9);
  // W = 0.2: the free curve runs at s* ~ 0.2975 and sleeps through a 0.33
  // tail, which tsw = 0.5 blocks. The best sleeping plan runs at the
  // boundary speed W / (D - tsw) = 0.4 and costs 0.5 * P(0.4) = 0.08864,
  // below the awake plan at 0.2 (0.09216) but strictly above free sleep.
  EXPECT_GT(curve.energy(0.2), free_curve.energy(0.2));
  EXPECT_NEAR(curve.energy(0.2), 0.5 * m.power(0.4), 1e-12);
  // Heavy load (W = 0.9): both curves run at 0.9 for the whole window, so
  // neither has a tail to sleep through and both cost P(0.9).
  EXPECT_NEAR(curve.energy(0.9), free_curve.energy(0.9), 1e-12);
  // It must equal the awake plan "run at 0.9 for the whole window".
  const double awake = m.power(0.9) * (0.9 / 0.9) + 0.08 * (1.0 - 0.9 / 0.9);
  EXPECT_NEAR(curve.energy(0.9), awake, 1e-9);
}

TEST(SleepCurve, MonotoneEvenWithOverheads) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable, SleepParams{0.1, 0.05});
  double prev = curve.energy(0.0);
  for (int k = 1; k <= 50; ++k) {
    const double w = static_cast<double>(k) / 50.0;
    const double e = curve.energy(w);
    EXPECT_GE(e, prev - 1e-9) << "W = " << w;
    prev = e;
  }
}

TEST(SleepCurve, PlanEnergyConsistentWithOverheads) {
  const PolynomialPowerModel ideal = PolynomialPowerModel::xscale();
  const TablePowerModel table = TablePowerModel::xscale5();
  for (const PowerModel* model : {static_cast<const PowerModel*>(&ideal),
                                  static_cast<const PowerModel*>(&table)}) {
    const EnergyCurve curve(*model, 1.0, IdleDiscipline::kDormantEnable,
                            SleepParams{0.1, 0.05});
    // k starts at 1: E(0) uses the stay-dormant convention (no sleep/wake
    // pair), while an explicit all-idle plan is charged as one slept-through
    // interval — see the plan_energy contract.
    for (int k = 1; k <= 20; ++k) {
      const double w = curve.max_workload() * static_cast<double>(k) / 20.0;
      const ExecutionPlan plan = curve.plan(w);
      EXPECT_NEAR(plan.total_cycles(), w, 1e-6 * std::max(1.0, w)) << model->name();
      EXPECT_NEAR(plan.total_time(), 1.0, 1e-6) << model->name();
      EXPECT_NEAR(curve.plan_energy(plan), curve.energy(w),
                  1e-4 * std::max(1.0, curve.energy(w)))
          << model->name() << " at W = " << w;
    }
  }
}

TEST(SleepCurve, DiscreteSleepBoundaryCandidate) {
  // Table processor, tsw forcing the sleep boundary strictly between hull
  // vertices: the curve must still find the exact optimum (the boundary
  // speed candidate).
  const TablePowerModel table = TablePowerModel::xscale5();
  const SleepParams sleep{0.3, 0.01};
  const EnergyCurve curve(table, 1.0, IdleDiscipline::kDormantEnable, sleep);
  // Brute-force the decision over a dense grid of average speeds.
  const double w = 0.5;
  double brute = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= 100000; ++i) {
    const double s = 0.15 + (1.0 - 0.15) * static_cast<double>(i) / 100000.0;
    if (s < w) continue;  // busy would exceed the window
    const double busy = w / s;
    const double idle = 1.0 - busy;
    // hull interpolation equals table interpolation here (all points on hull)
    double p = 0.0;
    const double speeds[] = {0.15, 0.4, 0.6, 0.8, 1.0};
    for (int seg = 0; seg < 4; ++seg) {
      if (s >= speeds[seg] && s <= speeds[seg + 1]) {
        const double theta = (speeds[seg + 1] - s) / (speeds[seg + 1] - speeds[seg]);
        const auto pw = [](double v) { return 0.08 + 1.52 * v * v * v; };
        p = theta * pw(speeds[seg]) + (1.0 - theta) * pw(speeds[seg + 1]);
        break;
      }
    }
    const double awake = busy * p + 0.08 * idle;
    const double asleep = idle >= sleep.switch_time
                              ? busy * p + sleep.switch_energy
                              : std::numeric_limits<double>::infinity();
    brute = std::min({brute, awake, asleep});
  }
  EXPECT_NEAR(curve.energy(w), brute, 1e-5);
}

/// Time-shared power at average speed `s` on the lower convex hull of a
/// table's operating points, built here independently of EnergyCurve.
std::function<double(double)> hull_power_of(const TablePowerModel& table) {
  std::vector<OperatingPoint> hull;
  for (const OperatingPoint& p : table.points()) {
    while (hull.size() >= 2) {
      const OperatingPoint& a = hull[hull.size() - 2];
      const OperatingPoint& b = hull.back();
      if ((b.speed - a.speed) * (p.power - a.power) > (b.power - a.power) * (p.speed - a.speed)) {
        break;
      }
      hull.pop_back();
    }
    hull.push_back(p);
  }
  return [hull](double s) {
    for (std::size_t i = 0; i + 1 < hull.size(); ++i) {
      if (s <= hull[i + 1].speed) {
        const double theta = (hull[i + 1].speed - s) / (hull[i + 1].speed - hull[i].speed);
        return theta * hull[i].power + (1.0 - theta) * hull[i + 1].power;
      }
    }
    return hull.back().power;
  };
}

TEST(SleepCurve, CurvesMatchDenseGridBruteForce) {
  // Brute force over a dense grid of execution speeds: every grid speed
  // s >= W / D gives an awake plan and, when its tail covers tsw, a sleeping
  // plan, at P(s) for continuous models and at the hull's time-shared power
  // for tables. The curve's closed-form branch optima must be no worse than
  // any grid plan and no better than the best one by more than the grid's
  // resolution, and its plan must reproduce them.
  struct Case {
    const char* label;
    std::shared_ptr<const PowerModel> model;
    std::function<double(double)> power;
    IdleDiscipline idle;
    SleepParams sleep;
  };
  const auto continuous = [](const PolynomialPowerModel& model) {
    return std::pair{std::make_shared<const PolynomialPowerModel>(model),
                     std::function<double(double)>([model](double s) { return model.power(s); })};
  };
  const auto discrete = [](const TablePowerModel& table) {
    return std::pair{std::make_shared<const TablePowerModel>(table), hull_power_of(table)};
  };
  const IdleDiscipline enable = IdleDiscipline::kDormantEnable;
  const IdleDiscipline disable = IdleDiscipline::kDormantDisable;
  const auto xscale = continuous(PolynomialPowerModel::xscale());
  const auto xscale5 = discrete(TablePowerModel::xscale5());
  // The first segment's intercept at s = 0 (0.26) is above Pind (0.05), so
  // the awake branch is least at the second vertex, not the first.
  const auto steep = discrete(TablePowerModel({{0.2, 0.30}, {0.5, 0.36}, {1.0, 1.2}}, 0.05));
  const auto one_point = discrete(TablePowerModel({{0.7, 0.5}}, 0.1));
  std::vector<Case> cases;
  const auto add = [&cases](const char* label, const auto& model, IdleDiscipline idle,
                            SleepParams sleep) {
    cases.push_back({label, model.first, model.second, idle, sleep});
  };
  add("xscale-enable-free", xscale, enable, SleepParams{});
  add("xscale-Esw0.1-tsw0.05", xscale, enable, SleepParams{0.05, 0.1});
  add("xscale-Esw0-tsw0.5", xscale, enable, SleepParams{0.5, 0.0});
  add("xscale-disable", xscale, disable, SleepParams{});
  add("cubic-enable", continuous(PolynomialPowerModel::cubic()), enable, SleepParams{});
  // min_speed above the critical speed (~0.2975): s* clamps to 0.4.
  add("xscale-smin0.4", continuous(PolynomialPowerModel(0.08, 1.52, 3.0, 0.4, 1.0)), enable,
      SleepParams{});
  add("xscale5-enable-free", xscale5, enable, SleepParams{});
  add("xscale5-Esw0.01-tsw0.3", xscale5, enable, SleepParams{0.3, 0.01});
  add("xscale5-Esw0.1-tsw0.05", xscale5, enable, SleepParams{0.05, 0.1});
  add("xscale5-disable", xscale5, disable, SleepParams{});
  add("steep-enable", steep, enable, SleepParams{});
  add("steep-disable", steep, disable, SleepParams{});
  add("one-point-enable", one_point, enable, SleepParams{});
  add("one-point-Esw0.05-tsw0.2", one_point, enable, SleepParams{0.2, 0.05});

  constexpr int kGrid = 20000;
  for (const Case& c : cases) {
    const EnergyCurve curve(*c.model, 1.0, c.idle, c.sleep);
    const double pind = c.model->static_power();
    const double smax = c.model->max_speed();
    for (int k = 1; k <= 20; ++k) {
      const double w = curve.max_workload() * static_cast<double>(k) / 20.0;
      const double energy = curve.energy(w);
      const double lo = std::max(c.model->min_speed(), w);  // window D = 1
      double grid_best = std::numeric_limits<double>::infinity();
      for (int i = 0; i <= kGrid; ++i) {
        const double s = i == kGrid ? smax : lo + (smax - lo) * i / kGrid;
        const double busy = w / s;
        const double idle = std::max(0.0, 1.0 - busy);
        const double p = c.power(s);
        double cost = busy * p + pind * idle;
        if (c.idle == IdleDiscipline::kDormantEnable && idle >= c.sleep.switch_time) {
          cost = std::min(cost, busy * p + c.sleep.switch_energy);
        }
        ASSERT_LE(energy, cost * (1.0 + 1e-12))
            << c.label << " at W = " << w << ", grid speed " << s;
        grid_best = std::min(grid_best, cost);
      }
      EXPECT_NEAR(energy, grid_best, 1e-3 * grid_best) << c.label << " at W = " << w;
      EXPECT_NEAR(curve.plan_energy(curve.plan(w)), energy, 1e-12 * energy)
          << c.label << " at W = " << w;
    }
  }
}

}  // namespace
}  // namespace retask
