// Tests for the energy curve E(W): closed forms, both idle disciplines,
// discrete-speed hull behaviour, execution-plan consistency, parameterized
// property sweeps (convexity, monotonicity) across models, and the
// closed-form body reached through an opaque continuous model.
#include "retask/power/energy_curve.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/power/critical_speed.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/table_power.hpp"

namespace retask {
namespace {

TEST(EnergyCurve, RejectsNonPositiveWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  EXPECT_THROW(EnergyCurve(m, 0.0, IdleDiscipline::kDormantEnable), Error);
}

TEST(EnergyCurve, FeasibilityCapIsTopSpeedTimesWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  const EnergyCurve curve(m, 2.0, IdleDiscipline::kDormantEnable);
  EXPECT_DOUBLE_EQ(curve.max_workload(), 2.0);
  EXPECT_TRUE(curve.feasible(2.0));
  EXPECT_TRUE(curve.feasible(0.0));
  EXPECT_FALSE(curve.feasible(2.1));
  EXPECT_FALSE(curve.feasible(-0.1));
  EXPECT_THROW(curve.energy(2.5), Error);
}

TEST(EnergyCurve, CubicDormantEnableClosedForm) {
  // P(s) = s^3, sleep allowed: optimal speed is W/D, E = W^3 / D^2.
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  EXPECT_NEAR(curve.energy(0.0), 0.0, 1e-12);
  for (const double w : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_NEAR(curve.energy(w), w * w * w, 1e-6) << "W = " << w;
  }
}

TEST(EnergyCurve, CubicScalesWithWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  const EnergyCurve curve(m, 4.0, IdleDiscipline::kDormantEnable);
  // E = W^3 / D^2.
  EXPECT_NEAR(curve.energy(2.0), 8.0 / 16.0, 1e-6);
}

TEST(EnergyCurve, XscaleEnableUsesCriticalSpeedWhenLight) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  const double s_crit = m.analytic_critical_speed();
  const double light = 0.5 * s_crit;  // below the critical rate
  EXPECT_NEAR(curve.energy(light), light * m.energy_per_cycle(s_crit), 1e-6);
  // Above the critical rate the processor stretches work over the window.
  const double heavy = 0.8;
  EXPECT_NEAR(curve.energy(heavy), m.power(heavy) * 1.0, 1e-6);
}

TEST(EnergyCurve, XscaleDisablePaysLeakageForWholeWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantDisable);
  // E(W) = beta1 * D + beta2 * W^3 / D^2 (dynamic part runs at W/D).
  EXPECT_NEAR(curve.energy(0.0), 0.08, 1e-12);
  for (const double w : {0.2, 0.5, 0.9}) {
    EXPECT_NEAR(curve.energy(w), 0.08 + 1.52 * w * w * w, 1e-6) << "W = " << w;
  }
}

TEST(EnergyCurve, DisableNeverCheaperThanEnable) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve enable(m, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve disable(m, 1.0, IdleDiscipline::kDormantDisable);
  for (double w = 0.0; w <= 1.0; w += 0.05) {
    EXPECT_LE(enable.energy(w), disable.energy(w) + 1e-9) << "W = " << w;
  }
}

TEST(EnergyCurve, DiscreteHullInterpolatesBetweenSpeeds) {
  const TablePowerModel m = TablePowerModel::xscale5();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  // The 0.15 point lies above the (0,0)-(0.4,P(0.4)) hull segment, so the
  // energy at rate 0.2 is linear interpolation toward (0.4, P(0.4)).
  const double p04 = 0.08 + 1.52 * 0.4 * 0.4 * 0.4;
  EXPECT_NEAR(curve.energy(0.2), 0.5 * p04, 1e-9);
  // At an exact hull speed the energy is the table power times the window.
  EXPECT_NEAR(curve.energy(0.4), p04, 1e-9);
  EXPECT_NEAR(curve.energy(1.0), 1.6, 1e-9);
}

TEST(EnergyCurve, DiscreteNeverBeatsIdealContinuous) {
  const PolynomialPowerModel ideal = PolynomialPowerModel::xscale();
  const TablePowerModel table = TablePowerModel::xscale5();
  const EnergyCurve ic(ideal, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve tc(table, 1.0, IdleDiscipline::kDormantEnable);
  for (double w = 0.0; w <= 1.0; w += 0.04) {
    EXPECT_LE(ic.energy(w), tc.energy(w) + 1e-9) << "W = " << w;
  }
}

TEST(EnergyCurve, FinerSpeedTablesApproachTheIdealCurve) {
  const PolynomialPowerModel ideal = PolynomialPowerModel::xscale();
  const EnergyCurve ic(ideal, 1.0, IdleDiscipline::kDormantEnable);
  double coarse_gap = 0.0;
  double fine_gap = 0.0;
  const TablePowerModel coarse = TablePowerModel::sampled(0.08, 1.52, 3.0, 0.25, 1.0, 2);
  const TablePowerModel fine = TablePowerModel::sampled(0.08, 1.52, 3.0, 0.25, 1.0, 16);
  const EnergyCurve cc(coarse, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve fc(fine, 1.0, IdleDiscipline::kDormantEnable);
  for (double w = 0.05; w <= 1.0; w += 0.05) {
    coarse_gap += cc.energy(w) - ic.energy(w);
    fine_gap += fc.energy(w) - ic.energy(w);
  }
  EXPECT_GE(coarse_gap, fine_gap);
  EXPECT_GE(fine_gap, -1e-9);
}

TEST(EnergyCurve, XscaleEnableIsNonDecreasingWithNonDecreasingSlope) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  // Central differences of E, one-sided at the domain boundary.
  const double h = std::max(curve.max_workload() * 1e-7, 1e-12);
  double prev = -1.0;
  for (double w = 0.02; w <= 0.98; w += 0.04) {
    const double lo = std::max(0.0, w - h);
    const double hi = std::min(curve.max_workload(), w + h);
    const double slope = (curve.energy(hi) - curve.energy(lo)) / (hi - lo);
    EXPECT_GE(slope, -1e-9) << "E decreased at W = " << w;
    EXPECT_GE(slope, prev - 1e-6) << "slope of E decreased at W = " << w;
    prev = slope;
  }
}

TEST(EnergyCurve, CopySemantics) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve a(m, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve b = a;  // copy
  EXPECT_NEAR(a.energy(0.5), b.energy(0.5), 1e-15);
  EnergyCurve c(PolynomialPowerModel::cubic(), 2.0, IdleDiscipline::kDormantDisable);
  c = a;  // copy assign
  EXPECT_NEAR(c.energy(0.5), a.energy(0.5), 1e-15);
  EXPECT_EQ(c.window(), 1.0);
}

TEST(EnergyCurve, CopiesShareTheModelAndOutliveTheSource) {
  // Copies share one model. Once the source is gone a copy still gives the
  // source's bits, on a discrete hull and on a continuous curve with sleep
  // overheads (ContinuousCurve.OpaqueContinuousModelsMatchThePolynomialBody
  // covers a model the closed-form body reaches through a pointer).
  const IdleDiscipline enable = IdleDiscipline::kDormantEnable;
  const SleepParams sleep{0.05, 0.1};
  for (const bool discrete : {true, false}) {
    auto source = discrete ? std::make_unique<EnergyCurve>(TablePowerModel::xscale5(), 1.0,
                                                           enable, sleep)
                           : std::make_unique<EnergyCurve>(PolynomialPowerModel::xscale(), 1.0,
                                                           enable, sleep);
    const EnergyCurve copy = *source;
    EnergyCurve assigned(PolynomialPowerModel::cubic(), 2.0, IdleDiscipline::kDormantDisable);
    assigned = *source;
    EXPECT_EQ(&copy.model(), &source->model());
    EXPECT_EQ(&assigned.model(), &source->model());
    std::vector<double> want;
    for (int k = 0; k <= 100; ++k) {
      const double w = source->max_workload() * static_cast<double>(k) / 100.0;
      want.push_back(source->energy(w));
      want.push_back(source->convex_floor(w));
      want.push_back(source->plan_energy(source->plan(w)));
    }
    source.reset();
    for (const EnergyCurve* curve : {&copy, static_cast<const EnergyCurve*>(&assigned)}) {
      std::size_t j = 0;
      for (int k = 0; k <= 100; ++k) {
        const double w = curve->max_workload() * static_cast<double>(k) / 100.0;
        for (const double got :
             {curve->energy(w), curve->convex_floor(w), curve->plan_energy(curve->plan(w))}) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want[j++]))
              << (discrete ? "discrete" : "continuous") << " at W = " << w;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweep over models and disciplines.

struct CurveCase {
  const char* label;
  std::shared_ptr<const PowerModel> model;
  IdleDiscipline idle;
  double window;
};

class EnergyCurveProperty : public ::testing::TestWithParam<CurveCase> {};

TEST_P(EnergyCurveProperty, MonotoneIncreasing) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  double prev = curve.energy(0.0);
  for (int k = 1; k <= 40; ++k) {
    const double w = curve.max_workload() * static_cast<double>(k) / 40.0;
    const double e = curve.energy(w);
    EXPECT_GE(e, prev - 1e-9) << c.label << " at W = " << w;
    prev = e;
  }
}

TEST_P(EnergyCurveProperty, Convex) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  const double cap = curve.max_workload();
  for (int i = 0; i <= 20; ++i) {
    for (int j = i; j <= 20; ++j) {
      const double a = cap * static_cast<double>(i) / 20.0;
      const double b = cap * static_cast<double>(j) / 20.0;
      const double mid = 0.5 * (a + b);
      EXPECT_LE(curve.energy(mid), 0.5 * (curve.energy(a) + curve.energy(b)) + 1e-7)
          << c.label << " convexity violated at (" << a << ", " << b << ")";
    }
  }
}

TEST_P(EnergyCurveProperty, PlanReproducesWorkWindowAndEnergy) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  for (int k = 0; k <= 20; ++k) {
    const double w = curve.max_workload() * static_cast<double>(k) / 20.0;
    const ExecutionPlan plan = curve.plan(w);
    EXPECT_NEAR(plan.total_cycles(), w, 1e-6 * std::max(1.0, w)) << c.label;
    EXPECT_NEAR(plan.total_time(), c.window, 1e-6 * c.window) << c.label;
    EXPECT_NEAR(curve.plan_energy(plan), curve.energy(w),
                1e-4 * std::max(1.0, curve.energy(w)))
        << c.label << " at W = " << w;
  }
}

TEST_P(EnergyCurveProperty, ExecutionSpeedsStayInRange) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  for (int k = 1; k <= 10; ++k) {
    const double w = curve.max_workload() * static_cast<double>(k) / 10.0;
    for (const PlanSegment& seg : curve.plan(w).segments) {
      if (seg.speed > 0.0) {
        EXPECT_LE(seg.speed, c.model->max_speed() * (1.0 + 1e-9)) << c.label;
        EXPECT_GE(seg.speed, c.model->min_speed() - 1e-9) << c.label;
      }
    }
  }
}

TEST_P(EnergyCurveProperty, ConvexFloorMinorizesEnergyAndIsConvex) {
  const CurveCase& c = GetParam();
  // Free sleep / dormant-disable: the curve is convex and the floor IS the
  // curve, bit for bit. Switch overheads: the floor must stay below E
  // everywhere and keep non-decreasing chord slopes (the convexity the
  // multiprocessor lower bound's Jensen step relies on).
  for (const SleepParams sleep : {SleepParams{}, SleepParams{0.12, 0.07}}) {
    const EnergyCurve curve(*c.model, c.window, c.idle, sleep);
    const int grid = 160;
    std::vector<double> floor_at(grid + 1);
    double prev_slope = -std::numeric_limits<double>::infinity();
    for (int k = 0; k <= grid; ++k) {
      const double w = curve.max_workload() * static_cast<double>(k) / grid;
      floor_at[k] = curve.convex_floor(w);
      EXPECT_LE(floor_at[k], curve.energy(w) + 1e-12) << c.label << " w " << w;
      if (curve.convex()) {
        EXPECT_EQ(floor_at[k], curve.energy(w)) << c.label << " w " << w;
      }
      if (k > 0) {
        const double slope = floor_at[k] - floor_at[k - 1];
        EXPECT_GE(slope, prev_slope - 1e-9 * std::max(1.0, std::fabs(slope)))
            << c.label << " k " << k;
        prev_slope = slope;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDisciplines, EnergyCurveProperty,
    ::testing::Values(
        CurveCase{"cubic-enable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::cubic()),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"cubic-disable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::cubic()),
                  IdleDiscipline::kDormantDisable, 1.0},
        CurveCase{"xscale-enable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::xscale()),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"xscale-disable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::xscale()),
                  IdleDiscipline::kDormantDisable, 2.5},
        CurveCase{"xscale-minspeed",
                  std::make_shared<PolynomialPowerModel>(0.08, 1.52, 3.0, 0.2, 1.0),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"quadratic-enable",
                  std::make_shared<PolynomialPowerModel>(0.05, 1.0, 2.0, 0.0, 1.0),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"table5-enable",
                  std::make_shared<TablePowerModel>(TablePowerModel::xscale5()),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"table5-disable",
                  std::make_shared<TablePowerModel>(TablePowerModel::xscale5()),
                  IdleDiscipline::kDormantDisable, 1.0},
        CurveCase{"table2-enable",
                  std::make_shared<TablePowerModel>(
                      TablePowerModel::sampled(0.08, 1.52, 3.0, 0.5, 1.0, 2)),
                  IdleDiscipline::kDormantEnable, 3.0}),
    [](const ::testing::TestParamInfo<CurveCase>& param_info) {
      std::string label = param_info.param.label;
      for (char& ch : label) {
        if (ch == '-') ch = '_';
      }
      return label;
    });

/// XScale behind the bare PowerModel interface: a continuous model the
/// curve cannot see into, so it evaluates through the virtual power().
class OpaqueXscale final : public PowerModel {
 public:
  double power(double speed) const override { return inner_.power(speed); }
  double static_power() const override { return inner_.static_power(); }
  double min_speed() const override { return inner_.min_speed(); }
  double max_speed() const override { return inner_.max_speed(); }
  bool is_continuous() const override { return true; }
  std::vector<double> available_speeds() const override { return {}; }
  std::string name() const override { return "opaque-xscale"; }
  std::unique_ptr<PowerModel> clone() const override {
    return std::make_unique<OpaqueXscale>(*this);
  }

 private:
  PolynomialPowerModel inner_ = PolynomialPowerModel::xscale();
};

TEST(ContinuousCurve, OpaqueContinuousModelsMatchThePolynomialBody) {
  const IdleDiscipline enable = IdleDiscipline::kDormantEnable;
  for (const SleepParams sleep : {SleepParams{}, SleepParams{0.05, 0.1}}) {
    const EnergyCurve known(PolynomialPowerModel::xscale(), 1.0, enable, sleep);
    // Copies outlive their source: each must evaluate its own model.
    std::optional<EnergyCurve> copied;
    EnergyCurve assigned(PolynomialPowerModel::cubic(), 2.0, enable);
    {
      const EnergyCurve source(OpaqueXscale(), 1.0, enable, sleep);
      copied.emplace(source);
      assigned = source;
    }
    for (const EnergyCurve* opaque : {&*copied, &assigned}) {
      for (int k = 0; k <= 100; ++k) {
        const double w = static_cast<double>(k) / 100.0;
        EXPECT_EQ(opaque->energy(w), known.energy(w)) << "W = " << w;
        EXPECT_EQ(opaque->convex_floor(w), known.convex_floor(w)) << "W = " << w;
        EXPECT_EQ(opaque->plan_energy(opaque->plan(w)), known.plan_energy(known.plan(w)))
            << "W = " << w;
      }
    }
  }
}

}  // namespace
}  // namespace retask
