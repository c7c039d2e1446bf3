// Unit tests for the polynomial and table power models.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/table_power.hpp"

namespace retask {
namespace {

TEST(PolynomialPower, EvaluatesCurve) {
  const PolynomialPowerModel m(0.08, 1.52, 3.0, 0.0, 1.0);
  EXPECT_NEAR(m.power(1.0), 1.6, 1e-12);
  EXPECT_NEAR(m.power(0.5), 0.08 + 1.52 * 0.125, 1e-12);
  EXPECT_DOUBLE_EQ(m.static_power(), 0.08);
  EXPECT_NEAR(m.dynamic_power(0.5), 1.52 * 0.125, 1e-12);
}

TEST(PolynomialPower, PresetsMatchTheGroupNormalization) {
  const PolynomialPowerModel xscale = PolynomialPowerModel::xscale();
  EXPECT_NEAR(xscale.power(1.0), 0.08 + 1.52, 1e-12);
  const PolynomialPowerModel cubic = PolynomialPowerModel::cubic();
  EXPECT_NEAR(cubic.power(1.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(cubic.static_power(), 0.0);
}

TEST(PolynomialPower, RejectsInvalidParameters) {
  EXPECT_THROW(PolynomialPowerModel(-0.1, 1.0, 3.0, 0.0, 1.0), Error);
  EXPECT_THROW(PolynomialPowerModel(0.0, 0.0, 3.0, 0.0, 1.0), Error);
  EXPECT_THROW(PolynomialPowerModel(0.0, 1.0, 1.0, 0.0, 1.0), Error);
  EXPECT_THROW(PolynomialPowerModel(0.0, 1.0, 3.0, 1.0, 1.0), Error);
}

TEST(PolynomialPower, RejectsOutOfRangeSpeed) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  EXPECT_THROW(m.power(1.5), Error);
  EXPECT_THROW(m.power(-0.1), Error);
}

/// Representable doubles between two non-negative values.
std::int64_t ulps_apart(double a, double b) {
  return std::llabs(std::bit_cast<std::int64_t>(a) - std::bit_cast<std::int64_t>(b));
}

TEST(PolynomialPower, IntegralExponentsStayWithinAnUlpOfPow) {
  // alpha 2 and 3 multiply instead of calling std::pow. The term s^alpha
  // stays within 1 ulp of std::pow; scaling by beta2 can round that ulp into
  // two of P(s).
  constexpr int kGrid = 200000;
  for (const double alpha : {2.0, 3.0}) {
    const PolynomialPowerModel pure(0.0, 1.0, alpha, 0.0, 1.0);
    const PolynomialPowerModel leaky(0.08, 1.52, alpha, 0.0, 1.0);
    for (int i = 0; i <= kGrid; ++i) {
      const double s = static_cast<double>(i) / kGrid;
      const double term = std::pow(s, alpha);
      ASSERT_LE(ulps_apart(pure.power(s), term), 1) << "alpha " << alpha << ", s = " << s;
      ASSERT_LE(ulps_apart(leaky.power(s), 0.08 + 1.52 * term), 2)
          << "alpha " << alpha << ", s = " << s;
    }
  }
  // Any other exponent keeps std::pow, bit for bit.
  const PolynomialPowerModel fractional(0.08, 1.52, 2.5, 0.0, 1.0);
  for (int i = 0; i <= kGrid; i += 97) {
    const double s = static_cast<double>(i) / kGrid;
    ASSERT_EQ(fractional.power(s), 0.08 + 1.52 * std::pow(s, 2.5)) << "s = " << s;
  }
}

TEST(PolynomialPower, EnergyPerCycleIsPowerOverSpeed) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  EXPECT_NEAR(m.energy_per_cycle(0.8), m.power(0.8) / 0.8, 1e-12);
}

TEST(PolynomialPower, AnalyticCriticalSpeed) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const double expected = std::pow(0.08 / (2.0 * 1.52), 1.0 / 3.0);
  EXPECT_NEAR(m.analytic_critical_speed(), expected, 1e-12);
  EXPECT_DOUBLE_EQ(PolynomialPowerModel::cubic().analytic_critical_speed(), 0.0);
}

TEST(PolynomialPower, CloneIsIndependentCopy) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const auto copy = m.clone();
  EXPECT_NEAR(copy->power(0.6), m.power(0.6), 1e-15);
  EXPECT_TRUE(copy->is_continuous());
  EXPECT_TRUE(copy->available_speeds().empty());
}

TEST(TablePower, SortsAndValidatesPoints) {
  const TablePowerModel m({{1.0, 1.6}, {0.5, 0.3}}, 0.1);
  EXPECT_DOUBLE_EQ(m.min_speed(), 0.5);
  EXPECT_DOUBLE_EQ(m.max_speed(), 1.0);
  EXPECT_FALSE(m.is_continuous());
  const auto speeds = m.available_speeds();
  ASSERT_EQ(speeds.size(), 2u);
  EXPECT_DOUBLE_EQ(speeds[0], 0.5);
  EXPECT_DOUBLE_EQ(speeds[1], 1.0);
}

TEST(TablePower, PowerOnlyAtListedSpeeds) {
  const TablePowerModel m({{0.5, 0.3}, {1.0, 1.6}}, 0.1);
  EXPECT_DOUBLE_EQ(m.power(0.5), 0.3);
  EXPECT_DOUBLE_EQ(m.power(1.0), 1.6);
  EXPECT_THROW(m.power(0.75), Error);
}

TEST(TablePower, RejectsInvalidTables) {
  EXPECT_THROW(TablePowerModel({}, 0.0), Error);
  // Duplicate speed.
  EXPECT_THROW(TablePowerModel({{0.5, 0.3}, {0.5, 0.4}}, 0.0), Error);
  // Dominated point (power not increasing).
  EXPECT_THROW(TablePowerModel({{0.5, 0.5}, {1.0, 0.4}}, 0.0), Error);
  // Idle power above the lowest operating point.
  EXPECT_THROW(TablePowerModel({{0.5, 0.3}}, 0.4), Error);
}

TEST(TablePower, SampledMatchesPolynomialCurve) {
  const TablePowerModel m = TablePowerModel::sampled(0.08, 1.52, 3.0, 0.2, 1.0, 5);
  const auto speeds = m.available_speeds();
  ASSERT_EQ(speeds.size(), 5u);
  EXPECT_DOUBLE_EQ(speeds.front(), 0.2);
  EXPECT_DOUBLE_EQ(speeds.back(), 1.0);
  for (const double s : speeds) {
    EXPECT_NEAR(m.power(s), 0.08 + 1.52 * s * s * s, 1e-12);
  }
  EXPECT_DOUBLE_EQ(m.static_power(), 0.08);
}

TEST(TablePower, Xscale5Preset) {
  const TablePowerModel m = TablePowerModel::xscale5();
  EXPECT_EQ(m.available_speeds().size(), 5u);
  EXPECT_DOUBLE_EQ(m.max_speed(), 1.0);
  EXPECT_NEAR(m.power(1.0), 1.6, 1e-12);
}

TEST(TablePower, CloneIsIndependentCopy) {
  const TablePowerModel m = TablePowerModel::xscale5();
  const auto copy = m.clone();
  EXPECT_FALSE(copy->is_continuous());
  EXPECT_EQ(copy->available_speeds().size(), 5u);
}

}  // namespace
}  // namespace retask
