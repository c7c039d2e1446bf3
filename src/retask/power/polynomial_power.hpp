// Ideal (continuous-speed) DVS processor with polynomial power
// `P(s) = beta1 + beta2 * s^alpha`.
//
// This is the model the evaluation style of the venue/group uses throughout:
// dynamic CMOS power is cubic-like in speed (alpha in [2, 3]), and the
// speed-independent term beta1 captures leakage. The Intel XScale preset is
// the group's standard normalization `P(s) = 0.08 + 1.52 * s^3` W with the
// top speed normalized to 1.
#ifndef RETASK_POWER_POLYNOMIAL_POWER_HPP
#define RETASK_POWER_POLYNOMIAL_POWER_HPP

#include <cmath>

#include "retask/power/power_model.hpp"

namespace retask {

/// `P(s) = beta1 + beta2 * s^alpha` as plain data, evaluated without a range
/// check. alpha 2 and 3 run a fixed multiplication chain instead of
/// std::pow: s^alpha stays within 1 ulp of std::pow at a fraction of its
/// cost. Longer chains drift further from std::pow, so every other alpha
/// keeps it. PolynomialPowerModel::power and EnergyCurve's closed-form body
/// both evaluate through here, so plans and curves agree bit for bit.
struct PowerPolynomial {
  double beta1 = 0.0;
  double beta2 = 0.0;
  double alpha = 0.0;

  double operator()(double s) const {
    if (alpha == 3.0) return beta1 + beta2 * (s * s * s);
    if (alpha == 2.0) return beta1 + beta2 * (s * s);
    return beta1 + beta2 * std::pow(s, alpha);
  }
};

/// Continuous-speed power model `P(s) = beta1 + beta2 * s^alpha` on
/// `[min_speed, max_speed]`.
class PolynomialPowerModel final : public PowerModel {
 public:
  /// Requires beta1 >= 0, beta2 > 0, alpha > 1, 0 <= min_speed < max_speed.
  PolynomialPowerModel(double beta1, double beta2, double alpha, double min_speed,
                       double max_speed);

  /// `P(s) = s^3` on (0, 1]: the pure-dynamic model used by the group's
  /// homogeneous-multiprocessor experiments.
  static PolynomialPowerModel cubic();

  /// XScale normalization `P(s) = 0.08 + 1.52 s^3` W, smax = 1.
  static PolynomialPowerModel xscale();

  double power(double speed) const override;
  double static_power() const override { return poly_.beta1; }
  double min_speed() const override { return min_speed_; }
  double max_speed() const override { return max_speed_; }
  bool is_continuous() const override { return true; }
  std::vector<double> available_speeds() const override { return {}; }
  std::string name() const override;
  std::unique_ptr<PowerModel> clone() const override;

  double beta1() const { return poly_.beta1; }
  double beta2() const { return poly_.beta2; }
  double alpha() const { return poly_.alpha; }
  /// The coefficients as power() evaluates them.
  const PowerPolynomial& polynomial() const { return poly_; }

  /// Closed-form unconstrained critical speed
  /// `s* = (beta1 / ((alpha - 1) * beta2))^(1/alpha)` (before clamping into
  /// the speed range); 0 when beta1 == 0.
  double analytic_critical_speed() const;

 private:
  PowerPolynomial poly_;
  double min_speed_;
  double max_speed_;
};

}  // namespace retask

#endif  // RETASK_POWER_POLYNOMIAL_POWER_HPP
