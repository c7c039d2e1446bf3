#include "retask/power/polynomial_power.hpp"

#include <cmath>
#include <sstream>

#include "retask/common/error.hpp"
#include "retask/common/math.hpp"

namespace retask {

PolynomialPowerModel::PolynomialPowerModel(double beta1, double beta2, double alpha,
                                           double min_speed, double max_speed)
    : poly_{beta1, beta2, alpha}, min_speed_(min_speed), max_speed_(max_speed) {
  require(beta1 >= 0.0, "PolynomialPowerModel: beta1 must be non-negative");
  require(beta2 > 0.0, "PolynomialPowerModel: beta2 must be positive");
  require(alpha > 1.0, "PolynomialPowerModel: alpha must exceed 1");
  require(min_speed >= 0.0 && min_speed < max_speed,
          "PolynomialPowerModel: requires 0 <= min_speed < max_speed");
}

PolynomialPowerModel PolynomialPowerModel::cubic() {
  return PolynomialPowerModel(0.0, 1.0, 3.0, 0.0, 1.0);
}

PolynomialPowerModel PolynomialPowerModel::xscale() {
  return PolynomialPowerModel(0.08, 1.52, 3.0, 0.0, 1.0);
}

double PolynomialPowerModel::power(double speed) const {
  require(leq_tol(min_speed_, speed) && leq_tol(speed, max_speed_),
          "PolynomialPowerModel::power: speed outside the model's range");
  return poly_(speed);
}

std::string PolynomialPowerModel::name() const {
  std::ostringstream os;
  os << "poly(" << poly_.beta1 << "+" << poly_.beta2 << "*s^" << poly_.alpha << ", s in ["
     << min_speed_ << "," << max_speed_ << "])";
  return os.str();
}

std::unique_ptr<PowerModel> PolynomialPowerModel::clone() const {
  return std::make_unique<PolynomialPowerModel>(*this);
}

double PolynomialPowerModel::analytic_critical_speed() const {
  if (poly_.beta1 == 0.0) return 0.0;
  return std::pow(poly_.beta1 / ((poly_.alpha - 1.0) * poly_.beta2), 1.0 / poly_.alpha);
}

}  // namespace retask
