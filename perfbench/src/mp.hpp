// mp_many: the Fig. R19 point at m = 64, solved by mp-scale alone through
// run_mp_scale_sweep and normalized by multiproc_lower_bound.
//
// Set-up generates the instance family from the run seed and computes each
// instance's bound. One unit of work is one run_mp_scale_sweep call over a
// single instance of the family (the sweep rebuilds the instance from its
// seed, solves and validates it); one op is one instance solved.
#ifndef PERFBENCH_MP_HPP
#define PERFBENCH_MP_HPP

#include <cstdint>
#include <vector>

#include "report.hpp"
#include "retask/exp/mp_scale_sweep.hpp"
#include "retask/power/polynomial_power.hpp"

namespace perfbench {

struct MpSizes {
  int family = 0;       ///< instances in the family
  int task_count = 0;   ///< n
  int processors = 0;   ///< m
};

class MpWorkload {
 public:
  /// Set-up: builds every instance and its multiprocessor lower bound.
  MpWorkload(std::uint64_t seed, MpSizes sizes);

  std::size_t family() const { return bounds_.size(); }
  double bound(std::size_t k) const { return bounds_[k]; }

  /// Solves instance `k` (modulo the family) through run_mp_scale_sweep.
  retask::MpScaleSweepResult solve(std::size_t k) const;

 private:
  retask::MpScaleSweepConfig config_for(std::size_t k) const;

  MpSizes sizes_;
  std::uint64_t seed_;
  retask::PolynomialPowerModel model_;
  std::vector<double> bounds_;
};

/// Checks one solve: it must not have thrown (the sweep validates the
/// solution), must hold exactly one instance, must not beat `bound`, and
/// must repeat `expected` (the first-pass objective) bit for bit when given.
bool check_mp_solve(bool threw, const retask::MpScaleSweepResult& result, double bound,
                    const double* expected);

}  // namespace perfbench

#endif  // PERFBENCH_MP_HPP
