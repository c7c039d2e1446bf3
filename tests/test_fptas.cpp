// Tests for the FPTAS: the (1+eps) guarantee against the exact DP across a
// parameterized epsilon/load sweep, plus behavioural edge cases.
#include "retask/core/fptas.hpp"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

TEST(Fptas, RejectsNonPositiveEpsilon) {
  EXPECT_THROW(FptasSolver(0.0), Error);
  EXPECT_THROW(FptasSolver(-0.5), Error);
}

TEST(Fptas, NameIncludesEpsilon) {
  EXPECT_EQ(FptasSolver(0.25).name(), "FPTAS(0.25)");
}

TEST(Fptas, ExactOnTrivialInstances) {
  // All penalties zero: optimal objective is 0 (reject all); the FPTAS must
  // find exactly that despite the relative guarantee being vacuous at 0.
  const FrameTaskSet tasks({{0, 50, 0.0}, {1, 60, 0.0}});
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(tasks, std::move(curve), 0.01, 1);
  const RejectionSolution s = FptasSolver(0.5).solve(p);
  EXPECT_NEAR(s.objective(), 0.0, 1e-9);
}

TEST(Fptas, OversizedRoundTableThrowsErrorBeforeAllocating) {
  // A round's table has about n / epsilon rows: at epsilon 1e-9 on five
  // tasks that is billions of cells, past the DP table budget, and at 1e-20
  // more rows than a size_t cast can hold. Both must end as an Error naming
  // the table before anything is allocated, never as bad_alloc.
  const RejectionProblem p = test::small_instance(3, 5, 1.4);
  const auto message = [&](double epsilon) -> std::string {
    try {
      (void)FptasSolver(epsilon).solve(p);
    } catch (const Error& error) {
      return error.what();
    }
    return "(nothing thrown)";
  };
  EXPECT_NE(message(1e-9).find("needs "), std::string::npos) << message(1e-9);
  EXPECT_NE(message(1e-20).find("overflows size_t bytes"), std::string::npos) << message(1e-20);
}

TEST(Fptas, GuardsMultiprocessorInstances) {
  const RejectionProblem p = test::small_instance(1, 8, 1.0, 1.0, 2);
  EXPECT_THROW(FptasSolver(0.1).solve(p), Error);
}

struct FptasCase {
  double epsilon;
  double load;
  double penalty_scale;
};

class FptasGuarantee : public ::testing::TestWithParam<FptasCase> {};

TEST_P(FptasGuarantee, WithinOnePlusEpsilonOfOptimal) {
  const FptasCase& c = GetParam();
  const ExactDpSolver dp;
  const FptasSolver fptas(c.epsilon);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, c.load, c.penalty_scale);
    const double opt = dp.solve(p).objective();
    const double approx = fptas.solve(p).objective();
    EXPECT_GE(approx, opt - 1e-9) << "FPTAS beat the optimum (impossible)";
    EXPECT_LE(approx, opt * (1.0 + c.epsilon) + 1e-9)
        << "seed " << seed << " eps " << c.epsilon << " load " << c.load;
  }
}

INSTANTIATE_TEST_SUITE_P(EpsilonSweep, FptasGuarantee,
                         ::testing::Values(FptasCase{1.0, 1.5, 1.0},
                                           FptasCase{0.5, 1.5, 1.0},
                                           FptasCase{0.2, 1.5, 1.0},
                                           FptasCase{0.1, 1.5, 1.0},
                                           FptasCase{0.05, 1.5, 1.0},
                                           FptasCase{0.1, 0.7, 1.0},
                                           FptasCase{0.1, 2.5, 1.0},
                                           FptasCase{0.1, 1.5, 0.2},
                                           FptasCase{0.1, 1.5, 4.0}));

TEST(Fptas, TightEpsilonConvergesToOptimalObjective) {
  const ExactDpSolver dp;
  const RejectionProblem p = test::small_instance(3, 12, 1.8, 1.2);
  const double opt = dp.solve(p).objective();
  double prev_gap = 1e300;
  for (const double eps : {1.0, 0.3, 0.1, 0.03}) {
    const double approx = FptasSolver(eps).solve(p).objective();
    const double gap = approx - opt;
    EXPECT_LE(gap, prev_gap + 1e-9);  // gap shrinks (weakly) with epsilon
    prev_gap = std::max(gap, 0.0);
  }
  EXPECT_LE(prev_gap, 0.03 * opt + 1e-9);
}

}  // namespace
}  // namespace retask
