// Tests for the exact pseudo-polynomial DP: hand-checkable instances plus a
// parameterized equivalence sweep against independent exhaustive search.
#include "retask/core/exact_dp.hpp"

#include <gtest/gtest.h>

#include <string>

#include "retask/common/error.hpp"
#include "retask/core/exhaustive.hpp"
#include "retask/power/polynomial_power.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

RejectionProblem tiny(std::vector<FrameTask> tasks, double penalty_free_capacity = 100.0) {
  EnergyCurve curve(PolynomialPowerModel::cubic(), 1.0, IdleDiscipline::kDormantEnable);
  return RejectionProblem(FrameTaskSet(std::move(tasks)), std::move(curve),
                          1.0 / penalty_free_capacity, 1);
}

TEST(ExactDp, AcceptsEverythingWhenPenaltiesDominate) {
  // Light load, huge penalties: rejecting anything is clearly wrong.
  const RejectionProblem p = tiny({{0, 20, 100.0}, {1, 30, 100.0}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), 2u);
  EXPECT_NEAR(s.objective(), 0.5 * 0.5 * 0.5, 1e-6);
}

TEST(ExactDp, RejectsEverythingWhenPenaltiesAreFree) {
  const RejectionProblem p = tiny({{0, 20, 0.0}, {1, 30, 0.0}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), 0u);
  EXPECT_NEAR(s.objective(), 0.0, 1e-12);
}

TEST(ExactDp, MustRejectUnderOverload) {
  // 80 + 80 = 160 > 100: at most one task fits.
  const RejectionProblem p = tiny({{0, 80, 1.0}, {1, 80, 2.0}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), 1u);
  // Keeping the higher-penalty task is optimal: E(0.8) + 1.0 < E(0.8) + 2.0.
  EXPECT_TRUE(s.accepted[1]);
  EXPECT_NEAR(s.objective(), 0.8 * 0.8 * 0.8 + 1.0, 1e-6);
}

TEST(ExactDp, PicksCrossoverCorrectly) {
  // One task whose penalty sits exactly between reject-all and accept-all
  // energies: E(0.6) = 0.216. Penalty 0.3 > 0.216 -> accept.
  const RejectionProblem accept_case = tiny({{0, 60, 0.3}});
  EXPECT_EQ(ExactDpSolver().solve(accept_case).accepted_count(), 1u);
  // Penalty 0.1 < 0.216 -> reject.
  const RejectionProblem reject_case = tiny({{0, 60, 0.1}});
  EXPECT_EQ(ExactDpSolver().solve(reject_case).accepted_count(), 0u);
}

TEST(ExactDp, OversizedTaskIsAlwaysRejected) {
  const RejectionProblem p = tiny({{0, 150, 50.0}, {1, 40, 0.5}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_FALSE(s.accepted[0]);
}

TEST(ExactDp, OversizedTableThrowsErrorBeforeAllocating) {
  // 4e12 + 3e12 cycles under a 1e13-cycle capacity: the fill capacity is
  // 7e12, so the table (a 64-aligned value row of 7e12 + 64 doubles plus
  // two rows of choice bits) would take 57 750 000 000 528 bytes. The fill
  // must refuse it with an Error naming that size, before allocating.
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const double work_per_cycle = curve.max_workload() / 1e13;
  const RejectionProblem p(
      FrameTaskSet({{1, Cycles{4000000000000}, 5.0}, {2, Cycles{3000000000000}, 7.0}}),
      std::move(curve), work_per_cycle, 1);
  try {
    ExactDpSolver().solve(p);
    FAIL() << "expected an Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("57750000000528 bytes"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(ExactDpSolver().solve_sweep({&p, &p}), Error);
}

TEST(ExactDp, GuardsMultiprocessorInstances) {
  ScenarioConfig config;
  config.processor_count = 2;
  const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  const RejectionProblem p = make_scenario(config, model);
  EXPECT_THROW(ExactDpSolver().solve(p), Error);
}

// ---------------------------------------------------------------------------
// Property sweep: DP == exhaustive optimum on random instances across loads,
// penalty scales and idle disciplines.

struct DpSweepCase {
  double load;
  double penalty_scale;
  IdleDiscipline idle;
};

class ExactDpEquivalence : public ::testing::TestWithParam<DpSweepCase> {};

TEST_P(ExactDpEquivalence, MatchesExhaustiveOptimum) {
  const DpSweepCase& c = GetParam();
  const ExactDpSolver dp;
  const ExhaustiveSolver exhaustive;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RejectionProblem p =
        test::small_instance(seed, 9, c.load, c.penalty_scale, 1, c.idle);
    const RejectionSolution a = dp.solve(p);
    const RejectionSolution b = exhaustive.solve(p);
    EXPECT_NEAR(a.objective(), b.objective(), 1e-6 * std::max(1.0, b.objective()))
        << "seed " << seed << " load " << c.load << " scale " << c.penalty_scale;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadsAndScales, ExactDpEquivalence,
    ::testing::Values(DpSweepCase{0.6, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.0, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.6, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{2.5, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.4, 0.2, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.4, 5.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.2, 1.0, IdleDiscipline::kDormantDisable},
                      DpSweepCase{2.0, 0.5, IdleDiscipline::kDormantDisable}));

}  // namespace
}  // namespace retask
