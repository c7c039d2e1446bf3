// Tests for the energy-budgeted acceptance (reward-maximization dual):
// exactness of the DP against brute force, greedy/UB sandwich, budget
// monotonicity, and duality against the rejection problem.
#include "retask/core/budgeted.hpp"

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/problem.hpp"
#include "retask/power/polynomial_power.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

BudgetedProblem tiny(std::vector<FrameTask> tasks, double budget) {
  return BudgetedProblem{FrameTaskSet(std::move(tasks)),
                         EnergyCurve(PolynomialPowerModel::cubic(), 1.0,
                                     IdleDiscipline::kDormantEnable),
                         0.01, budget};
}

BudgetedProblem random_instance(std::uint64_t seed, double budget, int n = 10) {
  const RejectionProblem base = test::small_instance(seed, n, 1.6, 1.0);
  return BudgetedProblem{base.tasks(), base.curve(), base.work_per_cycle(), budget};
}

/// Brute force over all subsets (oracle for small n).
double brute_force_value(const BudgetedProblem& problem) {
  const std::size_t n = problem.tasks.size();
  double best = 0.0;
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    std::vector<bool> accepted(n);
    for (std::size_t i = 0; i < n; ++i) accepted[i] = (mask >> i) & 1u;
    try {
      best = std::max(best, make_budgeted_solution(problem, accepted).value);
    } catch (const Error&) {
      // infeasible subset
    }
  }
  return best;
}

TEST(Budgeted, ValidatesInstances) {
  EXPECT_THROW(validate(tiny({{0, 50, 1.0}}, 0.0)), Error);
  EXPECT_NO_THROW(validate(tiny({{0, 50, 1.0}}, 1.0)));
}

TEST(Budgeted, MakeSolutionEnforcesBudgetAndCapacity) {
  // E(0.8) = 0.512 under the cubic model.
  const BudgetedProblem p = tiny({{0, 80, 1.0}, {1, 50, 1.0}}, 0.55);
  EXPECT_NO_THROW(make_budgeted_solution(p, {true, false}));
  EXPECT_THROW(make_budgeted_solution(p, {true, true}), Error);  // capacity 100 < 130
  const BudgetedProblem tight = tiny({{0, 80, 1.0}}, 0.4);
  EXPECT_THROW(make_budgeted_solution(tight, {true}), Error);  // 0.512 > 0.4
}

TEST(Budgeted, DpPicksValueOverSize) {
  // Budget allows ~90 cycles' energy; one large low-value task vs two small
  // high-value ones.
  const BudgetedProblem p = tiny({{0, 80, 1.0}, {1, 40, 0.9}, {2, 40, 0.9}}, 0.52);
  const BudgetedSolution s = solve_budgeted_dp(p);
  EXPECT_FALSE(s.accepted[0]);
  EXPECT_TRUE(s.accepted[1]);
  EXPECT_TRUE(s.accepted[2]);
  EXPECT_NEAR(s.value, 1.8, 1e-12);
}

TEST(Budgeted, DpMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const double budget : {0.2, 0.5, 1.0}) {
      const BudgetedProblem p = random_instance(seed, budget);
      EXPECT_NEAR(solve_budgeted_dp(p).value, brute_force_value(p), 1e-9)
          << "seed " << seed << " budget " << budget;
    }
  }
}

TEST(Budgeted, GreedySandwichedByDpAndUpperBound) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const BudgetedProblem p = random_instance(seed, 0.6, 12);
    const double greedy = solve_budgeted_greedy(p).value;
    const double dp = solve_budgeted_dp(p).value;
    const double ub = budgeted_fractional_upper_bound(p);
    EXPECT_LE(greedy, dp + 1e-9) << "seed " << seed;
    EXPECT_LE(dp, ub + 1e-9) << "seed " << seed;
  }
}

TEST(Budgeted, ValueGrowsWithBudget) {
  const BudgetedProblem base = random_instance(4, 0.1);
  double prev = -1.0;
  for (const double budget : {0.1, 0.3, 0.6, 1.0, 2.0}) {
    BudgetedProblem p = base;
    p.energy_budget = budget;
    const double value = solve_budgeted_dp(p).value;
    EXPECT_GE(value, prev - 1e-12) << "budget " << budget;
    prev = value;
  }
}

TEST(Budgeted, GenerousBudgetAcceptsFullCapacity) {
  // With energy no object, the DP reduces to pure knapsack over cycles.
  const BudgetedProblem p = tiny({{0, 60, 1.0}, {1, 50, 2.0}, {2, 40, 0.5}}, 100.0);
  const BudgetedSolution s = solve_budgeted_dp(p);
  // Capacity 100: best pair is {1, 2} with value 2.5 (60+50 > 100, 60+40 -> 1.5).
  EXPECT_NEAR(s.value, 2.5, 1e-12);
}

TEST(Budgeted, DualityWithRejectionProblem) {
  // Solve rejection; feed the optimal energy as a budget to the dual: the
  // budgeted optimum must recover at least the accepted value of the
  // rejection optimum (it faces the same constraint that solution met).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem rej = test::small_instance(seed, 10, 1.8, 1.0);
    const RejectionSolution opt = ExactDpSolver().solve(rej);
    if (opt.energy <= 0.0) continue;
    const BudgetedProblem dual{rej.tasks(), rej.curve(), rej.work_per_cycle(),
                               opt.energy * (1.0 + 1e-9)};
    double accepted_value = 0.0;
    for (std::size_t i = 0; i < rej.size(); ++i) {
      if (opt.accepted[i]) accepted_value += rej.tasks()[i].penalty;
    }
    EXPECT_GE(solve_budgeted_dp(dual).value, accepted_value - 1e-9) << "seed " << seed;
  }
}

TEST(Budgeted, OversizedTableThrowsErrorBeforeAllocating) {
  // A 1e13-cycle capacity over 7e12 total cycles: the shared exact-DP fill
  // refuses the ~56 TB table instead of attempting the allocation.
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const double work_per_cycle = curve.max_workload() / 1e13;
  const double budget = curve.energy(curve.max_workload());
  const BudgetedProblem p{
      FrameTaskSet({{1, Cycles{4000000000000}, 5.0}, {2, Cycles{3000000000000}, 7.0}}),
      std::move(curve), work_per_cycle, budget};
  EXPECT_THROW(solve_budgeted_dp(p), Error);
}

TEST(Budgeted, ImpossibleBudgetThrows) {
  // Dormant-disable: even the empty set leaks more than the budget.
  BudgetedProblem p{FrameTaskSet({{0, 50, 1.0}}),
                    EnergyCurve(PolynomialPowerModel::xscale(), 1.0,
                                IdleDiscipline::kDormantDisable),
                    0.01, 0.01};
  EXPECT_THROW(solve_budgeted_dp(p), Error);
  EXPECT_THROW(solve_budgeted_greedy(p), Error);
}

}  // namespace
}  // namespace retask
