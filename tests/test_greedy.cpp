// Tests for the heuristic and baseline solvers: feasibility on every
// instance, dominance ordering, and behaviour at the penalty extremes.
#include "retask/core/greedy.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

TEST(AllAccept, KeepsEverythingWhenFeasible) {
  const RejectionProblem p = test::small_instance(1, 10, 0.8);
  const RejectionSolution s = AllAcceptSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), p.size());
  EXPECT_NEAR(s.penalty, 0.0, 1e-12);
}

TEST(AllAccept, ShedsCheapestDensityUnderOverload) {
  const RejectionProblem p = test::small_instance(2, 10, 2.0);
  const RejectionSolution s = AllAcceptSolver().solve(p);
  EXPECT_LT(s.accepted_count(), p.size());
  EXPECT_LE(p.accepted_cycles(s.accepted), p.cycle_capacity());
}

TEST(Greedy, NeverBeatsOptimal) {
  const ExactDpSolver dp;
  const DensityGreedySolver greedy;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 10, 1.6);
    EXPECT_GE(greedy.solve(p).objective(), dp.solve(p).objective() - 1e-9) << "seed " << seed;
  }
}

TEST(Greedy, RejectsFreeTasks) {
  // Penalty-free tasks should all be rejected (pure energy saving).
  const FrameTaskSet tasks({{0, 30, 0.0}, {1, 40, 0.0}, {2, 20, 100.0}});
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(tasks, std::move(curve), 0.01, 1);
  const RejectionSolution s = DensityGreedySolver().solve(p);
  EXPECT_FALSE(s.accepted[0]);
  EXPECT_FALSE(s.accepted[1]);
  EXPECT_TRUE(s.accepted[2]);
}

TEST(LocalSearch, NeverWorseThanItsDensitySeed) {
  const DensityGreedySolver seed_solver;
  const MarginalGreedySolver ls;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 1.8, 1.5);
    EXPECT_LE(ls.solve(p).objective(), seed_solver.solve(p).objective() + 1e-9)
        << "seed " << seed;
  }
}

TEST(LocalSearch, ObjectiveStaysConsistentOverLongFlipSequences) {
  // Regression: the local search used to carry the objective incrementally
  // (objective += best_delta), so float drift across many flips could let
  // "improvements" smaller than the accumulated error cycle forever and
  // return a state worse than its seed. Large instances force long flip
  // sequences; the reported objective must match an independent
  // recomputation and never regress below the density seed.
  const DensityGreedySolver seed_solver;
  const MarginalGreedySolver ls;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 40, 1.3, 0.8);
    const RejectionSolution s = ls.solve(p);
    const double recomputed = p.energy_of_cycles(p.accepted_cycles(s.accepted)) +
                              p.rejected_penalty(s.accepted);
    EXPECT_NEAR(s.objective(), recomputed, 1e-9 * std::max(1.0, recomputed)) << "seed " << seed;
    EXPECT_LE(s.objective(), seed_solver.solve(p).objective() + 1e-9) << "seed " << seed;
    // Deterministic: re-solving lands on the identical accept mask.
    EXPECT_EQ(ls.solve(p).accepted, s.accepted) << "seed " << seed;
  }
}

TEST(LocalSearch, KeepsValuableSmallTasksUnderOverload) {
  // Two large low-penalty tasks and many small high-penalty ones: the right
  // answer sheds the large tasks and keeps every small one.
  std::vector<FrameTask> tasks;
  tasks.push_back({0, 60, 0.05});
  tasks.push_back({1, 60, 0.05});
  for (int i = 2; i < 8; ++i) tasks.push_back({i, 10, 0.4});
  EnergyCurve curve(PolynomialPowerModel::cubic(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(FrameTaskSet(std::move(tasks)), std::move(curve), 0.01, 1);
  const MarginalGreedySolver ls;
  const RejectionSolution s = ls.solve(p);
  // All six small tasks are worth keeping: energy of 0.6 work = 0.216 while
  // their combined penalty is 2.4.
  for (int i = 2; i < 8; ++i) EXPECT_TRUE(s.accepted[static_cast<std::size_t>(i)]) << i;
}

TEST(LocalSearch, TiedFlipsGoToTheLowerIndex) {
  // E(W) = W^3 over a 100-cycle capacity. Feasibility makes the density seed
  // reject both identical tasks 1 and 2, and its pass then rejects task 0,
  // which frees room for one of them: re-accepting either saves 0.2 of
  // penalty for 0.152 of energy, re-accepting the second then costs 0.296.
  // The two flips tie bit for bit, and the lower index takes it.
  const FrameTaskSet tasks({{0, 50, 0.6}, {1, 20, 0.2}, {2, 20, 0.2}, {3, 40, 50.0}});
  EnergyCurve curve(PolynomialPowerModel::cubic(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(tasks, std::move(curve), 0.01, 1);
  ASSERT_EQ(DensityGreedySolver().solve(p).accepted,
            (std::vector<bool>{false, false, false, true}));
  EXPECT_EQ(MarginalGreedySolver().solve(p).accepted,
            (std::vector<bool>{false, true, false, true}));
}

TEST(Rand, ProducesFeasibleDeterministicSolutions) {
  const RandomRejectSolver rand_solver(7);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 10, 2.2);
    const RejectionSolution a = rand_solver.solve(p);
    const RejectionSolution b = rand_solver.solve(p);
    EXPECT_LE(p.accepted_cycles(a.accepted), p.cycle_capacity());
    EXPECT_EQ(a.accepted, b.accepted);  // deterministic for fixed seed
  }
}

TEST(Rand, AcceptsAllWhenFeasible) {
  const RejectionProblem p = test::small_instance(4, 10, 0.6);
  const RejectionSolution s = RandomRejectSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), p.size());
}

TEST(SingleProcSolvers, GuardMultiprocessorInstances) {
  const RejectionProblem p = test::small_instance(1, 8, 1.0, 1.0, 3);
  EXPECT_THROW(AllAcceptSolver().solve(p), Error);
  EXPECT_THROW(DensityGreedySolver().solve(p), Error);
  EXPECT_THROW(MarginalGreedySolver().solve(p), Error);
  EXPECT_THROW(RandomRejectSolver().solve(p), Error);
}

TEST(HeuristicOrdering, HoldsOnAverageAcrossInstances) {
  // Aggregate objective: OPT <= LS <= GREEDY <= RAND-ish. RAND can win on
  // individual instances by luck, so compare sums.
  const ExactDpSolver dp;
  const MarginalGreedySolver ls;
  const DensityGreedySolver greedy;
  const RandomRejectSolver rnd;
  double sum_opt = 0.0;
  double sum_ls = 0.0;
  double sum_greedy = 0.0;
  double sum_rand = 0.0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 1.8, 1.2);
    sum_opt += dp.solve(p).objective();
    sum_ls += ls.solve(p).objective();
    sum_greedy += greedy.solve(p).objective();
    sum_rand += rnd.solve(p).objective();
  }
  EXPECT_LE(sum_opt, sum_ls + 1e-9);
  EXPECT_LE(sum_ls, sum_greedy + 1e-9);
  EXPECT_LE(sum_greedy, sum_rand + 1e-9);
}

}  // namespace
}  // namespace retask
