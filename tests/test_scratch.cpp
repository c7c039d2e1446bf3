// Tests for the thread-local scratch arenas (cache/scratch.hpp): repeated
// solves on one thread must reuse the high-water-mark buffers without
// reallocating, interleaving solver families must stay safe, and arena
// reuse must never leak state from one solve into the next.
#include "retask/cache/scratch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

/// The storage of the exact-DP arena's two record lists, as an unordered
/// set: the merges swap the lists level by level, so a solve may leave each
/// buffer in the other slot.
std::vector<const void*> list_storage(const DpScratch& scratch) {
  std::vector<const void*> out;
  for (const DpRecordList* list : {&scratch.list, &scratch.spare}) {
    out.push_back(list->rows.data());
    out.push_back(list->kept.data());
    out.push_back(list->masks.data());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ScratchArena, ExactDpReusesBuffersAcrossSolves) {
  const RejectionProblem problem = test::small_instance(11, 12, 1.6);
  const ExactDpSolver solver;
  const RejectionSolution first = solver.solve(problem);

  DpScratch& scratch = dp_scratch();
  ASSERT_EQ(scratch.list_levels, problem.size());  // the list phase finished the fill
  const std::vector<const void*> storage = list_storage(scratch);
  const std::size_t* stairs_data = scratch.stairs.rows.data();
  const std::size_t capacity = scratch.list.rows.capacity() + scratch.spare.rows.capacity();
  ASSERT_GT(capacity, 0u);

  // A same-size solve must not touch the allocator: the merges write the two
  // lists in place, and the staircase is assign()ed into its own buffer.
  const RejectionSolution second = solver.solve(problem);
  EXPECT_EQ(list_storage(scratch), storage);
  EXPECT_EQ(scratch.list.rows.capacity() + scratch.spare.rows.capacity(), capacity);
  EXPECT_EQ(scratch.stairs.rows.data(), stairs_data);
  EXPECT_EQ(second.accepted, first.accepted);
  EXPECT_EQ(second.objective(), first.objective());
}

TEST(ScratchArena, FptasReusesBuffersAndGrowsMonotonically) {
  const FptasSolver solver(0.1);
  const RejectionSolution small_first = solver.solve(test::small_instance(3, 8, 1.4));
  FptasScratch& scratch = fptas_scratch();
  const std::size_t small_capacity = scratch.rej.capacity();
  ASSERT_GT(small_capacity, 0u);

  // A larger instance grows the arena; returning to the small instance then
  // reuses the grown buffers without reallocating.
  solver.solve(test::small_instance(4, 16, 1.8));
  const std::size_t grown_capacity = scratch.rej.capacity();
  EXPECT_GE(grown_capacity, small_capacity);
  const std::int64_t* rej_data = scratch.rej.data();

  const RejectionSolution small_again = solver.solve(test::small_instance(3, 8, 1.4));
  EXPECT_EQ(scratch.rej.data(), rej_data);
  EXPECT_EQ(scratch.rej.capacity(), grown_capacity);
  // Arena reuse leaves the answer bit-identical.
  EXPECT_EQ(small_again.accepted, small_first.accepted);
  EXPECT_EQ(small_again.objective(), small_first.objective());
}

TEST(ScratchArena, InterleavedSolverFamiliesStayIndependent) {
  // The exact and the budgeted DP share one arena and the FPTAS owns
  // another; each solve fills before it reads, so alternating solvers of
  // different sizes on one thread must reproduce the isolated runs bit for
  // bit.
  const RejectionProblem a = test::small_instance(21, 10, 1.5);
  const RejectionProblem b = test::small_instance(22, 12, 1.9);
  const BudgetedProblem budgeted{b.tasks(), b.curve(), b.work_per_cycle(),
                                 0.5 * b.energy_of_cycles(b.cycle_capacity())};
  const std::vector<double> budgets = {0.2 * budgeted.energy_budget, budgeted.energy_budget};
  const ExactDpSolver exact;
  const FptasSolver fptas(0.2);
  const MarginalGreedySolver greedy;

  const RejectionSolution exact_a = exact.solve(a);
  const double fptas_b = fptas.solve(b).objective();
  const double greedy_a = greedy.solve(a).objective();
  const BudgetedSolution budgeted_b = solve_budgeted_dp(budgeted);
  const std::vector<BudgetedSolution> sweep_b = solve_budgeted_dp_sweep(budgeted, budgets);

  for (int round = 0; round < 3; ++round) {
    const RejectionSolution exact_again = exact.solve(a);
    EXPECT_EQ(exact_again.accepted, exact_a.accepted);
    EXPECT_EQ(exact_again.objective(), exact_a.objective());
    const BudgetedSolution budgeted_again = solve_budgeted_dp(budgeted);
    EXPECT_EQ(budgeted_again.accepted, budgeted_b.accepted);
    EXPECT_EQ(budgeted_again.value, budgeted_b.value);
    EXPECT_EQ(fptas.solve(b).objective(), fptas_b);
    const std::vector<BudgetedSolution> sweep_again = solve_budgeted_dp_sweep(budgeted, budgets);
    ASSERT_EQ(sweep_again.size(), sweep_b.size());
    for (std::size_t k = 0; k < sweep_b.size(); ++k) {
      EXPECT_EQ(sweep_again[k].accepted, sweep_b[k].accepted) << "budget " << k;
      EXPECT_EQ(sweep_again[k].value, sweep_b[k].value) << "budget " << k;
    }
    EXPECT_EQ(greedy.solve(a).objective(), greedy_a);
  }
}

}  // namespace
}  // namespace retask
