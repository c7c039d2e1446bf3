// Differential test of the exact-DP fill's two representations: whichever
// path dp_fill takes (the record list to the end, or a hand-off to the dense
// relaxation), every exact-DP answer must equal a purely dense fill's bit for
// bit. The oracles never touch the list phase: DeltaSolver::admit_all for the
// rejection DP (solve and solve_sweep), and a dp_relax fill with its own
// choice bits for the budgeted DP (solve_budgeted_dp and its sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/bit_matrix.hpp"
#include "retask/common/math.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/serve/delta_solver.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

RejectionProblem on_xscale(std::vector<FrameTask> tasks, Cycles capacity) {
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const double work_per_cycle = curve.max_workload() / static_cast<double>(capacity);
  return RejectionProblem(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
}

/// Instances of every shape the fill meets, named for the failure messages.
struct NamedProblem {
  std::string name;
  RejectionProblem problem;
};

std::vector<NamedProblem> instances() {
  std::vector<NamedProblem> out;
  const PolynomialPowerModel xscale = PolynomialPowerModel::xscale();
  // Fig. R1 (the fig_load workload): n = 12 at resolution 1500 over the load axis.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const double load : {0.4, 0.8, 1.2, 2.0, 3.2}) {
      ScenarioConfig config;
      config.task_count = 12;
      config.load = load;
      config.resolution = 1500.0;
      config.seed = seed;
      out.push_back({"fig_load seed " + std::to_string(seed) + " load " + std::to_string(load),
                     make_scenario(config, xscale)});
    }
  }
  // The fig_capacity task sets at their widest point (1.25x the capacity).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ScenarioConfig config;
    config.task_count = 24;
    config.load = 1.25;
    config.resolution = 4000.0;
    config.seed = seed;
    out.push_back({"fig_capacity seed " + std::to_string(seed),
                   make_capacity_sweep(make_scenario(config, xscale), {1.25}).front()});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    out.push_back({"mp_pe seed " + std::to_string(seed), test::mp_pe_instance(seed)});
    out.push_back({"mask_width seed " + std::to_string(seed), test::mask_width_instance(seed)});
    out.push_back({"70 small tasks seed " + std::to_string(seed),
                   test::small_instance(seed, 70, 1.6)});
  }
  // Ties: equal tasks, sums that tie a single task in both cycles and
  // penalty, and zero penalties that add cycles without value. At 10 cycles
  // a unit the list hands off at once; at 1000 the ties meet in the merge.
  for (const Cycles unit : {Cycles{10}, Cycles{1000}}) {
    std::vector<FrameTask> tasks = {{0, 10, 1.0}, {1, 10, 1.0}, {2, 20, 2.0}, {3, 30, 3.0},
                                    {4, 5, 0.0},  {5, 15, 1.5}, {6, 10, 1.0}, {7, 25, 2.5}};
    for (FrameTask& task : tasks) task.cycles = task.cycles * unit / 10;
    out.push_back({"ties, unit " + std::to_string(unit), on_xscale(std::move(tasks), 6 * unit)});
  }
  out.push_back({"zero penalties", on_xscale({{0, 40, 0.0}, {1, 70, 0.0}, {2, 90, 0.0}}, 150)});
  // Pruned tasks (cycles > cap) before, between and after the others, also
  // past the 64th task.
  {
    Rng rng(31);
    std::vector<FrameTask> tasks;
    for (int i = 0; i < 72; ++i) {
      const Cycles cycles = i % 9 == 0 ? 5000 : rng.uniform_int(100, 1100);
      tasks.push_back({i, cycles, rng.uniform(0.01, 0.05)});
    }
    out.push_back({"pruned", on_xscale(std::move(tasks), 4000)});
  }
  // Word-edge capacities: value rows of 63 to 130 cells.
  for (const Cycles cap : {Cycles{62}, Cycles{63}, Cycles{64}, Cycles{65}, Cycles{127},
                           Cycles{128}, Cycles{129}}) {
    Rng rng(4000 + static_cast<std::uint64_t>(cap));
    std::vector<FrameTask> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back({i, rng.uniform_int(1, cap / 2), rng.uniform(0.1, 2.0)});
    }
    out.push_back({"word edge " + std::to_string(cap), on_xscale(std::move(tasks), cap)});
  }
  return out;
}

/// The rejection DP's dense oracle: one DeltaSolver admitting every task.
RejectionSolution dense_solve(const RejectionProblem& problem) {
  DeltaSolver oracle(problem.curve(), problem.work_per_cycle());
  return oracle.admit_all(problem.tasks().tasks());
}

void expect_same(const RejectionSolution& got, const RejectionSolution& want,
                 const std::string& where) {
  EXPECT_EQ(got.accepted, want.accepted) << where;
  EXPECT_EQ(bits(got.energy), bits(want.energy)) << where;
  EXPECT_EQ(bits(got.penalty), bits(want.penalty)) << where;
}

TEST(DpPaths, EveryInstanceReachesBothRepresentationsAndBothReasons) {
  std::size_t list_fills = 0;
  std::size_t outgrew = 0;
  std::size_t mask_width = 0;
  DpScratch table;
  for (const NamedProblem& instance : instances()) {
    const RejectionProblem& p = instance.problem;
    const DpFillCounts counts = dp_fill(table, p.tasks().tasks().data(), p.size(),
                                        static_cast<std::size_t>(dp_fill_capacity(p)));
    list_fills += counts.handoff == DpHandoff::kNone;
    outgrew += counts.handoff == DpHandoff::kListOutgrewReach;
    mask_width += counts.handoff == DpHandoff::kMaskWidth;
    if (counts.handoff == DpHandoff::kNone) {
      EXPECT_EQ(table.list_levels, p.size()) << instance.name;
      EXPECT_EQ(counts.cells_touched + counts.cells_skipped, 0u) << instance.name;
    }
  }
  EXPECT_GT(list_fills, 0u);
  EXPECT_GT(outgrew, 0u);
  EXPECT_GT(mask_width, 0u);
}

TEST(DpPaths, SolveMatchesTheDenseOracleBitwise) {
  const ExactDpSolver dp;
  for (const NamedProblem& instance : instances()) {
    expect_same(dp.solve(instance.problem), dense_solve(instance.problem), instance.name);
  }
}

TEST(DpPaths, SweepMatchesTheDenseOracleAtEveryPointBitwise) {
  const ExactDpSolver dp;
  for (const NamedProblem& instance : instances()) {
    const std::vector<RejectionProblem> points =
        make_capacity_sweep(instance.problem, {0.3, 0.55, 0.8, 1.0});
    std::vector<const RejectionProblem*> group;
    for (const RejectionProblem& point : points) group.push_back(&point);
    const std::vector<RejectionSolution> warm = dp.solve_sweep(group);
    ASSERT_EQ(warm.size(), points.size()) << instance.name;
    for (std::size_t k = 0; k < points.size(); ++k) {
      expect_same(warm[k], dense_solve(points[k]), instance.name + " point " + std::to_string(k));
    }
  }
}

/// The budgeted DP's cycle cap for `budget`: the largest cycle count whose
/// energy fits it, by the bisection solve_budgeted_dp runs.
Cycles budget_cap(const BudgetedProblem& problem, double budget) {
  const auto energy = [&](Cycles w) {
    return problem.curve.energy(problem.work_per_cycle * static_cast<double>(w));
  };
  Cycles lo = 0;
  Cycles hi = std::min(cycle_capacity_for(problem.curve, problem.work_per_cycle),
                       problem.tasks.total_cycles());
  while (lo < hi) {
    const Cycles mid = lo + (hi - lo + 1) / 2;
    if (leq_tol(energy(mid), budget)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// The budgeted DP's dense oracle: a dp_relax fill at `cap` with a choice
/// row per task, the first row of largest value over [0, cap] (row 0 when
/// nothing beats the empty set), and the backtrack through the choice bits.
BudgetedSolution dense_budgeted(const BudgetedProblem& problem, Cycles cap) {
  const auto width = static_cast<std::size_t>(cap) + 1;
  const std::vector<FrameTask>& tasks = problem.tasks.tasks();
  std::vector<double> value(width, -std::numeric_limits<double>::infinity());
  value[0] = 0.0;
  BitMatrix take;
  take.reset(tasks.size(), width);
  std::size_t reach = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    dp_relax(value.data(), take.row_words(i), width - 1, reach, tasks[i]);
  }
  std::size_t w = 0;
  for (std::size_t row = 1; row < width; ++row) {
    if (value[row] > value[w]) w = row;
  }
  std::vector<bool> accepted(tasks.size(), false);
  for (std::size_t i = tasks.size(); i-- > 0;) {
    if (take.test(i, w)) {
      accepted[i] = true;
      w -= static_cast<std::size_t>(tasks[i].cycles);
    }
  }
  EXPECT_EQ(w, 0u);
  return make_budgeted_solution(problem, std::move(accepted));
}

TEST(DpPaths, BudgetedReadOffMatchesTheDenseOracleBitwise) {
  for (const NamedProblem& instance : instances()) {
    const RejectionProblem& source = instance.problem;
    const double full = source.energy_of_cycles(
        std::min(source.tasks().total_cycles(), source.cycle_capacity()));
    BudgetedProblem problem{source.tasks(), source.curve(), source.work_per_cycle(), full};
    const std::vector<double> budgets = {0.35 * full, 0.7 * full, full};
    const std::vector<BudgetedSolution> sweep = solve_budgeted_dp_sweep(problem, budgets);
    ASSERT_EQ(sweep.size(), budgets.size()) << instance.name;
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      SCOPED_TRACE(instance.name + " budget " + std::to_string(b));
      problem.energy_budget = budgets[b];
      const BudgetedSolution want = dense_budgeted(problem, budget_cap(problem, budgets[b]));
      const BudgetedSolution got = solve_budgeted_dp(problem);
      for (const BudgetedSolution* solution : {&got, &sweep[b]}) {
        EXPECT_EQ(solution->accepted, want.accepted);
        EXPECT_EQ(bits(solution->value), bits(want.value));
        EXPECT_EQ(bits(solution->energy), bits(want.energy));
      }
    }
  }
}

}  // namespace
}  // namespace retask
