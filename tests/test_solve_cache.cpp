// Sweep-aware solve caching: warm-vs-cold bit-identity of the prefix-DP
// sweep paths, the shared energy memo, and the harness's grouped solving —
// plus the energy-monotonicity property the warm starts lean on (reading a
// smaller capacity off a larger table only works because E(W) is a pure,
// non-decreasing function of the accepted load).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "retask/cache/energy_memo.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/algorithm_registry.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/exp/workload.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/obs/metrics.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

// ---------------------------------------------------------------------------
// Energy monotonicity: E(cycles) is non-decreasing in the accepted load for
// every registered power model, both idle disciplines, and with dormant
// overheads. Executing always draws at least the idle power, so accepting
// more work can never save energy — the property the capacity warm start
// and the budget binary search both rely on.

struct MonotoneCase {
  const char* model;
  IdleDiscipline idle;
  SleepParams sleep;
};

class EnergyMonotonicity : public ::testing::TestWithParam<MonotoneCase> {};

TEST_P(EnergyMonotonicity, EnergyOfCyclesIsNonDecreasing) {
  const MonotoneCase& param = GetParam();
  const std::unique_ptr<PowerModel> model = make_model_by_name(param.model);
  const EnergyCurve curve(*model, /*window=*/1.0, param.idle, param.sleep);
  const Cycles cap = 400;
  const RejectionProblem problem(FrameTaskSet({{0, cap, 1.0}}), curve,
                                 curve.max_workload() / static_cast<double>(cap), 1);
  double previous = problem.energy_of_cycles(0);
  EXPECT_GE(previous, 0.0);
  for (Cycles c = 1; c <= cap; ++c) {
    const double energy = problem.energy_of_cycles(c);
    // Exact comparison up to accumulated rounding in the hull evaluation.
    EXPECT_GE(energy, previous - 1e-9 * std::max(1.0, previous))
        << param.model << " cycles=" << c;
    previous = energy;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EnergyMonotonicity,
    ::testing::Values(MonotoneCase{"xscale", IdleDiscipline::kDormantEnable, {}},
                      MonotoneCase{"xscale", IdleDiscipline::kDormantDisable, {}},
                      MonotoneCase{"xscale", IdleDiscipline::kDormantEnable, {0.02, 0.05}},
                      MonotoneCase{"cubic", IdleDiscipline::kDormantEnable, {}},
                      MonotoneCase{"cubic", IdleDiscipline::kDormantDisable, {}},
                      MonotoneCase{"cubic", IdleDiscipline::kDormantEnable, {0.05, 0.1}},
                      MonotoneCase{"table5", IdleDiscipline::kDormantEnable, {}},
                      MonotoneCase{"table5", IdleDiscipline::kDormantDisable, {}},
                      MonotoneCase{"table5", IdleDiscipline::kDormantEnable, {0.01, 0.02}}));

// ---------------------------------------------------------------------------
// Warm-vs-cold bit-identity: the sweep entry points promise the same bits
// as per-point cold solves, so every comparison below is exact (EXPECT_EQ
// on doubles, whole accept masks).

TEST(SweepCache, CapacitySweepMatchesColdSolvesBitForBit) {
  const std::vector<double> factors = {0.9, 0.45, 1.0, 0.6, 0.35};  // unsorted on purpose
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem base =
        test::small_instance(seed, 12, 1.5, /*penalty_scale=*/seed % 2 ? 1.0 : 0.2);
    const std::vector<RejectionProblem> points = make_capacity_sweep(base, factors);
    std::vector<const RejectionProblem*> group;
    for (const RejectionProblem& point : points) group.push_back(&point);
    const std::vector<RejectionSolution> warm = ExactDpSolver().solve_sweep(group);
    ASSERT_EQ(warm.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      const RejectionSolution cold = ExactDpSolver().solve(points[p]);
      EXPECT_EQ(warm[p].accepted, cold.accepted) << "seed=" << seed << " point=" << p;
      EXPECT_EQ(warm[p].energy, cold.energy) << "seed=" << seed << " point=" << p;
      EXPECT_EQ(warm[p].penalty, cold.penalty) << "seed=" << seed << " point=" << p;
    }
  }
}

TEST(SweepCache, SweepFallsBackWhenTaskSetsDiffer) {
  // Different seeds draw different task sets: solve_sweep must detect the
  // broken precondition and still return per-point optimal bits.
  const RejectionProblem a = test::small_instance(3, 10, 1.4);
  const RejectionProblem b = test::small_instance(4, 10, 1.4);
  const std::vector<const RejectionProblem*> group = {&a, &b};
  const std::vector<RejectionSolution> warm = ExactDpSolver().solve_sweep(group);
  ASSERT_EQ(warm.size(), 2u);
  const RejectionSolution cold_a = ExactDpSolver().solve(a);
  const RejectionSolution cold_b = ExactDpSolver().solve(b);
  EXPECT_EQ(warm[0].accepted, cold_a.accepted);
  EXPECT_EQ(warm[1].accepted, cold_b.accepted);
  EXPECT_EQ(warm[0].energy, cold_a.energy);
  EXPECT_EQ(warm[1].energy, cold_b.energy);
}

TEST(SweepCache, BudgetedSweepMatchesColdSolvesBitForBit) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem base = test::small_instance(seed, 12, 1.4);
    BudgetedProblem problem{base.tasks(), base.curve(), base.work_per_cycle(), 1.0};
    const Cycles cap = std::min<Cycles>(base.cycle_capacity(), base.tasks().total_cycles());
    ASSERT_GE(cap, 1);
    // Budgets at varied fills, deliberately out of order.
    std::vector<double> budgets;
    for (const double fill : {0.8, 0.3, 1.0, 0.55}) {
      const double budget = base.energy_of_cycles(
          std::max<Cycles>(static_cast<Cycles>(static_cast<double>(cap) * fill), 1));
      if (budget > 0.0) budgets.push_back(budget);
    }
    ASSERT_FALSE(budgets.empty());
    const std::vector<BudgetedSolution> warm = solve_budgeted_dp_sweep(problem, budgets);
    ASSERT_EQ(warm.size(), budgets.size());
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      BudgetedProblem cold_problem = problem;
      cold_problem.energy_budget = budgets[b];
      const BudgetedSolution cold = solve_budgeted_dp(cold_problem);
      EXPECT_EQ(warm[b].accepted, cold.accepted) << "seed=" << seed << " budget=" << b;
      EXPECT_EQ(warm[b].value, cold.value) << "seed=" << seed << " budget=" << b;
      EXPECT_EQ(warm[b].energy, cold.energy) << "seed=" << seed << " budget=" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// EnergyMemo: memoized lookups return the cold path's bits, per-thread
// shards never race, and a memo-attached problem is observably identical.

TEST(EnergyMemoTest, MemoizedProblemMatchesColdBits) {
  const RejectionProblem cold = test::small_instance(5, 10, 1.5);
  RejectionProblem warm = cold;
  warm.attach_energy_memo(std::make_shared<EnergyMemo>());
  for (Cycles c = 0; c <= cold.cycle_capacity(); ++c) {
    EXPECT_EQ(warm.energy_of_cycles(c), cold.energy_of_cycles(c)) << "cycles=" << c;
  }
  // Second pass hits the memo and must still return the identical bits.
  for (Cycles c = 0; c <= cold.cycle_capacity(); ++c) {
    EXPECT_EQ(warm.energy_of_cycles(c), cold.energy_of_cycles(c)) << "cycles=" << c;
  }
}

TEST(EnergyMemoTest, ComputesOncePerCyclesPerThread) {
  EnergyMemo memo;
  std::atomic<int> computes{0};
  const auto compute = [&](Cycles cycles) {
    computes.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(cycles) * 2.0;
  };
  EXPECT_EQ(memo.get_or_compute(7, compute), 14.0);
  EXPECT_EQ(memo.get_or_compute(7, compute), 14.0);
  EXPECT_EQ(memo.get_or_compute(9, compute), 18.0);
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(memo.local_size(), 2u);
  EXPECT_GE(memo.shard_count(), 1u);
}

TEST(EnergyMemoTest, SharedAcrossWorkersReturnsColdValues) {
  const RejectionProblem cold = test::small_instance(6, 10, 1.5);
  const auto memo = std::make_shared<EnergyMemo>();
  RejectionProblem warm = cold;
  warm.attach_energy_memo(memo);
  // Reference values computed before the parallel region (cold path).
  std::vector<double> expected;
  for (Cycles c = 0; c <= cold.cycle_capacity(); ++c) {
    expected.push_back(cold.energy_of_cycles(c));
  }
  const std::size_t rounds = 64;
  std::vector<double> got(rounds * expected.size(), -1.0);
  parallel_for(
      rounds,
      [&](std::size_t r) {
        // Every round revisits every cycle count, so threads repeatedly hit
        // and populate their own shards concurrently.
        for (std::size_t c = 0; c < expected.size(); ++c) {
          got[r * expected.size() + c] = warm.energy_of_cycles(static_cast<Cycles>(c));
        }
      },
      /*jobs=*/8);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i % expected.size()]);
  }
}

TEST(EnergyMemoTest, ExitedThreadsReturnTheirSlots) {
  // More short-lived threads than shard slots, one after another: each one
  // reuses a slot an exited thread returned, so every lookup hits.
  EnergyMemo memo;
  for (int t = 0; t < 300; ++t) {
    bool hit = false;
    double energy = -1.0;
    std::thread worker([&] {
      memo.record(t, 0.5 * t);
      hit = memo.lookup(t, energy);
    });
    worker.join();
    ASSERT_TRUE(hit) << "thread " << t;
    EXPECT_EQ(energy, 0.5 * t);
  }
  EXPECT_EQ(memo.shard_count(), 1u);
}

// ---------------------------------------------------------------------------
// Harness: grouped sweep solving changes nothing about the aggregates, at
// any job count.

std::vector<std::vector<AlgoStats>> run_batch(const BatchOptions& options, int jobs) {
  std::vector<ProblemFactory> factories;
  for (const double factor : {1.0, 0.8, 0.6}) {
    factories.push_back([factor](std::uint64_t seed) {
      return make_capacity_sweep(test::small_instance(seed, 10, 1.4), {factor}).front();
    });
  }
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  const auto lineup = standard_uniproc_lineup();
  return run_comparison_batch(factories, lineup, reference, /*instances=*/4,
                              /*seed0=*/11, jobs, options);
}

void expect_same_aggregates(const std::vector<std::vector<AlgoStats>>& a,
                            const std::vector<std::vector<AlgoStats>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size());
    for (std::size_t s = 0; s < a[p].size(); ++s) {
      EXPECT_EQ(a[p][s].name, b[p][s].name);
      EXPECT_EQ(a[p][s].ratio.count(), b[p][s].ratio.count());
      EXPECT_EQ(a[p][s].ratio.mean(), b[p][s].ratio.mean());
      EXPECT_EQ(a[p][s].ratio.min(), b[p][s].ratio.min());
      EXPECT_EQ(a[p][s].ratio.max(), b[p][s].ratio.max());
      EXPECT_EQ(a[p][s].acceptance.mean(), b[p][s].acceptance.mean());
      EXPECT_EQ(a[p][s].objective.mean(), b[p][s].objective.mean());
      EXPECT_EQ(a[p][s].objective.min(), b[p][s].objective.min());
      EXPECT_EQ(a[p][s].objective.max(), b[p][s].objective.max());
    }
  }
}

TEST(HarnessSweepCache, GroupedSolvingMatchesColdHarnessBitForBit) {
  BatchOptions cold;
  cold.sweep_reuse = false;
  expect_same_aggregates(run_batch(cold, /*jobs=*/1), run_batch({}, /*jobs=*/1));
}

TEST(HarnessSweepCache, GroupedSolvingIsJobCountInvariant) {
  expect_same_aggregates(run_batch({}, /*jobs=*/1), run_batch({}, /*jobs=*/8));
}

TEST(HarnessSweepCache, GridsWithoutASharedMemoAttachNone) {
  // A load sweep keeps (curve, work_per_cycle) fixed, so one memo may serve
  // the whole grid. Without one the harness attaches none: no cell counts a
  // memo lookup, and the aggregates match the memoized grid bit for bit.
  std::vector<ProblemFactory> factories;
  for (const double load : {0.8, 1.2, 1.6}) {
    factories.push_back(
        [load](std::uint64_t seed) { return test::small_instance(seed, 10, load); });
  }
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  const auto lineup = standard_uniproc_lineup();
  BatchOptions memoized;
  memoized.shared_energy_memo = std::make_shared<EnergyMemo>();
  const auto bare = run_comparison_batch(factories, lineup, reference, /*instances=*/4,
                                         /*seed0=*/11, /*jobs=*/1);
  const auto shared = run_comparison_batch(factories, lineup, reference, /*instances=*/4,
                                           /*seed0=*/11, /*jobs=*/1, memoized);
  expect_same_aggregates(bare, shared);
#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
  const obs::MetricId hits = obs::intern_metric(obs::MetricKind::kCounter, "cache.energy_hits");
  const obs::MetricId misses =
      obs::intern_metric(obs::MetricKind::kCounter, "cache.energy_misses");
  std::uint64_t shared_lookups = 0;
  for (std::size_t p = 0; p < bare.size(); ++p) {
    for (std::size_t s = 0; s < bare[p].size(); ++s) {
      EXPECT_EQ(bare[p][s].metrics.counter(hits), 0u) << bare[p][s].name << " point " << p;
      EXPECT_EQ(bare[p][s].metrics.counter(misses), 0u) << bare[p][s].name << " point " << p;
      shared_lookups += shared[p][s].metrics.counter(hits) + shared[p][s].metrics.counter(misses);
    }
  }
  EXPECT_GT(shared_lookups, 0u);
#endif
}

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
TEST(HarnessSweepCache, WarmStartCountersProveReuse) {
  const RejectionProblem base = test::small_instance(9, 12, 1.5);
  const std::vector<RejectionProblem> points =
      make_capacity_sweep(base, {1.0, 0.8, 0.6, 0.4});
  std::vector<const RejectionProblem*> group;
  for (const RejectionProblem& point : points) group.push_back(&point);
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    (void)ExactDpSolver().solve_sweep(group);
  }
  const auto counter = [&](const char* name) {
    return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
  };
  // One table fill serves all four points: 1 solve, 3 warm starts.
  EXPECT_EQ(counter("exact_dp.solves"), 1u);
  EXPECT_EQ(counter("dp.warm_starts"), 3u);
  EXPECT_EQ(counter("dp.sweep_fallbacks"), 0u);
}

TEST(HarnessSweepCache, EnergyMemoCountersProveReuse) {
  const RejectionProblem cold = test::small_instance(10, 8, 1.4);
  RejectionProblem warm = cold;
  warm.attach_energy_memo(std::make_shared<EnergyMemo>());
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    (void)warm.energy_of_cycles(5);
    (void)warm.energy_of_cycles(5);
    (void)warm.energy_of_cycles(6);
  }
  const auto counter = [&](const char* name) {
    return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
  };
  EXPECT_EQ(counter("cache.energy_misses"), 2u);
  EXPECT_EQ(counter("cache.energy_hits"), 1u);
}

TEST(EnergyMemoTest, CountsLookupsPastTheLastShardSlot) {
  // 300 threads alive at once: those past the 256th slot bypass the memo,
  // and each bypass is counted instead of vanishing silently.
  constexpr int kThreads = 300;
  EnergyMemo memo;
  const auto exhausted = [] {
    const obs::Registry totals = obs::global_snapshot();
    return totals.counter(
        obs::intern_metric(obs::MetricKind::kCounter, "cache.fallback.shards_exhausted"));
  };
  const std::uint64_t before = exhausted();
  std::barrier all_started(kThreads);
  std::atomic<int> misses{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      memo.record(t, 0.5 * t);  // takes the thread's slot
      all_started.arrive_and_wait();
      double energy = 0.0;
      if (!memo.lookup(t, energy)) misses.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_GE(misses.load(), kThreads - 256);
  EXPECT_EQ(exhausted() - before, static_cast<std::uint64_t>(misses.load()));
}
#endif  // RETASK_OBS_ENABLED

}  // namespace
}  // namespace retask
