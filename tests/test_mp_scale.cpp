// Tests for the many-core scale solver: validity, the bound/baseline
// sandwich, the rounds=0 composition identity with MP-LTF-DP, bitwise
// invariance across jobs / SIMD backends, a swap probe's checkpointed
// removal, the least-loaded tie rule of the move screen, and the FFD
// placement policy under overload.
#include "retask/core/mp_scale.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "retask/core/exhaustive.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/core/multiproc.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/simd/backend.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

/// Bitwise solution equality: accept mask, placement, energy, penalty.
::testing::AssertionResult same_solution(const RejectionSolution& a,
                                         const RejectionSolution& b) {
  if (a.accepted != b.accepted) return ::testing::AssertionFailure() << "accept masks differ";
  if (a.processor_of != b.processor_of) {
    return ::testing::AssertionFailure() << "placements differ";
  }
  if (a.energy != b.energy || a.penalty != b.penalty) {
    return ::testing::AssertionFailure()
           << "objective differs: " << a.energy << "+" << a.penalty << " vs " << b.energy << "+"
           << b.penalty;
  }
  return ::testing::AssertionSuccess();
}

bool has_oversized_task(const RejectionProblem& p) {
  for (const FrameTask& task : p.tasks().tasks()) {
    if (task.cycles > p.cycle_capacity()) return true;
  }
  return false;
}

TEST(MpScale, SandwichedBetweenBoundAndLtfBaseline) {
  // LB <= OPT <= MP-SCALE <= MP-LTF-DP: the solver starts from the same LTF
  // placement and the local search only commits strict improvements.
  const MultiProcExhaustiveSolver opt;
  const MultiProcLtfRejectSolver ltf;
  const MultiProcScaleSolver scale;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const int m : {2, 3}) {
      const RejectionProblem p = test::small_instance(seed, 8, 1.9, 1.0, m);
      const RejectionSolution s = scale.solve(p);
      check_solution(p, s);
      for (const Cycles load : processor_loads(p, s)) {
        EXPECT_LE(load, p.cycle_capacity());
      }
      const double o = opt.solve(p).objective();
      const double tol = 1e-9 * std::max(1.0, o);
      EXPECT_GE(s.objective(), o - tol) << "seed " << seed << " m " << m;
      EXPECT_LE(s.objective(), ltf.solve(p).objective() + tol) << "seed " << seed;
      EXPECT_GE(s.objective(), multiproc_lower_bound(p) - tol) << "seed " << seed;
    }
  }
}

TEST(MpScale, RoundsZeroReproducesMpLtfDpBitwise) {
  // With local search off and no oversized task, phase 1 + 2 is exactly the
  // toy composition: LTF placement, per-PE exact DP.
  MpScaleConfig config;
  config.local_search_rounds = 0;
  const MultiProcScaleSolver scale(config);
  const MultiProcLtfRejectSolver ltf;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 2.4, 1.0, 3);
    if (has_oversized_task(p)) continue;
    EXPECT_TRUE(same_solution(scale.solve(p), ltf.solve(p))) << "seed " << seed;
  }
}

TEST(MpScale, MoreLocalSearchRoundsNeverHurt) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 14, 3.2, 1.0, 4);
    double prev = std::numeric_limits<double>::infinity();
    for (const int rounds : {0, 1, 2, 4}) {
      MpScaleConfig config;
      config.local_search_rounds = rounds;
      const double objective = MultiProcScaleSolver(config).solve(p).objective();
      EXPECT_LE(objective, prev + 1e-12) << "seed " << seed << " rounds " << rounds;
      prev = objective;
    }
  }
}

TEST(MpScale, BitwiseInvariantAcrossJobsAndBackends) {
  const MultiProcScaleSolver base_solver;
  // The backend legs run jobs = 1: ScopedBackend is a thread-local override,
  // and with more jobs the per-PE fills run on pool workers, which dispatch
  // to the process-wide backend instead.
  MpScaleConfig serial_config;
  serial_config.jobs = 1;
  const MultiProcScaleSolver serial_solver(serial_config);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 16, 3.0, 1.0, 5);
    const RejectionSolution base = base_solver.solve(p);
    for (const int jobs : {1, 2, 4}) {
      MpScaleConfig config;
      config.jobs = jobs;
      EXPECT_TRUE(same_solution(MultiProcScaleSolver(config).solve(p), base))
          << "seed " << seed << " jobs " << jobs;
    }
    for (const simd::Backend backend : test::available_backends()) {
      simd::ScopedBackend scope(backend);
      EXPECT_TRUE(same_solution(serial_solver.solve(p), base))
          << "seed " << seed << " backend " << simd::to_string(backend);
    }
  }
}

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
TEST(MpScale, SwapProbeRemovalOnASmallPeReplaysFromACheckpoint) {
  // Three PEs of about eight residents each. A swap probe removes the
  // target PE's largest accepted task for real and, when the swap does not
  // pay, admits it back; with a checkpoint stride under the PE's size that
  // removal replays from the last checkpoint before the task (a delta hit)
  // instead of the whole PE (a cold fall). Move probes write nothing.
  const RejectionProblem p = test::small_instance(2, 24, 2.4, 1.0, 3);
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    check_solution(p, MultiProcScaleSolver().solve(p));
  }
  const auto counter = [&](const char* name) {
    return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
  };
  ASSERT_GT(counter("mp.swap_probes"), counter("mp.swaps_applied"));  // some swap put back
  EXPECT_EQ(counter("serve.cold_falls"), 0u);
  EXPECT_GT(counter("serve.delta_hits"), 0u);
}
#endif

TEST(MpScale, MovedTaskLandsOnTheLowestIndexLeastLoadedPe) {
  // FFD packs PE 0 to its 200-cycle capacity with tasks 1-3, where each
  // 10-cycle task costs more energy than its penalty, and PE 1 takes task 4,
  // which PE 0 cannot fit. PEs 2 and 3 stay empty, tied least-loaded. Each
  // rejected task moves to the least-loaded PE other than its source, ties
  // to the lowest index: task 2 to PE 2, then task 3 to PE 3, since the
  // first move loaded PE 2.
  const EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(
      FrameTaskSet({{1, 180, 5.0}, {2, 10, 0.15}, {3, 10, 0.12}, {4, 150, 5.0}}), curve,
      1.0 / 200.0, 4);
  MpScaleConfig config;
  config.partition = PartitionPolicy::kFirstFitDecreasing;
  config.local_search_rounds = 0;
  EXPECT_EQ(MultiProcScaleSolver(config).solve(p).processor_of, (std::vector<int>{0, -1, -1, 1}));
  config.local_search_rounds = 2;
  const RejectionSolution s = MultiProcScaleSolver(config).solve(p);
  check_solution(p, s);
  EXPECT_EQ(s.processor_of, (std::vector<int>{0, 2, 3, 1}));

  // Tasks with no source: FFD fills each PE with one 190-cycle task, so the
  // two 20-cycle tasks fit nowhere and enter the search unplaced. PEs 0 and
  // 1 reject their cheap tasks, which leaves them tied at load 0: task 4
  // goes to PE 0, then task 5 to PE 1.
  const RejectionProblem overflow(
      FrameTaskSet({{1, 190, 0.05}, {2, 190, 0.05}, {3, 190, 5.0}, {4, 20, 0.3}, {5, 20, 0.25}}),
      curve, 1.0 / 200.0, 3);
  config.local_search_rounds = 0;
  EXPECT_EQ(MultiProcScaleSolver(config).solve(overflow).processor_of,
            (std::vector<int>{-1, -1, 2, -1, -1}));
  config.local_search_rounds = 2;
  const RejectionSolution placed = MultiProcScaleSolver(config).solve(overflow);
  check_solution(overflow, placed);
  EXPECT_EQ(placed.processor_of, (std::vector<int>{-1, -1, 2, 0, 1}));
}

TEST(MpScale, FfdPolicyRejectsOverflowAndStaysValid) {
  // Overloaded system under feasibility-driven FFD: whatever fits nowhere is
  // rejected up front, and the solution must still verify.
  MpScaleConfig config;
  config.partition = PartitionPolicy::kFirstFitDecreasing;
  const MultiProcScaleSolver scale(config);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 18, 6.0, 1.0, 2);
    const RejectionSolution s = scale.solve(p);
    check_solution(p, s);
    EXPECT_LT(s.accepted_count(), p.size());
    for (const Cycles load : processor_loads(p, s)) {
      EXPECT_LE(load, p.cycle_capacity());
    }
  }
}

TEST(MpScale, ManyProcessorsWithEmptyPes) {
  // m far beyond n: surplus PEs stay empty, phase 2 sees empty and 1-task
  // subproblems, and everything still verifies.
  const RejectionProblem p = test::small_instance(4, 6, 0.9, 4.0, 32);
  const RejectionSolution s = MultiProcScaleSolver().solve(p);
  check_solution(p, s);
  EXPECT_EQ(s.accepted_count(), p.size());
}

TEST(MpScale, BoundGapRecordingStaysSound) {
  MpScaleConfig config;
  config.record_bound_gap = true;
  const MultiProcScaleSolver scale(config);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 2.2, 1.0, 3);
    const RejectionSolution s = scale.solve(p);
    const double bound = multiproc_lower_bound(p);
    EXPECT_GE(s.objective(), bound - 1e-9 * std::max(1.0, bound)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace retask
