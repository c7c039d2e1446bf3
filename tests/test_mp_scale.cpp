// Tests for the many-core scale solver: validity, the bound/baseline
// sandwich, the rounds=0 composition identity with MP-LTF-DP, bitwise
// invariance across jobs / SIMD backends, and the FFD
// placement policy under overload.
#include "retask/core/mp_scale.hpp"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "retask/core/exhaustive.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/core/multiproc.hpp"
#include "retask/obs/metrics.hpp"
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
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 16, 3.0, 1.0, 5);
    const RejectionSolution base = base_solver.solve(p);
    for (const int jobs : {1, 2, 4}) {
      MpScaleConfig config;
      config.jobs = jobs;
      EXPECT_TRUE(same_solution(MultiProcScaleSolver(config).solve(p), base))
          << "seed " << seed << " jobs " << jobs;
    }
    for (const simd::Backend backend : {simd::Backend::kScalar, simd::Backend::kSse2,
                                        simd::Backend::kAvx2, simd::Backend::kNeon}) {
      if (!simd::backend_available(backend)) continue;
      simd::ScopedBackend scope(backend);
      EXPECT_TRUE(same_solution(base_solver.solve(p), base))
          << "seed " << seed << " backend " << simd::to_string(backend);
    }
  }
}

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
TEST(MpScale, ProbeUndoOnASmallPeReplaysFromACheckpoint) {
  // Two PEs of about eight residents each. A move probe that does not pay
  // removes the task it appended, the PE's last resident; with a checkpoint
  // stride under the PE's size that replays from the last checkpoint (a
  // delta hit) instead of the whole PE (a cold fall).
  const RejectionProblem p = test::small_instance(2, 16, 1.6, 1.0, 2);
  MpScaleConfig config;
  config.max_swap_probes = 0;  // move probes only: every undo removes the last resident
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    check_solution(p, MultiProcScaleSolver(config).solve(p));
  }
  const auto counter = [&](const char* name) {
    return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
  };
  ASSERT_GT(counter("mp.move_probes"), counter("mp.moves_applied"));  // some probe undone
  EXPECT_EQ(counter("serve.cold_falls"), 0u);
  EXPECT_GT(counter("serve.delta_hits"), 0u);
}
#endif

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
