// Tests for the lockstep batch solver (batch/lockstep.hpp): solve_batch and
// solve_sweep_batch must reproduce per-instance base.solve() / solve_sweep()
// bit for bit on every backend, through shape grouping, ragged tails,
// lane-count fallbacks and choice-word edge widths; the harness path that
// feeds them must stay job-count invariant; and tables too large for memory
// must fail with an Error before anything is allocated.
#include "retask/batch/lockstep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/simd/backend.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

/// Every backend the host can actually execute (always includes scalar).
std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out;
  for (const simd::Backend b : {simd::Backend::kScalar, simd::Backend::kSse2,
                                simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// A same-shape fleet: one scenario config, consecutive seeds. Shape is a
/// function of the config alone (task count, capacity, curve), so every
/// member may share lockstep lanes while carrying different task data.
std::vector<RejectionProblem> make_fleet(std::size_t count, std::uint64_t seed0,
                                         int task_count = 10) {
  std::vector<RejectionProblem> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fleet.push_back(test::small_instance(seed0 + i, task_count));
  }
  return fleet;
}

/// Word-edge fleets: `count` same-shape instances at each capacity 62, 63,
/// 64, 130 and 1000. Table widths 63/64/65/131/1001 straddle the 64-cell
/// choice words, and in lockstep lane k's bits start at word k * stride / 64
/// of the shared rows. Twelve tasks of up to cap / 3 cycles populate most of
/// the table; one task per instance cannot fit (cycles > cap), so the prune
/// path runs too. Instance 0 of each fleet carries the task set seeded
/// 7000 + cap.
std::vector<std::vector<RejectionProblem>> word_edge_fleets(std::size_t count) {
  std::vector<std::vector<RejectionProblem>> fleets;
  for (const Cycles cap : {Cycles{62}, Cycles{63}, Cycles{64}, Cycles{130}, Cycles{1000}}) {
    std::vector<RejectionProblem> fleet;
    for (std::size_t v = 0; v < count; ++v) {
      Rng rng(7000 + static_cast<std::uint64_t>(cap) + 97 * v);
      std::vector<FrameTask> tasks;
      for (int i = 0; i < 12; ++i) {
        tasks.push_back({i, rng.uniform_int(1, std::max<Cycles>(1, cap / 3)),
                         rng.uniform(0.1, 5.0)});
      }
      tasks.push_back({12, cap + 5, 1.0});
      EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
      const double work_per_cycle = curve.max_workload() / static_cast<double>(cap);
      fleet.emplace_back(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
      EXPECT_EQ(fleet.back().cycle_capacity(), cap);
    }
    fleets.push_back(std::move(fleet));
  }
  return fleets;
}

std::vector<const RejectionProblem*> pointers(const std::vector<RejectionProblem>& fleet) {
  std::vector<const RejectionProblem*> out;
  out.reserve(fleet.size());
  for (const RejectionProblem& p : fleet) out.push_back(&p);
  return out;
}

/// Bit-level solution equality: the accept mask and both objective facets.
void expect_identical(const std::vector<RejectionSolution>& batched,
                      const std::vector<RejectionSolution>& solo) {
  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    EXPECT_EQ(batched[i].accepted, solo[i].accepted);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].energy),
              std::bit_cast<std::uint64_t>(solo[i].energy));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].penalty),
              std::bit_cast<std::uint64_t>(solo[i].penalty));
  }
}

std::vector<RejectionSolution> solve_solo(const RejectionSolver& base,
                                          const std::vector<const RejectionProblem*>& fleet) {
  std::vector<RejectionSolution> out;
  out.reserve(fleet.size());
  for (const RejectionProblem* p : fleet) out.push_back(base.solve(*p));
  return out;
}

/// Counter value by name, or 0 when absent (also in RETASK_OBS=OFF builds).
std::uint64_t counter_of(const obs::Registry& registry, const std::string& name) {
  for (const obs::MetricRow& row : obs::report_rows(registry)) {
    if (row.name == name) return static_cast<std::uint64_t>(row.numeric);
  }
  return 0;
}

/// True in builds that collect metrics (the counter assertions below are
/// vacuous otherwise).
bool obs_enabled() {
  obs::Registry probe;
  {
    obs::ActiveScope scope(probe);
    RETASK_COUNT("test_batch.probe", 1);
  }
  return counter_of(probe, "test_batch.probe") == 1;
}

TEST(BatchLockstep, LaneBitIdentityEveryBackendEverySolver) {
  // A seeded fleet plus the word-edge fleets (choice-word edge widths and
  // lane word offsets; see word_edge_fleets).
  std::vector<std::vector<RejectionProblem>> fleets = word_edge_fleets(8);
  fleets.insert(fleets.begin(), make_fleet(8, 101));
  std::vector<std::unique_ptr<RejectionSolver>> bases;
  bases.push_back(std::make_unique<ExactDpSolver>());
  bases.push_back(std::make_unique<DensityGreedySolver>());
  bases.push_back(std::make_unique<MarginalGreedySolver>());
  for (const simd::Backend backend : available_backends()) {
    simd::ScopedBackend forced(backend);
    for (const auto& base : bases) {
      for (const std::vector<RejectionProblem>& fleet : fleets) {
        SCOPED_TRACE(std::string(simd::to_string(backend)) + " / " + base->name() +
                     " / capacity " + std::to_string(fleet.front().cycle_capacity()));
        const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
        for (const int lanes : {4, 8}) {
          const BatchRejectionSolver batched(*base, BatchConfig{lanes});
          expect_identical(batched.solve_batch(ptrs), solve_solo(*base, ptrs));
        }
      }
    }
  }
}

TEST(BatchLockstep, RaggedTailFallsBackPerInstance) {
  // 7 instances at 4 lanes: one full chunk, one 3-wide ragged chunk — and 5
  // instances make the tail a singleton, which must fall back to base.solve.
  const ExactDpSolver base;
  for (const std::size_t count : {7u, 5u}) {
    const std::vector<RejectionProblem> fleet = make_fleet(count, 211);
    const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
    const BatchRejectionSolver batched(base, BatchConfig{4});
    obs::Registry metrics;
    std::vector<RejectionSolution> solutions;
    {
      obs::ActiveScope scope(metrics);
      solutions = batched.solve_batch(ptrs);
    }
    expect_identical(solutions, solve_solo(base, ptrs));
    if (obs_enabled()) {
      // 7 = chunks of 4+3 (lanes_filled 7, one padded lane); 5 = 4+1 (the
      // singleton tail is a scalar fallback, not a 1-lane chunk).
      EXPECT_EQ(counter_of(metrics, "batch.lanes_filled"), count == 7 ? 7u : 4u);
      EXPECT_EQ(counter_of(metrics, "batch.padding_waste"), count == 7 ? 1u : 0u);
      EXPECT_EQ(counter_of(metrics, "batch.scalar_fallbacks"), count == 7 ? 0u : 1u);
    }
  }
}

TEST(BatchLockstep, ShapeGroupingKeepsMixedFleetsApart) {
  // Interleave two shapes (different task counts); grouping must split them
  // into two lockstep groups and still return input-order solutions.
  std::vector<RejectionProblem> fleet;
  for (std::size_t i = 0; i < 4; ++i) {
    fleet.push_back(test::small_instance(301 + i, /*task_count=*/10));
    fleet.push_back(test::small_instance(351 + i, /*task_count=*/12));
  }
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  ASSERT_FALSE(same_shape(*ptrs[0], *ptrs[1]));
  ASSERT_TRUE(same_shape(*ptrs[0], *ptrs[2]));
  const MarginalGreedySolver base;
  const BatchRejectionSolver batched(base, BatchConfig{4});
  obs::Registry metrics;
  std::vector<RejectionSolution> solutions;
  {
    obs::ActiveScope scope(metrics);
    solutions = batched.solve_batch(ptrs);
  }
  expect_identical(solutions, solve_solo(base, ptrs));
  if (obs_enabled()) {
    EXPECT_EQ(counter_of(metrics, "batch.groups"), 2u);
    EXPECT_EQ(counter_of(metrics, "batch.lockstep_chunks"), 2u);
  }
}

TEST(BatchLockstep, LanesBelowTwoDisableBatching) {
  const std::vector<RejectionProblem> fleet = make_fleet(4, 401);
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  const ExactDpSolver base;
  const std::vector<RejectionSolution> solo = solve_solo(base, ptrs);
  for (const int lanes : {0, 1}) {
    obs::Registry metrics;
    std::vector<RejectionSolution> solutions;
    {
      obs::ActiveScope scope(metrics);
      solutions = BatchRejectionSolver(base, BatchConfig{lanes}).solve_batch(ptrs);
    }
    expect_identical(solutions, solo);
    if (obs_enabled()) {
      EXPECT_EQ(counter_of(metrics, "batch.scalar_fallbacks"), fleet.size());
    }
  }
  // BatchConfig{-1} defers to the process-wide knob; 0 there must disable
  // batching the same way (RETASK_BATCH=off resolves to exactly this).
  const int before = lockstep_lanes();
  set_lockstep_lanes(0);
  expect_identical(BatchRejectionSolver(base).solve_batch(ptrs), solo);
  set_lockstep_lanes(before);
}

TEST(BatchLockstep, SolverWithoutLockstepBodyFallsBack) {
  const std::vector<RejectionProblem> fleet = make_fleet(4, 501);
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  const FptasSolver base(0.1);
  const BatchRejectionSolver batched(base, BatchConfig{4});
  EXPECT_EQ(batched.name(), base.name() + "+LOCKSTEP");
  expect_identical(batched.solve_batch(ptrs), solve_solo(base, ptrs));
}

/// The harness splits the replication axis into lane blocks independently of
/// the job count, so lockstep batching must keep aggregates bit-identical at
/// jobs=1 and jobs=8 (with a lineup that exercises all three lockstep
/// bodies).
TEST(BatchLockstep, HarnessLockstepIsJobCountInvariant) {
  const auto factory = [](std::uint64_t seed) { return test::small_instance(seed, 10, 1.5); };
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<ExactDpSolver>());
  lineup.push_back(std::make_unique<DensityGreedySolver>());
  lineup.push_back(std::make_unique<MarginalGreedySolver>());
  const int before = lockstep_lanes();
  set_lockstep_lanes(4);
  const auto sequential = run_comparison(factory, lineup, reference, 14, 1, /*jobs=*/1);
  const auto parallel = run_comparison(factory, lineup, reference, 14, 1, /*jobs=*/8);
  set_lockstep_lanes(before);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t a = 0; a < sequential.size(); ++a) {
    SCOPED_TRACE(sequential[a].name);
    EXPECT_EQ(sequential[a].ratio.mean(), parallel[a].ratio.mean());
    EXPECT_EQ(sequential[a].objective.mean(), parallel[a].objective.mean());
    EXPECT_EQ(sequential[a].acceptance.mean(), parallel[a].acceptance.mean());
  }
}

/// Lockstep on and off must produce identical harness aggregates — batching
/// may only change metric attribution, never a solution bit.
TEST(BatchLockstep, HarnessLockstepMatchesUnbatchedRuns) {
  const auto factory = [](std::uint64_t seed) { return test::small_instance(seed, 10, 1.5); };
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<ExactDpSolver>());
  lineup.push_back(std::make_unique<MarginalGreedySolver>());
  const std::vector<ProblemFactory> factories{factory};
  const int before = lockstep_lanes();
  set_lockstep_lanes(8);
  const auto batched = run_comparison_batch(factories, lineup, reference, 12, 1, 0);
  set_lockstep_lanes(0);
  const auto plain = run_comparison_batch(factories, lineup, reference, 12, 1, 0);
  set_lockstep_lanes(before);
  for (std::size_t a = 0; a < lineup.size(); ++a) {
    SCOPED_TRACE(batched[0][a].name);
    EXPECT_EQ(batched[0][a].ratio.mean(), plain[0][a].ratio.mean());
    EXPECT_EQ(batched[0][a].objective.mean(), plain[0][a].objective.mean());
  }
}

/// Builds a (instance x point) capacity-sweep grid over a same-shape fleet
/// and returns pointer grids into `sweeps` (which must outlive the result).
std::vector<std::vector<const RejectionProblem*>> sweep_grids(
    const std::vector<RejectionProblem>& fleet, std::vector<std::vector<RejectionProblem>>& sweeps) {
  const std::vector<double> factors{0.5, 0.8, 1.0};
  sweeps.clear();
  sweeps.reserve(fleet.size());
  for (const RejectionProblem& instance : fleet) {
    sweeps.push_back(make_capacity_sweep(instance, factors));
  }
  std::vector<std::vector<const RejectionProblem*>> grids(sweeps.size());
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    for (const RejectionProblem& point : sweeps[i]) grids[i].push_back(&point);
  }
  return grids;
}

void expect_grid_identical(const std::vector<std::vector<RejectionSolution>>& fused,
                           const std::vector<std::vector<RejectionSolution>>& want) {
  ASSERT_EQ(fused.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("grid instance " + std::to_string(i));
    expect_identical(fused[i], want[i]);
  }
}

TEST(BatchLockstep, FusedSweepMatchesWarmAndColdEveryBackend) {
  // 5 instances at 4 lanes: one full fused chunk plus a ragged singleton
  // tail (which must take the per-instance fallback); at 8 lanes, one
  // padded chunk. Every cell must match both the instance's own warm
  // solve_sweep and a cold per-point solve, bit for bit — on a seeded
  // fleet and on the word-edge fleets, whose widest sweep point fills at
  // the edge width.
  std::vector<std::vector<RejectionProblem>> fleets = word_edge_fleets(5);
  fleets.insert(fleets.begin(), make_fleet(5, 701));
  const ExactDpSolver base;
  for (const simd::Backend backend : available_backends()) {
    simd::ScopedBackend forced(backend);
    for (const std::vector<RejectionProblem>& fleet : fleets) {
      SCOPED_TRACE(std::string(simd::to_string(backend)) + " / capacity " +
                   std::to_string(fleet.front().cycle_capacity()));
      std::vector<std::vector<RejectionProblem>> sweeps;
      const std::vector<std::vector<const RejectionProblem*>> grids = sweep_grids(fleet, sweeps);
      std::vector<std::vector<RejectionSolution>> warm(grids.size());
      std::vector<std::vector<RejectionSolution>> cold(grids.size());
      for (std::size_t i = 0; i < grids.size(); ++i) {
        warm[i] = base.solve_sweep(grids[i]);
        cold[i] = solve_solo(base, grids[i]);
      }
      expect_grid_identical(warm, cold);  // the warm baseline itself
      for (const int lanes : {4, 8}) {
        SCOPED_TRACE("lanes " + std::to_string(lanes));
        const BatchRejectionSolver batched(base, BatchConfig{lanes});
        obs::Registry metrics;
        std::vector<std::vector<RejectionSolution>> fused;
        {
          obs::ActiveScope scope(metrics);
          fused = batched.solve_sweep_batch(grids);
        }
        expect_grid_identical(fused, warm);
        if (obs_enabled()) {
          // 4 lanes: 4 fused instances x 3 points + 1 fallback; 8 lanes: all 5
          // fused. The fallback instance still warm-starts through its own
          // solve_sweep, so it never contributes fused points.
          EXPECT_EQ(counter_of(metrics, "batch.fused_sweep_points"), lanes == 4 ? 12u : 15u);
          EXPECT_EQ(counter_of(metrics, "batch.sweep_fallbacks"), lanes == 4 ? 1u : 0u);
          EXPECT_GT(counter_of(metrics, "batch.select_scan_words"), 0u);
        }
      }
    }
  }
}

TEST(BatchLockstep, FusedSweepFallsBackForNonLockstepSolversAndSingleLanes) {
  const std::vector<RejectionProblem> fleet = make_fleet(4, 801);
  std::vector<std::vector<RejectionProblem>> sweeps;
  const std::vector<std::vector<const RejectionProblem*>> grids = sweep_grids(fleet, sweeps);

  // Greedy bases have no fused sweep body: every instance falls back to its
  // own solve_sweep, bit-identically.
  const MarginalGreedySolver greedy;
  std::vector<std::vector<RejectionSolution>> want(grids.size());
  for (std::size_t i = 0; i < grids.size(); ++i) want[i] = greedy.solve_sweep(grids[i]);
  {
    obs::Registry metrics;
    std::vector<std::vector<RejectionSolution>> got;
    {
      obs::ActiveScope scope(metrics);
      got = BatchRejectionSolver(greedy, BatchConfig{4}).solve_sweep_batch(grids);
    }
    expect_grid_identical(got, want);
    if (obs_enabled()) {
      EXPECT_EQ(counter_of(metrics, "batch.sweep_fallbacks"), grids.size());
      EXPECT_EQ(counter_of(metrics, "batch.fused_sweep_points"), 0u);
    }
  }

  // Fewer than 2 lanes (RETASK_BATCH=off resolves to 0) must route the
  // exact DP through the same per-instance fallback without changing a bit.
  const ExactDpSolver exact;
  for (std::size_t i = 0; i < grids.size(); ++i) want[i] = exact.solve_sweep(grids[i]);
  for (const int lanes : {0, 1}) {
    obs::Registry metrics;
    std::vector<std::vector<RejectionSolution>> got;
    {
      obs::ActiveScope scope(metrics);
      got = BatchRejectionSolver(exact, BatchConfig{lanes}).solve_sweep_batch(grids);
    }
    expect_grid_identical(got, want);
    if (obs_enabled()) {
      EXPECT_EQ(counter_of(metrics, "batch.sweep_fallbacks"), grids.size());
      EXPECT_EQ(counter_of(metrics, "batch.fused_sweep_points"), 0u);
    }
  }
}

TEST(BatchLockstep, SolveBatchCapturesTablesForLockstepLanesOnly) {
  // Exact-DP lanes export their filled tables; fallback routes (singleton
  // tails, no-lockstep bases) leave their LockstepTables slots empty.
  const std::vector<RejectionProblem> fleet = make_fleet(5, 901);
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  const ExactDpSolver exact;
  LockstepTables tables;
  const std::vector<RejectionSolution> solved =
      BatchRejectionSolver(exact, BatchConfig{4}).solve_batch(ptrs, &tables);
  expect_identical(solved, solve_solo(exact, ptrs));
  ASSERT_EQ(tables.exports.size(), fleet.size());
  for (std::size_t i = 0; i + 1 < fleet.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    const DpTableExport& table = tables.exports[i];
    ASSERT_FALSE(table.value.empty());
    EXPECT_EQ(table.take.rows(), fleet[i].size());
    EXPECT_GE(table.checkpoint_stride, 1);
    EXPECT_EQ(table.cp_values.size(), fleet[i].size() / static_cast<std::size_t>(
                                          table.checkpoint_stride));
    EXPECT_EQ(table.cp_reach.size(), table.cp_values.size());
  }
  // The 5th instance is a singleton tail -> scalar fallback, no capture.
  EXPECT_TRUE(tables.exports.back().value.empty());

  // A base without a lockstep body captures nothing anywhere.
  const FptasSolver fptas(0.1);
  LockstepTables none;
  BatchRejectionSolver(fptas, BatchConfig{4}).solve_batch(ptrs, &none);
  ASSERT_EQ(none.exports.size(), fleet.size());
  for (const DpTableExport& table : none.exports) EXPECT_TRUE(table.value.empty());
}

/// Fused sweeps (lanes 4) and unbatched warm sweeps (lanes 0) must produce
/// identical harness aggregates — like lockstep, fusion may only change
/// metric attribution, never a solution bit.
TEST(BatchLockstep, HarnessFusedSweepMatchesUnfusedRuns) {
  const auto base_factory = [](std::uint64_t seed) { return test::small_instance(seed, 10, 1.5); };
  // A 3-point capacity sweep: same task set per seed, scaled capacity per
  // point — exactly the sweep_reuse grouping the fused path rides on.
  std::vector<ProblemFactory> factories;
  for (const double factor : {0.5, 0.8, 1.0}) {
    factories.push_back([base_factory, factor](std::uint64_t seed) {
      return make_capacity_sweep(base_factory(seed), {factor}).front();
    });
  }
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<ExactDpSolver>());
  lineup.push_back(std::make_unique<MarginalGreedySolver>());
  const int before = lockstep_lanes();
  set_lockstep_lanes(4);
  const auto fused = run_comparison_batch(factories, lineup, reference, 10, 1, 0);
  set_lockstep_lanes(0);
  const auto plain = run_comparison_batch(factories, lineup, reference, 10, 1, 0);
  set_lockstep_lanes(before);
  ASSERT_EQ(fused.size(), plain.size());
  for (std::size_t point = 0; point < fused.size(); ++point) {
    for (std::size_t a = 0; a < lineup.size(); ++a) {
      SCOPED_TRACE("point " + std::to_string(point) + " " + fused[point][a].name);
      EXPECT_EQ(fused[point][a].ratio.mean(), plain[point][a].ratio.mean());
      EXPECT_EQ(fused[point][a].objective.mean(), plain[point][a].objective.mean());
      EXPECT_EQ(fused[point][a].acceptance.mean(), plain[point][a].acceptance.mean());
    }
  }
}

TEST(BatchLockstep, SameShapeRejectsDifferentGeometry) {
  const RejectionProblem a = test::small_instance(601, 10);
  const RejectionProblem b = test::small_instance(602, 10);
  EXPECT_TRUE(same_shape(a, b));
  EXPECT_FALSE(same_shape(a, test::small_instance(603, 12)));           // task count
  EXPECT_FALSE(same_shape(a, test::small_instance(604, 10, 1.4, 1.0,   // processors
                                                  /*processors=*/2)));
  EXPECT_FALSE(same_shape(
      a, test::small_instance(605, 10, 1.4, 1.0, 1, IdleDiscipline::kDormantDisable)));  // curve
}

TEST(BatchLockstep, OversizedTablesThrowErrorBeforeAllocating) {
  // Two tasks of 4e12 and 3e12 cycles under a 1e13-cycle capacity: the fill
  // capacity is 7e12, a value row of ~56 TB per lane. Every batch shape must
  // refuse it with an Error naming the size instead of attempting the
  // allocation.
  std::vector<RejectionProblem> fleet;
  for (int k = 0; k < 3; ++k) {
    EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
    const double work_per_cycle = curve.max_workload() / 1e13;
    fleet.emplace_back(
        FrameTaskSet({{1, Cycles{4000000000000}, 5.0 + k}, {2, Cycles{3000000000000}, 7.0}}),
        std::move(curve), work_per_cycle, 1);
  }
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  const ExactDpSolver exact;
  for (const int lanes : {0, 4}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    const BatchRejectionSolver batched(exact, BatchConfig{lanes});
    EXPECT_THROW(batched.solve_batch(ptrs), Error);
    LockstepTables tables;
    EXPECT_THROW(batched.solve_batch(ptrs, &tables), Error);
    std::vector<std::vector<const RejectionProblem*>> grids;
    for (const RejectionProblem* p : ptrs) grids.push_back({p});
    EXPECT_THROW(batched.solve_sweep_batch(grids), Error);
  }
  try {
    BatchRejectionSolver(exact, BatchConfig{4}).solve_batch(ptrs);
    FAIL() << "expected an Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("bytes"), std::string::npos) << error.what();
  }
}

TEST(BatchLockstep, LaneKnobValidatesItsRange) {
  const int before = lockstep_lanes();
  EXPECT_THROW(set_lockstep_lanes(-2), Error);
  EXPECT_THROW(set_lockstep_lanes(65), Error);
  set_lockstep_lanes(before);
}

}  // namespace
}  // namespace retask
