// DeltaSolver: the serve-mode incremental exact solver. The contract under
// test is strict bit-identity with cold ExactDpSolver solves over the same
// resident set after every mutation — admits (one relaxation row), removals
// and reprices (checkpointed replay), and the cold-fall path (change inside
// the first checkpoint stride) — and of a read-only probe with the admit
// that follows it.
#include "retask/serve/delta_solver.hpp"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/task/generator.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

EnergyCurve xscale_curve() {
  return EnergyCurve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
}

constexpr double kWpc = 1.0 / 200.0;  // 200 cycles fit at top speed

void expect_matches_cold(const DeltaSolver& delta, const char* where) {
  const RejectionSolution cold = ExactDpSolver().solve(delta.make_problem());
  const RejectionSolution& live = delta.solution();
  EXPECT_EQ(live.accepted, cold.accepted) << where;
  EXPECT_EQ(live.energy, cold.energy) << where;
  EXPECT_EQ(live.penalty, cold.penalty) << where;
}

std::vector<FrameTask> mixed_tasks() {
  // Loads past capacity so some admissions force rejections/evictions.
  return {{1, 80, 0.6}, {2, 120, 1.5}, {3, 40, 0.2}, {4, 90, 2.0},
          {5, 60, 0.4}, {6, 150, 3.0}, {7, 30, 0.1}, {8, 70, 0.9}};
}

TEST(DeltaSolver, AdmitMatchesColdSolveStepByStep) {
  DeltaSolver delta(xscale_curve(), kWpc);
  for (const FrameTask& task : mixed_tasks()) {
    const RejectionSolution& live = delta.admit(task);
    EXPECT_EQ(live.accepted.size(), delta.size());
    expect_matches_cold(delta, "admit");
  }
  EXPECT_EQ(delta.delta_hits(), mixed_tasks().size());
  EXPECT_EQ(delta.cold_falls(), 0u);
}

TEST(DeltaSolver, RemoveMatchesColdSolveAtCheckpointBoundaries) {
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  // Removal indices straddling the stride: before the first checkpoint
  // (cold fall), exactly at one, and between two.
  for (const int victim : {1, 4, 5, 8}) {
    DeltaSolver delta(xscale_curve(), kWpc, config);
    for (const FrameTask& task : mixed_tasks()) delta.admit(task);
    delta.remove(victim);
    EXPECT_FALSE(delta.contains(victim));
    expect_matches_cold(delta, "remove");
  }
}

TEST(DeltaSolver, RepriceMatchesColdSolve) {
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  DeltaSolver delta(xscale_curve(), kWpc, config);
  for (const FrameTask& task : mixed_tasks()) delta.admit(task);
  // Cheap -> expensive flips the verdict for a previously rejected task.
  delta.reprice(6, 50.0);
  expect_matches_cold(delta, "reprice up");
  EXPECT_TRUE(delta.solution().accepted[delta.index_of(6)]);
  delta.reprice(6, 1e-3);
  expect_matches_cold(delta, "reprice down");
}

TEST(DeltaSolver, ChangeInsideFirstStrideIsACountedColdFall) {
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  DeltaSolver delta(xscale_curve(), kWpc, config);
  for (const FrameTask& task : mixed_tasks()) delta.admit(task);
  const std::uint64_t colds = delta.cold_falls();
  delta.remove(1);  // index 0: no checkpoint survives
  EXPECT_EQ(delta.cold_falls(), colds + 1);
  expect_matches_cold(delta, "cold fall");
}

TEST(DeltaSolver, DrainToEmptyAndRefill) {
  DeltaSolver delta(xscale_curve(), kWpc);
  for (const FrameTask& task : mixed_tasks()) delta.admit(task);
  for (const FrameTask& task : mixed_tasks()) {
    delta.remove(task.id);
    expect_matches_cold(delta, "drain");
  }
  EXPECT_EQ(delta.size(), 0u);
  EXPECT_TRUE(delta.solution().accepted.empty());
  EXPECT_EQ(delta.accepted_load(), 0);
  delta.admit({42, 100, 1.0});
  expect_matches_cold(delta, "refill");
  EXPECT_TRUE(delta.solution().accepted[0]);
}

TEST(DeltaSolver, InfeasibleTaskIsAlwaysRejected) {
  DeltaSolver delta(xscale_curve(), kWpc);
  // More cycles than the platform fits at top speed: must reject, and the
  // penalty must show up in the objective.
  const RejectionSolution& sol = delta.admit({1, 10000, 5.0});
  EXPECT_FALSE(sol.accepted[0]);
  EXPECT_EQ(sol.penalty, 5.0);
  expect_matches_cold(delta, "infeasible");
}

TEST(DeltaSolver, RejectsDuplicateAndUnknownIds) {
  DeltaSolver delta(xscale_curve(), kWpc);
  delta.admit({1, 50, 1.0});
  EXPECT_THROW(delta.admit({1, 60, 2.0}), Error);
  EXPECT_THROW(delta.remove(99), Error);
  EXPECT_THROW(delta.reprice(99, 1.0), Error);
  // Failed requests leave the resident set untouched.
  EXPECT_EQ(delta.size(), 1u);
  expect_matches_cold(delta, "after errors");
}

TEST(DeltaSolver, RandomWalkStaysBitIdenticalToColdSolves) {
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  DeltaSolver delta(xscale_curve(), kWpc, config);
  Rng rng(2026);
  int next_id = 1;
  for (int step = 0; step < 200; ++step) {
    const std::int64_t op = rng.uniform_int(0, 2);
    if (op == 0 || delta.size() == 0) {
      delta.admit({next_id++, rng.uniform_int(10, 220), rng.uniform(0.05, 3.0)});
    } else if (op == 1) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(delta.size()) - 1));
      delta.remove(delta.resident()[at].id);
    } else {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(delta.size()) - 1));
      delta.reprice(delta.resident()[at].id, rng.uniform(0.05, 3.0));
    }
    expect_matches_cold(delta, "walk");
    if (HasFailure()) break;
  }
  EXPECT_GT(delta.delta_hits(), 0u);
}

TEST(DeltaSolver, AdmitAllMatchesOneAtATimeAdmitsBitwise) {
  // The bulk seeding path of the multiprocessor local search: identical
  // final state to sequential admits, only the intermediate selects skipped.
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  DeltaSolver bulk(xscale_curve(), kWpc, config);
  DeltaSolver stepwise(xscale_curve(), kWpc, config);
  bulk.admit_all(mixed_tasks());
  for (const FrameTask& task : mixed_tasks()) stepwise.admit(task);
  EXPECT_EQ(bulk.solution().accepted, stepwise.solution().accepted);
  EXPECT_EQ(bulk.solution().energy, stepwise.solution().energy);
  EXPECT_EQ(bulk.solution().penalty, stepwise.solution().penalty);
  EXPECT_EQ(bulk.accepted_load(), stepwise.accepted_load());
  expect_matches_cold(bulk, "admit_all");
  // Later mutations replay through the same checkpoints either way.
  bulk.remove(5);
  stepwise.remove(5);
  EXPECT_EQ(bulk.solution().accepted, stepwise.solution().accepted);
  expect_matches_cold(bulk, "remove after admit_all");
  EXPECT_THROW(bulk.admit_all({{20, 10, 0.1}, {20, 12, 0.2}}), Error);
}

TEST(DeltaSolver, ValueRowOverTheBudgetThrowsBeforeAllocating) {
  // About 1e12 cycles fit at top speed, so the value row alone would take
  // about 8e12 bytes, an allocation that fails with bad_alloc. The budget
  // check must refuse it first, with an Error naming the size.
  const EnergyCurve curve = xscale_curve();
  const double wpc = curve.max_workload() / 1e12;
  const auto width = static_cast<std::size_t>(cycle_capacity_for(curve, wpc)) + 1;
  try {
    DeltaSolver delta(curve, wpc);
    FAIL() << "expected an Error";
  } catch (const Error& error) {
    const std::string needs = "needs " + std::to_string(width * sizeof(double)) + " bytes";
    EXPECT_NE(std::string(error.what()).find(needs), std::string::npos) << error.what();
  }
}

TEST(DeltaSolver, CheckpointsStopAtTheByteBudget) {
  // A value row just over half the budget (about 537 MB): the solver and
  // the choice rows of its first stride of 8 tasks (67 MB) fit, but a
  // checkpoint row would not. The admit at the end of the stride must still
  // answer, without its checkpoint, and a removal replays from the empty
  // prefix.
  const EnergyCurve curve = xscale_curve();
  const std::size_t width = kDpTableByteBudget / 2 / sizeof(double) + 64;
  const auto capacity = static_cast<Cycles>(width - 1);
  const double wpc = curve.max_workload() / static_cast<double>(capacity);
  ASSERT_EQ(cycle_capacity_for(curve, wpc), capacity);
  DeltaSolver::Config config;
  config.checkpoint_stride = 8;
  DeltaSolver delta(curve, wpc, config);
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    for (int id = 0; id < 8; ++id) {
      ASSERT_NO_THROW(delta.admit({id, 10 + id, 0.01 * (id % 7)})) << "admit " << id;
    }
  }
  expect_matches_cold(delta, "admits to the end of the first stride");
  const std::uint64_t cold_falls = delta.cold_falls();
  delta.remove(7);
  EXPECT_EQ(delta.cold_falls(), cold_falls + 1);  // no checkpoint to replay from
  expect_matches_cold(delta, "remove after the missing checkpoint");
  if (test::kObsEnabled) {
    EXPECT_EQ(metrics.counter(obs::intern_metric(obs::MetricKind::kCounter,
                                                 "serve.fallback.checkpoint_budget")),
              1u);
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Probes `task`, checks that the probe changed nothing observable, admits
/// the task and checks that the probe answered the admit's objective bit for
/// bit.
void expect_probe_matches_admit(DeltaSolver& delta, const FrameTask& task, const char* where) {
  const RejectionSolution before = delta.solution();
  const std::vector<FrameTask> resident = delta.resident();
  const std::uint64_t hits = delta.delta_hits();
  const std::uint64_t colds = delta.cold_falls();
  const double probed = delta.probe_admit(task);
  EXPECT_EQ(delta.solution().accepted, before.accepted) << where;
  EXPECT_EQ(delta.solution().processor_of, before.processor_of) << where;
  EXPECT_EQ(bits(delta.solution().energy), bits(before.energy)) << where;
  EXPECT_EQ(bits(delta.solution().penalty), bits(before.penalty)) << where;
  ASSERT_EQ(delta.resident().size(), resident.size()) << where;
  for (std::size_t i = 0; i < resident.size(); ++i) {
    EXPECT_EQ(delta.resident()[i].id, resident[i].id) << where;
  }
  EXPECT_EQ(delta.delta_hits(), hits) << where;
  EXPECT_EQ(delta.cold_falls(), colds) << where;
  const RejectionSolution& admitted = delta.admit(task);
  EXPECT_EQ(bits(probed), bits(admitted.energy + admitted.penalty))
      << where << ": probe " << probed << " vs admit " << admitted.energy + admitted.penalty;
  expect_matches_cold(delta, where);
}

TEST(DeltaSolver, ProbeAdmitAnswersTheFollowingAdmitBitwise) {
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  DeltaSolver delta(xscale_curve(), kWpc, config);
  for (const FrameTask& task : mixed_tasks()) expect_probe_matches_admit(delta, task, "admit");
  // After a checkpointed replay and after a reprice, the probe reads the
  // rebuilt table.
  delta.remove(5);
  expect_probe_matches_admit(delta, {5, 60, 0.4}, "after remove");
  delta.reprice(2, 4.0);
  expect_probe_matches_admit(delta, {9, 110, 1.1}, "after reprice");
}

TEST(DeltaSolver, ProbeAdmitEdgeCases) {
  {
    DeltaSolver empty(xscale_curve(), kWpc);
    expect_probe_matches_admit(empty, {1, 100, 1.0}, "empty solver");
  }
  DeltaSolver delta(xscale_curve(), kWpc);
  delta.admit({1, 80, 0.6});
  // More cycles than the capacity: the relaxation skips the task.
  expect_probe_matches_admit(delta, {2, 10000, 5.0}, "wider than the capacity");
  EXPECT_FALSE(delta.solution().accepted.back());
  // A zero penalty never takes a row: the shifted candidates only tie.
  expect_probe_matches_admit(delta, {3, 50, 0.0}, "zero penalty");
  EXPECT_FALSE(delta.solution().accepted.back());

  // A shifted candidate that ties the kept value: at row 100 the candidate
  // of task 15, row 50's 0.7 (task 14) plus 0.4, ties the 0.4 + 0.7 of
  // tasks 11 and 14, so the row stays theirs, and the optimum picks it. The
  // tied accept sets reject different tasks, whose penalties sum to
  // different bits (0.1 + 0.1 + 0.4 against 0.4 + 0.1 + 0.1), so only the
  // relaxation's strict rule gives the admit's objective.
  DeltaSolver tie(xscale_curve(), kWpc);
  for (const FrameTask& task : {FrameTask{11, 50, 0.4}, FrameTask{12, 30, 0.1},
                                FrameTask{13, 50, 0.1}, FrameTask{14, 50, 0.7}}) {
    tie.admit(task);
  }
  expect_probe_matches_admit(tie, {15, 50, 0.4}, "tied candidate");
  EXPECT_EQ(tie.solution().accepted, (std::vector<bool>{true, false, false, true, false}));
}

TEST(DeltaSolver, ProbeAdmitThrowsWhereAdmitThrows) {
  DeltaSolver delta(xscale_curve(), kWpc);
  delta.admit({1, 50, 1.0});
  const RejectionSolution before = delta.solution();
  for (const FrameTask& bad :
       {FrameTask{2, 0, 1.0}, FrameTask{2, 50, -1.0}, FrameTask{1, 60, 2.0}}) {
    EXPECT_THROW(delta.probe_admit(bad), Error) << "id " << bad.id << " cycles " << bad.cycles;
    EXPECT_THROW(delta.admit(bad), Error) << "id " << bad.id << " cycles " << bad.cycles;
  }
  EXPECT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.solution().accepted, before.accepted);
  EXPECT_EQ(bits(delta.solution().energy), bits(before.energy));
}

TEST(DeltaSolver, AssignedSpeedMatchesPlanAndLoad) {
  DeltaSolver delta(xscale_curve(), kWpc);
  delta.admit({1, 100, 5.0});
  ASSERT_TRUE(delta.solution().accepted[0]);
  EXPECT_EQ(delta.accepted_load(), 100);
  const double speed = assigned_speed(delta.curve(), kWpc, delta.accepted_load());
  EXPECT_GT(speed, 0.0);
  EXPECT_LE(speed, delta.curve().model().max_speed() + 1e-12);
  EXPECT_EQ(assigned_speed(delta.curve(), kWpc, 0), 0.0);
}

}  // namespace
}  // namespace retask
