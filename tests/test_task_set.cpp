// Unit tests for task validation and task-set aggregates.
#include "retask/task/task_set.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/core/problem.hpp"
#include "retask/power/polynomial_power.hpp"

namespace retask {
namespace {

TEST(FrameTask, Validation) {
  EXPECT_NO_THROW(validate(FrameTask{0, 10, 1.0}));
  EXPECT_THROW(validate(FrameTask{0, 0, 1.0}), Error);
  EXPECT_THROW(validate(FrameTask{0, -5, 1.0}), Error);
  EXPECT_THROW(validate(FrameTask{0, 10, -0.1}), Error);
  EXPECT_NO_THROW(validate(FrameTask{0, 10, 0.0}));  // zero penalty allowed
}

TEST(PeriodicTask, Validation) {
  EXPECT_NO_THROW(validate(PeriodicTask{0, 10, 100, 1.0}));
  EXPECT_THROW(validate(PeriodicTask{0, 0, 100, 1.0}), Error);
  EXPECT_THROW(validate(PeriodicTask{0, 10, 0, 1.0}), Error);
  EXPECT_THROW(validate(PeriodicTask{0, 10, 100, -1.0}), Error);
}

TEST(PeriodicTask, RateIsCyclesOverPeriod) {
  const PeriodicTask t{0, 25, 100, 0.0};
  EXPECT_DOUBLE_EQ(t.rate(), 0.25);
}

TEST(FrameTaskSet, Aggregates) {
  const FrameTaskSet set({{0, 10, 1.5}, {1, 20, 2.5}, {2, 5, 0.0}});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set.total_cycles(), 35);
  EXPECT_DOUBLE_EQ(set.total_penalty(), 4.0);
  EXPECT_EQ(set[1].cycles, 20);
}

TEST(FrameTaskSet, EmptyDefault) {
  const FrameTaskSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_cycles(), 0);
  EXPECT_DOUBLE_EQ(set.total_penalty(), 0.0);
}

TEST(FrameTaskSet, RejectsDuplicateIdsAndBadTasks) {
  EXPECT_THROW(FrameTaskSet({{0, 10, 1.0}, {0, 20, 1.0}}), Error);
  EXPECT_THROW(FrameTaskSet({{0, 0, 1.0}}), Error);
}

TEST(FrameTaskSet, CopiesShareOneTaskVector) {
  const FrameTaskSet a({{0, 10, 1.0}, {1, 20, 2.0}});
  const FrameTaskSet b = a;
  EXPECT_EQ(&b.tasks(), &a.tasks());
  FrameTaskSet c;
  c = a;
  EXPECT_EQ(&c.tasks(), &a.tasks());
  // Copy-only: a "move" copies, so its source keeps its tasks.
  const FrameTaskSet d = std::move(c);
  EXPECT_EQ(&d.tasks(), &a.tasks());
  EXPECT_EQ(c.size(), 2u);
}

TEST(FrameTaskSet, CopyOutlivesItsSource) {
  auto source =
      std::make_unique<FrameTaskSet>(std::vector<FrameTask>{{0, 10, 1.0}, {1, 20, 2.5}});
  const FrameTaskSet copy = *source;
  source.reset();
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy[1].cycles, 20);
  EXPECT_EQ(copy.total_cycles(), 30);
  EXPECT_EQ(copy.total_penalty(), 3.5);
}

TEST(FrameTaskSet, EqualSetsStoredApartCompareEqual) {
  const FrameTaskSet a({{0, 10, 1.0}, {1, 20, 2.0}});
  const FrameTaskSet b({{0, 10, 1.0}, {1, 20, 2.0}});
  ASSERT_NE(&a.tasks(), &b.tasks());
  EXPECT_TRUE(same_task_sets(a, b));
  EXPECT_FALSE(same_task_sets(a, FrameTaskSet({{0, 10, 1.0}, {1, 20, 2.5}})));
  EXPECT_FALSE(same_task_sets(a, FrameTaskSet({{0, 10, 1.0}})));
}

TEST(FrameTaskSet, ProblemCopiesAndSweepPointsShareOneVector) {
  const RejectionProblem base(
      FrameTaskSet({{0, 10, 1.0}, {1, 20, 2.0}}),
      EnergyCurve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable), 0.01);
  const RejectionProblem copy = base;
  EXPECT_EQ(&copy.tasks().tasks(), &base.tasks().tasks());
  EXPECT_EQ(&copy.curve().model(), &base.curve().model());
  const std::vector<RejectionProblem> points = make_capacity_sweep(base, {0.5, 0.75, 1.0});
  for (const RejectionProblem& point : points) {
    EXPECT_EQ(&point.tasks().tasks(), &base.tasks().tasks());
    EXPECT_EQ(&point.curve().model(), &base.curve().model());
    EXPECT_TRUE(same_task_sets(point.tasks(), base.tasks()));
  }
}

TEST(PeriodicTaskSet, Aggregates) {
  const PeriodicTaskSet set({{0, 10, 100, 1.0}, {1, 30, 200, 2.0}});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_DOUBLE_EQ(set.total_rate(), 0.1 + 0.15);
  EXPECT_DOUBLE_EQ(set.total_penalty(), 3.0);
  EXPECT_EQ(set.hyper_period(), 200);
}

TEST(PeriodicTaskSet, HyperPeriodOfCoprimePeriods) {
  const PeriodicTaskSet set({{0, 1, 7, 0.0}, {1, 1, 13, 0.0}, {2, 1, 4, 0.0}});
  EXPECT_EQ(set.hyper_period(), 7 * 13 * 4);
}

TEST(PeriodicTaskSet, RejectsDuplicateIds) {
  EXPECT_THROW(PeriodicTaskSet({{3, 10, 100, 1.0}, {3, 10, 100, 1.0}}), Error);
}

}  // namespace
}  // namespace retask
