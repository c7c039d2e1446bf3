// Unit tests of the benchmark's own code, at miniature workload sizes:
// the percentile rule, the host-speed scaling of round trips, failed-op
// accounting, the residual arithmetic of the layer table, and the RSS read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "fig.hpp"
#include "host_speed.hpp"
#include "mp.hpp"
#include "proc.hpp"
#include "report.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/serve/delta_solver.hpp"
#include "serve.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

Options mini(const std::string& workload, bool trace) {
  Options options;
  options.workload = workload;
  options.seed = 5;
  options.seconds = 0.05;
  options.trace = trace;
  options.mini = true;
  return options;
}

// --- percentile rule --------------------------------------------------------

TEST(TailPercentile, PlainP99WithAThousandSamples) {
  const TailPercentile tail = tail_percentile(ramp(1000));
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, BacksOffToKeepTenSamplesBeyond) {
  const TailPercentile hundred = tail_percentile(ramp(100));
  EXPECT_DOUBLE_EQ(hundred.percentile, 90.0);
  EXPECT_DOUBLE_EQ(hundred.value, 90.0);
  EXPECT_EQ(hundred.beyond, 10u);

  const TailPercentile odd = tail_percentile(ramp(237));
  EXPECT_EQ(odd.beyond, 10u);
  EXPECT_DOUBLE_EQ(odd.value, 227.0);
  EXPECT_LT(odd.percentile, 99.0);
}

TEST(TailPercentile, NeverAboveTheTargetNorBelowTheMedian) {
  const TailPercentile many = tail_percentile(ramp(5000));
  EXPECT_DOUBLE_EQ(many.percentile, 99.0);
  EXPECT_EQ(many.beyond, 50u);

  // Too few samples for ten beyond any percentile above the median.
  const TailPercentile few = tail_percentile(ramp(12));
  EXPECT_DOUBLE_EQ(few.percentile, 50.0);
  EXPECT_DOUBLE_EQ(few.value, 6.0);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> values = ramp(300);
  std::reverse(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(tail_percentile(values).value, 290.0);
  EXPECT_DOUBLE_EQ(median(values), 150.0);
  EXPECT_THROW(tail_percentile({}), std::invalid_argument);
}

TEST(Timing, ScalesEachRoundTripByTheHostSlownessBeforeIt) {
  // 100 units of 2 ops, 1 ms each at reference speed; units 40..59 ran
  // while the host was twice as slow and took 2 ms.
  std::vector<Unit> units;
  for (int i = 0; i < 100; ++i) {
    const bool slow = i >= 40 && i < 60;
    units.push_back({slow ? 2e6 : 1e6, 2.0, slow ? 2.0 : 1.0});
  }
  const Timing t = timing(units);
  EXPECT_DOUBLE_EQ(t.ops_per_s, 2000.0);
  EXPECT_DOUBLE_EQ(t.p50_ns, 1e6);
  EXPECT_DOUBLE_EQ(t.p90_ns, 1e6);
  EXPECT_DOUBLE_EQ(t.slowness, 1.0);
  // Unscaled, the slow units count as they were measured.
  EXPECT_NEAR(t.raw_ops_per_s, 200.0 / 0.12, 1e-9);
  EXPECT_DOUBLE_EQ(t.raw_p50_ns, 1e6);
  EXPECT_THROW(timing({}), std::invalid_argument);
}

TEST(Timing, RateLeavesOutTheSlowestHundredth) {
  // 1000 round trips of 1 ms and 10 host stalls of 50 ms: the stalls are
  // the slowest hundredth, so the rate is that of the 990 others.
  std::vector<Unit> units(990, Unit{1e6, 1.0, 1.0});
  units.insert(units.begin() + 500, 10, Unit{50e6, 1.0, 1.0});
  const Timing t = timing(units);
  EXPECT_DOUBLE_EQ(t.ops_per_s, 1000.0);
  EXPECT_NEAR(t.raw_ops_per_s, 1000.0 / (0.99 + 0.5), 1e-9);
  // One unit is its own p99.
  EXPECT_DOUBLE_EQ(timing({Unit{4e6, 2.0, 2.0}}).ops_per_s, 1000.0);
}

TEST(Timing, TailIsP90AtEveryRunLength) {
  std::vector<Unit> units;
  for (int i = 0; i < 1000; ++i) units.push_back({1e6 + i % 100, 1.0, 1.0});
  // The same quantile whether a run fits 1000, 250 or 60 units.
  for (const std::size_t n : {1000u, 250u, 60u}) {
    const Timing t = timing(std::vector<Unit>(units.begin(), units.begin() + n));
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) values.push_back(units[i].latency_ns);
    std::sort(values.begin(), values.end());
    EXPECT_DOUBLE_EQ(t.p90_ns, nearest_rank(values, 90.0)) << n;
    EXPECT_EQ(t.tail.samples, n) << n;
  }
  EXPECT_DOUBLE_EQ(timing(units).p90_ns, 1e6 + 89.0);
  // The note's tail follows the p99 rule: ten round trips beyond it.
  EXPECT_DOUBLE_EQ(timing(units).tail.percentile, 99.0);
  EXPECT_EQ(timing(units).tail.beyond, 10u);
}

TEST(Timing, SetupIsTheMedianOfScaledRepetitions) {
  EXPECT_DOUBLE_EQ(setup_seconds({0.3, 0.1, 0.2, 0.9, 0.2}), 0.2);
  const double scaled = timed_setup([] {});
  EXPECT_GE(scaled, 0.0);
  EXPECT_LT(scaled, 0.01);
}

TEST(HostSpeed, ProbeReadsAPositiveSlowness) {
  const double slowness = host_slowness();
  EXPECT_GT(slowness, 0.0);
  // A tenth of the reference time or less would mean the loop was dropped.
  EXPECT_GT(slowness * kProbeReferenceNs, 0.1 * kProbeReferenceNs);
}

// --- failed-op accounting ---------------------------------------------------

TEST(OpAccounting, FigCallCountsEveryCell) {
  FigWorkload workload(FigKind::kLoad, 3, FigSizes{4, 2});
  const FigCall call = workload.run_call(0);
  ASSERT_FALSE(call.threw) << call.error;
  std::vector<double> signature;
  const std::vector<double> bounds = workload.bound_sums(0);
  const OpCount ops =
      check_fig_call(call, 2, /*exact_reference=*/true, bounds, nullptr, &signature);
  EXPECT_EQ(ops.attempted, workload.cells_per_call());
  EXPECT_EQ(ops.failed, 0u);

  // The same call again repeats the first one bit for bit.
  const OpCount again =
      check_fig_call(workload.run_call(0), 2, true, bounds, &signature, nullptr);
  EXPECT_EQ(again.failed, 0u);

  // A changed aggregate fails exactly its (point, algorithm) group.
  std::vector<double> tampered = signature;
  tampered[0] += 1.0;
  const OpCount off = check_fig_call(call, 2, true, bounds, &tampered, nullptr);
  EXPECT_EQ(off.attempted, workload.cells_per_call());
  EXPECT_EQ(off.failed, 2u);

  // A bound above every objective at one point fails that point's groups.
  std::vector<double> raised = bounds;
  raised[3] = 1e300;
  const OpCount beaten = check_fig_call(call, 2, true, raised, nullptr, nullptr);
  EXPECT_EQ(beaten.failed, 2u * workload.algorithms());
}

TEST(OpAccounting, ReferenceBeatenFailsTheWholeCall) {
  FigWorkload workload(FigKind::kLoad, 3, FigSizes{4, 2});
  // A "reference" above the optimum: OPT-DP beats it, the harness throws.
  const FigCall call = workload.run_call(1, [](const retask::RejectionProblem& p) {
    return 2.0 * retask::ExactDpSolver().solve(p).objective() + 1.0;
  });
  ASSERT_TRUE(call.threw);
  const OpCount ops = check_fig_call(call, 2, true, workload.bound_sums(1), nullptr, nullptr);
  EXPECT_GE(ops.attempted, 2u);
  EXPECT_EQ(ops.failed, ops.attempted);
}

TEST(OpAccounting, ServeRepliesAgainstColdSolves) {
  const ServeSizes sizes{6, 4, 8, 20, 80};
  // Serve the stream through a cold solver to get correct replies.
  RequestStream stream(11, sizes, serve_penalty_per_cycle());
  std::vector<ReplyRecord> records;
  retask::DeltaSolver solver(
      retask::EnergyCurve(retask::PolynomialPowerModel::xscale(), 1.0,
                          retask::IdleDiscipline::kDormantEnable),
      retask::PolynomialPowerModel::xscale().max_speed() / 1000.0);
  for (int i = 0; i < 40; ++i) {
    stream.next();
    const std::vector<retask::FrameTask>& want = stream.resident();
    // Rebuild the solver's resident set to the stream's model.
    while (solver.size() > 0) solver.remove(solver.resident().front().id);
    for (const retask::FrameTask& task : want) solver.admit(task);
    ReplyRecord record;
    record.accepted = static_cast<std::int32_t>(solver.solution().accepted_count());
    record.resident = static_cast<std::int32_t>(solver.size());
    record.objective = solver.solution().energy + solver.solution().penalty;
    records.push_back(record);
  }
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  const OpCount ok = verify_replies(11, sizes, records, 2, 6, 20, &ratio_sum, &ratio_count);
  EXPECT_EQ(ok.attempted, 40u);
  EXPECT_EQ(ok.failed, 0u);
  EXPECT_EQ(ratio_count, 14u);
  EXPECT_GE(ratio_sum / static_cast<double>(ratio_count), 1.0);

  records[7].objective = std::nextafter(records[7].objective, 1e300);
  records[30].accepted = -1;  // an `err` reply
  const OpCount bad = verify_replies(11, sizes, records, 3, 0, 0, nullptr, nullptr);
  EXPECT_EQ(bad.attempted, 40u);
  EXPECT_EQ(bad.failed, 2u);
}

TEST(OpAccounting, ParseReply) {
  const ReplyRecord ok = parse_reply(
      "ok admit id=7 verdict=accept accepted=3/4 load=120 speed=0.5 energy=1.25 penalty=0.5 "
      "objective=1.75 path=cold");
  EXPECT_EQ(ok.accepted, 3);
  EXPECT_EQ(ok.resident, 4);
  EXPECT_DOUBLE_EQ(ok.objective, 1.75);
  EXPECT_EQ(parse_reply("err unknown command").accepted, -1);
  EXPECT_EQ(parse_reply("ok ping").accepted, -1);
}

TEST(OpAccounting, MpSolveChecks) {
  retask::MpScaleSweepResult result;
  result.solvers.resize(1);
  result.solvers[0].objective.add(10.0);
  const double same = 10.0;
  const double other = 10.5;
  EXPECT_TRUE(check_mp_solve(false, result, 9.0, nullptr));
  EXPECT_TRUE(check_mp_solve(false, result, 9.0, &same));
  EXPECT_FALSE(check_mp_solve(false, result, 9.0, &other));
  EXPECT_FALSE(check_mp_solve(false, result, 11.0, nullptr));  // beats the bound
  EXPECT_FALSE(check_mp_solve(true, result, 9.0, nullptr));
}

TEST(OpAccounting, MiniRunsPassAndReportEveryMetric) {
  for (const std::string& name : workload_names()) {
    const Outcome outcome = run_workload(mini(name, false));
    EXPECT_GT(outcome.ops.attempted, 0u) << name;
    EXPECT_EQ(outcome.ops.failed, 0u) << name;
    const std::string json = result_json(outcome, false);
    for (const MetricSpec& spec : end_to_end_specs()) {
      EXPECT_NE(json.find("\"" + spec.name + "\""), std::string::npos) << name << spec.name;
    }
    EXPECT_EQ(json.rfind("{\"correct\": true", 0), 0u) << json;
  }
}

TEST(OpAccounting, ObjectiveRatioRepeatsExactly) {
  for (const std::string& name : workload_names()) {
    const double a = run_workload(mini(name, false)).metrics.at("objective_ratio");
    const double b = run_workload(mini(name, false)).metrics.at("objective_ratio");
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << name;
    EXPECT_GE(a, 1.0 - 1e-9) << name;
  }
}

TEST(OpAccounting, FailedOpsMakeTheResultIncorrect) {
  Outcome outcome;
  outcome.ops.add(5, true);
  outcome.ops.add(3, false);
  EXPECT_EQ(outcome.ops.attempted, 8u);
  EXPECT_EQ(outcome.ops.failed, 3u);
  const std::string json = result_json(outcome, true);
  EXPECT_EQ(json.rfind("{\"correct\": false, \"attempted\": 8, \"failed\": 3", 0), 0u) << json;
  // An end-to-end result with a missing metric is refused outright.
  EXPECT_THROW(result_json(outcome, false), std::runtime_error);
}

// --- residual arithmetic ----------------------------------------------------

TEST(Residual, SelfTimesSubtractClippedChildren) {
  const std::vector<std::string> names = {"root", "a", "a1", "b", "c"};
  const std::vector<Span> spans = {
      {1, 0, 0, 0, 0, 100},   // root
      {2, 1, 0, 1, 10, 40},   // a
      {3, 2, 0, 2, 20, 30},   // a1 inside a
      {4, 1, 0, 3, 50, 70},   // b
      {5, 4, 0, 4, 60, 90},   // c starts in b and outlives it: clipped to [60, 70]
  };
  const LayerTimes times = self_times(spans, names);
  EXPECT_DOUBLE_EQ(times.self_ns.at("root"), 50.0);
  EXPECT_DOUBLE_EQ(times.self_ns.at("a"), 20.0);
  EXPECT_DOUBLE_EQ(times.self_ns.at("a1"), 10.0);
  EXPECT_DOUBLE_EQ(times.self_ns.at("b"), 10.0);
  EXPECT_DOUBLE_EQ(times.self_ns.at("c"), 10.0);
  EXPECT_DOUBLE_EQ(times.total_self_ns, 100.0);
  EXPECT_DOUBLE_EQ(times.root_ns, 100.0);
}

TEST(Residual, OverlappingChildrenCountOnceInTheParent) {
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {5, 15}, {20, 25}, {24, 24}}), 20.0);
  const std::vector<std::string> names = {"root", "x"};
  const std::vector<Span> spans = {{1, 0, 0, 0, 0, 100}, {2, 1, 0, 1, 0, 60}, {3, 1, 0, 1, 40, 80}};
  const LayerTimes times = self_times(spans, names);
  EXPECT_DOUBLE_EQ(times.self_ns.at("root"), 20.0);
  // Overlapping siblings double count: the table's gap exposes it.
  LayerTable table;
  table.wall_ns = 100.0;
  table.rows = {{"x", times.self_ns.at("x"), ""}};
  table.residual_ns = times.self_ns.at("root");
  EXPECT_DOUBLE_EQ(table.gap_ns(), 20.0);  // the overlap [40, 60)
}

TEST(Residual, TracedMiniRunsAddUpToTheirWallTime) {
  for (const std::string& name : workload_names()) {
    const Outcome outcome = run_workload(mini(name, true));
    EXPECT_EQ(outcome.ops.failed, 0u) << name;
    const LayerTable& table = outcome.layers;
    ASSERT_GT(table.wall_ns, 0.0) << name;
    EXPECT_FALSE(table.residual_name.empty()) << name;
    EXPECT_GE(table.residual_ns, 0.0) << name;
    for (const LayerRow& row : table.rows) EXPECT_GE(row.self_ns, 0.0) << name << " " << row.name;
    EXPECT_LT(std::abs(table.gap_ns()), 1e-6 * table.wall_ns + 1000.0) << name;
    EXPECT_GT(outcome.metrics.at("trace.overhead_ratio"), 0.0) << name;
    const std::string json = result_json(outcome, true);
    for (const MetricSpec& spec : per_layer_specs()) {
      EXPECT_NE(json.find("\"" + spec.name + "\""), std::string::npos) << name << spec.name;
    }
  }
}

// --- RSS read ---------------------------------------------------------------

TEST(Rss, ParsesStatusLines) {
  const std::string status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\n";
  EXPECT_EQ(status_kib(status, "VmHWM"), 1234);
  EXPECT_EQ(status_kib(status, "VmPeak"), 9000);
  EXPECT_EQ(status_kib(status, "VmRSS"), -1);
  EXPECT_EQ(status_kib("VmHWM:\tlots kB\n", "VmHWM"), -1);
  EXPECT_EQ(status_kib("VmHWM:\t12 MB\n", "VmHWM"), -1);
}

TEST(Rss, PeakTracksTouchedMemory) {
  const double before = peak_rss_mib();
  EXPECT_GT(before, 0.0);
  {
    std::vector<char> block(64u << 20);
    for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = static_cast<char>(i);
  }
  EXPECT_GE(peak_rss_mib(), before + 60.0);
}

}  // namespace
}  // namespace perfbench
