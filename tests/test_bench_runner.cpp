// Bench-regression machinery (obs/bench_compare.hpp): report JSON
// round-trip, the pass/fail/bootstrap comparison paths the retask_bench
// tool is built on, and schema validation of malformed baselines.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/obs/bench_compare.hpp"

namespace retask {
namespace {

using obs::BenchComparison;
using obs::BenchReport;
using obs::BenchWorkloadResult;

BenchReport sample_report() {
  BenchReport report;
  report.jobs = 2;
  report.repeats = 5;
  report.backend = "avx2";
  BenchWorkloadResult fast;
  fast.name = "greedy_density_n2048";
  fast.median_ns = 1000000;
  fast.runs_ns = {900000, 1000000, 1100000};
  fast.metrics = {{"greedy.density_rejections", 647.0}, {"greedy.density_solves", 1.0}};
  BenchWorkloadResult slow;
  slow.name = "exact_dp_n24_cap16k";
  slow.median_ns = 25000000;
  slow.runs_ns = {24000000, 25000000, 26000000};
  slow.metrics = {{"exact_dp.cells_touched", 203269.0}};
  report.workloads = {fast, slow};
  return report;
}

TEST(BenchReportIo, RoundTripsThroughJson) {
  const BenchReport original = sample_report();
  std::stringstream buffer;
  obs::write_bench_report(buffer, original);
  const BenchReport parsed = obs::read_bench_report(buffer);

  EXPECT_EQ(parsed.schema, original.schema);
  EXPECT_EQ(parsed.jobs, original.jobs);
  EXPECT_EQ(parsed.repeats, original.repeats);
  EXPECT_EQ(parsed.backend, original.backend);
  ASSERT_EQ(parsed.workloads.size(), original.workloads.size());
  for (std::size_t i = 0; i < parsed.workloads.size(); ++i) {
    EXPECT_EQ(parsed.workloads[i].name, original.workloads[i].name);
    EXPECT_EQ(parsed.workloads[i].median_ns, original.workloads[i].median_ns);
    EXPECT_EQ(parsed.workloads[i].runs_ns, original.workloads[i].runs_ns);
    EXPECT_EQ(parsed.workloads[i].metrics, original.workloads[i].metrics);
  }
}

TEST(BenchReportIo, AcceptsReportsWithoutBackendField) {
  // Reports written before the SIMD layer carry no backend tag; they parse
  // with an empty backend (which the baseline-refresh guard then treats as
  // a config mismatch).
  std::istringstream in(R"({"schema":"retask-bench-v1","jobs":1,"repeats":1,"workloads":[]})");
  const BenchReport parsed = obs::read_bench_report(in);
  EXPECT_EQ(parsed.backend, "");
}

TEST(BenchReportIo, RejectsWrongSchemaDuplicatesAndBadValues) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return obs::read_bench_report(in);
  };
  EXPECT_THROW(parse(R"({"schema":"retask-bench-v999","jobs":1,"repeats":1,"workloads":[]})"),
               Error);
  EXPECT_THROW(parse(R"({"jobs":1,"repeats":1,"workloads":[]})"), Error);
  EXPECT_THROW(parse(R"({"schema":"retask-bench-v1","jobs":1,"repeats":1,"workloads":[
      {"name":"w","median_ns":1,"runs_ns":[1]},
      {"name":"w","median_ns":2,"runs_ns":[2]}]})"),
               Error);
  EXPECT_THROW(parse(R"({"schema":"retask-bench-v1","jobs":1,"repeats":1,"workloads":[
      {"name":"w","median_ns":-5,"runs_ns":[1]}]})"),
               Error);
  EXPECT_THROW(parse(R"({"schema":"retask-bench-v1","jobs":1,"repeats":1,"workloads":[
      {"name":"","median_ns":1,"runs_ns":[1]}]})"),
               Error);
  EXPECT_THROW(parse("not json at all"), Error);
}

TEST(BenchCompare, IdenticalReportsPass) {
  const BenchReport report = sample_report();
  const BenchComparison comparison = obs::compare_bench_reports(report, report, 2.0);
  EXPECT_TRUE(comparison.ok());
  EXPECT_TRUE(comparison.regressions.empty());
  EXPECT_TRUE(comparison.missing.empty());
  EXPECT_TRUE(comparison.added.empty());
  EXPECT_TRUE(comparison.metric_drift.empty());
}

TEST(BenchCompare, InjectedSlowdownFailsPastThreshold) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.workloads[0].median_ns = baseline.workloads[0].median_ns * 2;  // exactly 2.0x

  // 2.0x is not > 2.0 threshold: still passes (threshold is exclusive)...
  EXPECT_TRUE(obs::compare_bench_reports(current, baseline, 2.0).ok());
  // ...but a hair beyond fails and reports the offending workload.
  current.workloads[0].median_ns += 1;
  const BenchComparison comparison = obs::compare_bench_reports(current, baseline, 2.0);
  EXPECT_FALSE(comparison.ok());
  ASSERT_EQ(comparison.regressions.size(), 1u);
  EXPECT_EQ(comparison.regressions[0].name, "greedy_density_n2048");
  EXPECT_GT(comparison.regressions[0].ratio, 2.0);
  EXPECT_EQ(comparison.regressions[0].baseline_ns, baseline.workloads[0].median_ns);
}

TEST(BenchCompare, LargeSpeedupsAreReportedAsImprovements) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.workloads[0].median_ns = baseline.workloads[0].median_ns / 2;  // exactly 0.5x

  // Exactly 1/threshold is not < 1/threshold: no improvement reported
  // (symmetric to the exclusive regression gate)...
  EXPECT_TRUE(obs::compare_bench_reports(current, baseline, 2.0).improvements.empty());
  // ...but a hair faster lands in `improvements` without failing ok().
  current.workloads[0].median_ns -= 1;
  const BenchComparison comparison = obs::compare_bench_reports(current, baseline, 2.0);
  EXPECT_TRUE(comparison.ok());
  ASSERT_EQ(comparison.improvements.size(), 1u);
  EXPECT_EQ(comparison.improvements[0].name, "greedy_density_n2048");
  EXPECT_LT(comparison.improvements[0].ratio, 0.5);
  EXPECT_EQ(comparison.improvements[0].baseline_ns, baseline.workloads[0].median_ns);
  EXPECT_EQ(comparison.improvements[0].current_ns, current.workloads[0].median_ns);
}

TEST(BenchCompare, MissingAndAddedWorkloadsAreTracked) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.workloads.erase(current.workloads.begin());  // drop the first workload
  BenchWorkloadResult extra;
  extra.name = "brand_new_workload";
  extra.median_ns = 10;
  extra.runs_ns = {10};
  current.workloads.push_back(extra);

  const BenchComparison comparison = obs::compare_bench_reports(current, baseline, 2.0);
  // A workload the baseline tracks vanished: that is a failure (a deleted
  // benchmark can hide a regression); an added one is informational.
  EXPECT_FALSE(comparison.ok());
  ASSERT_EQ(comparison.missing.size(), 1u);
  EXPECT_EQ(comparison.missing[0], "greedy_density_n2048");
  ASSERT_EQ(comparison.added.size(), 1u);
  EXPECT_EQ(comparison.added[0], "brand_new_workload");
  EXPECT_TRUE(comparison.regressions.empty());
}

TEST(BenchCompare, MetricDriftFailsTheComparison) {
  // Deterministic metrics repeat exactly, so any change in work fails at
  // once, however well the wall times hold.
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.workloads[1].metrics[0].second += 1.0;
  const BenchComparison comparison = obs::compare_bench_reports(current, baseline, 2.0);
  EXPECT_FALSE(comparison.ok());
  EXPECT_TRUE(comparison.regressions.empty());
  ASSERT_EQ(comparison.metric_drift.size(), 1u);
  EXPECT_EQ(comparison.metric_drift[0].workload, "exact_dp_n24_cap16k");
  EXPECT_EQ(comparison.metric_drift[0].metric, "exact_dp.cells_touched");
  EXPECT_EQ(comparison.metric_drift[0].baseline, 203269.0);
  EXPECT_EQ(comparison.metric_drift[0].current, 203270.0);
}

TEST(BenchCompare, MetricOnOneSideOnlyFailsTheComparison) {
  const BenchReport baseline = sample_report();
  // A counter that stops being recorded (or reads 0, which the report
  // omits)...
  BenchReport dropped = baseline;
  dropped.workloads[0].metrics.pop_back();
  const BenchComparison lost = obs::compare_bench_reports(dropped, baseline, 2.0);
  EXPECT_FALSE(lost.ok());
  ASSERT_EQ(lost.metric_drift.size(), 1u);
  EXPECT_EQ(lost.metric_drift[0].workload, "greedy_density_n2048");
  EXPECT_EQ(lost.metric_drift[0].metric, "greedy.density_solves");
  EXPECT_EQ(lost.metric_drift[0].baseline, 1.0);
  EXPECT_FALSE(lost.metric_drift[0].current.has_value());

  // ...and one the baseline never saw both fail.
  BenchReport added = baseline;
  added.workloads[1].metrics.emplace_back("exact_dp.list_fills", 1.0);
  const BenchComparison gained = obs::compare_bench_reports(added, baseline, 2.0);
  EXPECT_FALSE(gained.ok());
  ASSERT_EQ(gained.metric_drift.size(), 1u);
  EXPECT_EQ(gained.metric_drift[0].workload, "exact_dp_n24_cap16k");
  EXPECT_EQ(gained.metric_drift[0].metric, "exact_dp.list_fills");
  EXPECT_FALSE(gained.metric_drift[0].baseline.has_value());
  EXPECT_EQ(gained.metric_drift[0].current, 1.0);
}

TEST(BenchCompare, ZeroBaselineMedianNeverDividesByZero) {
  BenchReport baseline = sample_report();
  baseline.workloads[0].median_ns = 0;  // sub-resolution workload
  BenchReport current = sample_report();
  current.workloads[0].median_ns = 12345;
  EXPECT_TRUE(obs::compare_bench_reports(current, baseline, 2.0).ok());
}

TEST(BenchCompare, ThresholdMustBePositive) {
  const BenchReport report = sample_report();
  EXPECT_THROW(obs::compare_bench_reports(report, report, 0.0), Error);
  EXPECT_THROW(obs::compare_bench_reports(report, report, -1.0), Error);
}

TEST(BenchReportIo, FileWriterCreatesParentDirectoriesAndReaderLoadsThem) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "retask_bench_runner_test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "nested" / "report.json";

  obs::write_bench_report_file(path.string(), sample_report());
  ASSERT_TRUE(std::filesystem::exists(path));
  const BenchReport loaded = obs::read_bench_report_file(path.string());
  EXPECT_EQ(loaded.workloads.size(), 2u);
  EXPECT_NE(loaded.find("exact_dp_n24_cap16k"), nullptr);
  EXPECT_EQ(loaded.find("no_such_workload"), nullptr);

  // Missing-baseline bootstrap: the reader throws a catchable Error, which
  // is what lets the tool treat "no baseline yet" as a first run instead of
  // a crash.
  EXPECT_THROW(obs::read_bench_report_file((dir / "absent.json").string()), Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace retask
