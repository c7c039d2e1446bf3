// Bench-regression report format and baseline comparison.
//
// tools/retask_bench runs a pinned workload suite and serializes one
// BenchReport (median-of-k wall times plus the deterministic solver metrics
// of one run) as JSON — BENCH_PR<k>.json is the repo's recorded perf
// trajectory. compare_bench_reports() checks a fresh report against a
// checked-in baseline on two gates:
//
//  * time: a workload regresses when its median wall time exceeds
//    threshold x the baseline's;
//  * work: every deterministic metric must equal the baseline's exactly,
//    and a metric present on only one side fails too. These rows are
//    bit-identical from run to run, so a change in work (cells, energy
//    evaluations, probes) fails at once, however noisy the wall times. A
//    change that moves a counter on purpose refreshes the baseline and
//    says so.
//
// The logic lives in the library (not the tool) so tests can drive the
// pass/fail/bootstrap paths directly.
#ifndef RETASK_OBS_BENCH_COMPARE_HPP
#define RETASK_OBS_BENCH_COMPARE_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace retask::obs {

/// One workload's outcome: every run's wall time, the median the
/// comparison keys on, and the flattened deterministic metrics of one run.
struct BenchWorkloadResult {
  std::string name;
  std::uint64_t median_ns = 0;
  std::vector<std::uint64_t> runs_ns;
  std::vector<std::pair<std::string, double>> metrics;

  /// First metric named `name`, or nullptr.
  const double* metric(const std::string& metric_name) const;
};

/// One full suite run.
struct BenchReport {
  std::string schema = "retask-bench-v1";
  int jobs = 1;     ///< worker threads the suite was pinned to
  int repeats = 0;  ///< measured runs per workload (median over these)
  /// SIMD kernel backend the run dispatched to ("scalar", "sse2", "avx2",
  /// "neon"); always written, optional on read (older reports predate it
  /// and leave it empty). Wall times from different backends are not
  /// comparable, so baseline refreshes guard on this field.
  std::string backend;
  std::vector<BenchWorkloadResult> workloads;

  const BenchWorkloadResult* find(const std::string& name) const;
};

/// JSON round-trip. Readers validate the schema tag and throw
/// retask::Error on malformed input; the file writer creates missing
/// parent directories.
void write_bench_report(std::ostream& os, const BenchReport& report);
void write_bench_report_file(const std::string& path, const BenchReport& report);
BenchReport read_bench_report(std::istream& is);
BenchReport read_bench_report_file(const std::string& path);

/// One workload slower than threshold x baseline.
struct BenchRegression {
  std::string name;
  std::uint64_t baseline_ns = 0;
  std::uint64_t current_ns = 0;
  double ratio = 0.0;  ///< current / baseline
};

/// One deterministic metric whose value moved between baseline and current,
/// or that only one side reports (the other side is then empty).
struct BenchMetricDrift {
  std::string workload;
  std::string metric;
  std::optional<double> baseline;
  std::optional<double> current;
};

struct BenchComparison {
  std::vector<BenchRegression> regressions;   ///< ratio > threshold
  std::vector<BenchRegression> improvements;  ///< ratio < 1 / threshold
  std::vector<std::string> missing;           ///< in baseline, absent from current
  std::vector<std::string> added;             ///< in current, absent from baseline
  std::vector<BenchMetricDrift> metric_drift;  ///< any metric that is not equal

  /// Comparison verdict: no workload regressed, nothing the baseline tracks
  /// disappeared and every deterministic metric of the workloads both sides
  /// ran is equal. Improvements and added workloads are informational — but
  /// a significant improvement means the checked-in baseline understates
  /// current performance and should be refreshed (tools/retask_bench
  /// --write-baseline), or future regressions up to the improvement's size
  /// will pass unnoticed.
  bool ok() const { return regressions.empty() && missing.empty() && metric_drift.empty(); }
};

/// Compares `current` against `baseline` with the given wall-time
/// `threshold` (> 0; e.g. 2.0 = fail past a 2x slowdown, report runs more
/// than 2x FASTER as improvements). Workloads are matched by name, and the
/// metrics of a workload both sides ran by name.
BenchComparison compare_bench_reports(const BenchReport& current, const BenchReport& baseline,
                                      double threshold);

}  // namespace retask::obs

#endif  // RETASK_OBS_BENCH_COMPARE_HPP
