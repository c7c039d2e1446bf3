// Result record of one benchmark run, its JSON result line, and the
// layer table of the traced run.
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run reports, in BENCHMARK.json
/// order.
const std::vector<MetricSpec>& end_to_end_specs();

/// The per-layer metrics every traced run reports. A layer that a workload
/// does not run reports 0. Times and counts with a "/op" unit are per op of
/// the traced phase, so they do not grow with the number of ops a run fits
/// in its time.
const std::vector<MetricSpec>& per_layer_specs();

/// Divides every metric whose unit ends in "/op" by `ops`.
void divide_per_op(std::map<std::string, double>& metrics, double ops);

/// Divides every per-layer time (unit "ns/op") by the traced phase's host
/// `slowness`, so that layer times compare across host phases as the
/// end-to-end figures do. The layer table shows them as measured.
void scale_times(std::map<std::string, double>& metrics, double slowness);

/// Operations attempted and failed; an op fails when any check on its
/// output fails (see each workload).
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t ops, bool ok) {
    attempted += ops;
    if (!ok) failed += ops;
  }
  void merge(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// One row of a layer table: a layer's self time plus its counts.
struct LayerRow {
  std::string name;
  double self_ns = 0.0;
  std::string detail;
};

/// Self times of the traced phase. wall_ns is the duration of the phase's
/// root span; the residual is its self time: the wall time no layer span
/// covers. When spans nest properly the rows plus the residual add up to
/// wall_ns; gap_ns() shows by how much they do not.
struct LayerTable {
  double wall_ns = 0.0;
  std::vector<LayerRow> rows;
  std::string residual_name;
  double residual_ns = 0.0;

  double rows_ns() const;
  double gap_ns() const { return rows_ns() + residual_ns - wall_ns; }
};

struct Outcome {
  OpCount ops;
  /// Metric name -> value; units come from the spec lists.
  std::map<std::string, double> metrics;
  LayerTable layers;  ///< traced runs only
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with the
/// end-to-end metrics (trace = false) or the per-layer ones (trace = true).
/// Throws when an end-to-end metric is missing or not positive.
std::string result_json(const Outcome& outcome, bool trace);

/// Prints `table` with each row's share of the traced wall time, the named
/// residual, and the sum check.
void print_layer_table(std::ostream& out, const std::string& workload, const LayerTable& table);

/// Formats a double with all its significant digits.
std::string full_digits(double value);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_HPP
