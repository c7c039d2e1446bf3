// Shared helpers for the experiment binaries: print a comparison table for a
// one-dimensional sweep in the house style (pretty table on stdout, with the
// sweep variable in the first column and one mean-ratio column per
// algorithm).
#ifndef RETASK_BENCH_BENCH_UTIL_HPP
#define RETASK_BENCH_BENCH_UTIL_HPP

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "retask/retask.hpp"

namespace retask::bench {

/// Prints a table in the house style: pretty on stdout, plus CSV when the
/// RETASK_BENCH_CSV environment variable is set (for scripting/plotting).
inline void print_table(const Table& table) {
  table.write_pretty(std::cout);
  if (std::getenv("RETASK_BENCH_CSV") != nullptr) {
    std::cout << "\n[csv] " << table.title() << "\n";
    table.write_csv(std::cout);
  }
}

/// One sweep point: a label (e.g. the load value) and the factory/reference
/// pair that defines the instance family at that point.
struct SweepPoint {
  double value = 0.0;
  ProblemFactory factory;
};

/// Emits one long-format CSV block of per-point solver metrics
/// (point,algorithm,metric,value) when RETASK_BENCH_CSV is set. Only the
/// deterministic rows are printed (include_timers = false), so the block is
/// bit-identical at any RETASK_JOBS setting; it is empty (and skipped) in
/// RETASK_OBS=OFF builds.
inline void print_sweep_metrics(const std::string& title, const std::string& axis,
                                const std::vector<SweepPoint>& sweep,
                                const std::vector<std::vector<AlgoStats>>& stats) {
  if (std::getenv("RETASK_BENCH_CSV") == nullptr) return;
  bool any = false;
  for (const auto& point : stats) {
    for (const AlgoStats& s : point) any = any || !s.metrics.empty();
  }
  if (!any) return;
  std::cout << "\n[csv-metrics] " << title << "\n";
  std::cout << axis << ",algorithm,metric,value\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    for (const AlgoStats& s : stats[i]) {
      for (const obs::MetricRow& row : obs::report_rows(s.metrics, /*include_timers=*/false)) {
        std::cout << sweep[i].value << "," << s.name << "," << row.name << "," << row.value
                  << "\n";
      }
    }
  }
}

/// Sweep-level knobs forwarded to the harness.
struct SweepOptions {
  /// Attach ONE energy memo to every cell of the grid (otherwise no cell
  /// gets a memo). Only set this when the sweep holds the power model,
  /// frame and resolution fixed across points (so every problem shares one
  /// (EnergyCurve, work_per_cycle) pair — the memo's correctness contract);
  /// the figure drivers that vary only the task sets (load/penalty sweeps)
  /// qualify.
  bool share_energy_memo = false;
};

/// Runs `lineup` over every sweep point (instances per point) and prints a
/// table: value | mean ratio per algorithm. Returns the table for callers
/// that also want CSV. The whole point x instance grid is solved in one
/// parallel region (RETASK_JOBS workers; see common/parallel.hpp) and
/// reduced in instance order, so the table is bit-identical at any job
/// count.
inline Table run_sweep(const std::string& title, const std::string& axis,
                       const std::vector<SweepPoint>& sweep,
                       const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
                       const ReferenceObjective& reference, int instances,
                       std::uint64_t seed0 = 1, const SweepOptions& options = {}) {
  std::vector<std::string> columns{axis};
  for (const auto& solver : lineup) columns.push_back(solver->name());
  Table table(title, columns);
  std::vector<ProblemFactory> factories;
  factories.reserve(sweep.size());
  for (const SweepPoint& point : sweep) factories.push_back(point.factory);
  BatchOptions batch;
  if (options.share_energy_memo) batch.shared_energy_memo = std::make_shared<EnergyMemo>();
  const auto stats =
      run_comparison_batch(factories, lineup, reference, instances, seed0, /*jobs=*/0, batch);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::vector<double> row{sweep[i].value};
    for (const AlgoStats& s : stats[i]) row.push_back(s.ratio.mean());
    table.add_row(row, 4);
  }
  print_table(table);
  print_sweep_metrics(title, axis, sweep, stats);
  return table;
}

}  // namespace retask::bench

#endif  // RETASK_BENCH_BENCH_UTIL_HPP
