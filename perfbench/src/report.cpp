#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"ops_per_s", "1/s"},        {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
      {"objective_ratio", "ratio"}, {"setup_s", "s"},         {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // exp: harness orchestration and its callbacks.
      {"exp.harness_ns", "ns/op"},
      {"exp.factory_ns", "ns/op"},
      {"exp.reference_ns", "ns/op"},
      {"exp.reference_calls", "1/op"},
      {"exp.unattributed_ns", "ns/op"},
      {"harness.solves", "count"},
      // core: the lineup solvers.
      {"core.exact_dp_ns", "ns/op"},
      {"core.fptas_ns", "ns/op"},
      {"core.greedy_ns", "ns/op"},
      {"exact_dp.cells_touched", "1/op"},
      {"exact_dp.cells_skipped", "1/op"},
      {"exact_dp.prune_ratio", "ratio"},
      {"fptas.guess_rounds", "1/op"},
      {"fptas.cells_touched", "1/op"},
      {"greedy.local_search_moves", "1/op"},
      // batch / cache / simd / power: fill, select and energy.
      {"batch.lockstep_ns", "ns/op"},
      {"batch.fused_sweep_ns", "ns/op"},
      {"batch.select_scan_ns", "ns/op"},
      {"batch.select_energy_evals", "1/op"},
      {"batch.select_scan_words", "1/op"},
      {"batch.lane_utilization", "ratio"},
      {"batch.scalar_fallbacks", "1/op"},
      {"batch.sweep_fallbacks", "1/op"},
      {"cache.energy_hits", "1/op"},
      {"cache.energy_misses", "1/op"},
      {"cache.energy_hit_ratio", "ratio"},
      {"dp.warm_starts", "1/op"},
      // serve: protocol, pump and session.
      {"serve.client_ns", "ns/op"},
      {"serve.send_ns", "ns/op"},
      {"serve.decode_ns", "ns/op"},
      {"serve.handle_ns", "ns/op"},
      {"serve.encode_ns", "ns/op"},
      {"serve.write_ns", "ns/op"},
      {"serve.client_wait_ns", "ns/op"},
      {"serve.unattributed_ns", "ns/op"},
      {"serve.requests", "count"},
      {"serve.err_replies", "1/op"},
      {"serve.frames_per_batch", "ratio"},
      {"serve.delta_hits", "1/op"},
      {"serve.cold_falls", "1/op"},
      {"serve.cold_fall_ratio", "ratio"},
      // mp / sched: many-core partitioning, per-PE solves, local search.
      {"mp.sweep_ns", "ns/op"},
      {"mp.partition_ns", "ns/op"},
      {"mp.pe_solve_ns", "ns/op"},
      {"mp.local_search_ns", "ns/op"},
      {"mp.bound_ns", "ns/instance"},
      {"mp.unattributed_ns", "ns/op"},
      {"mp.move_probes", "1/op"},
      {"mp.moves_applied", "1/op"},
      {"mp.swap_probes", "1/op"},
      {"mp.swaps_applied", "1/op"},
      {"mp.probe_misses", "1/op"},
      {"delta.table_adoptions", "1/op"},
      {"batch.table_exports", "1/op"},
      // process and tracer.
      {"proc.cpu_s", "s"},
      {"proc.minor_faults", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"host.slowness", "ratio"},
  };
  return specs;
}

void scale_times(std::map<std::string, double>& metrics, double slowness) {
  for (const MetricSpec& spec : per_layer_specs()) {
    const auto it = metrics.find(spec.name);
    if (spec.unit == "ns/op" && it != metrics.end()) it->second /= slowness;
  }
}

void divide_per_op(std::map<std::string, double>& metrics, double ops) {
  for (const MetricSpec& spec : per_layer_specs()) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end() || spec.unit.size() < 3) continue;
    if (spec.unit.compare(spec.unit.size() - 3, 3, "/op") == 0) {
      it->second = ops > 0.0 ? it->second / ops : 0.0;
    }
  }
}

double LayerTable::rows_ns() const {
  double sum = 0.0;
  for (const LayerRow& row : rows) sum += row.self_ns;
  return sum;
}

std::string full_digits(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string result_json(const Outcome& outcome, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.ops.failed == 0 && outcome.ops.attempted > 0 ? "true" : "false")
      << ", \"attempted\": " << outcome.ops.attempted << ", \"failed\": " << outcome.ops.failed
      << ", \"metrics\": {";
  const auto& specs = trace ? per_layer_specs() : end_to_end_specs();
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = outcome.metrics.find(spec.name);
    double value = 0.0;
    if (it != outcome.metrics.end()) {
      value = it->second;
    } else if (!trace) {
      throw std::runtime_error("end-to-end metric " + spec.name + " was not measured");
    }
    if (!trace && !(value > 0.0)) {
      throw std::runtime_error("end-to-end metric " + spec.name + " is not positive");
    }
    out << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": " << full_digits(value)
        << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void print_layer_table(std::ostream& out, const std::string& workload, const LayerTable& table) {
  const double wall = table.wall_ns;
  const auto pct = [wall](double ns) { return wall > 0.0 ? 100.0 * ns / wall : 0.0; };
  out << "layer table (" << workload << ", traced phase, self time):\n";
  out << "  " << std::left << std::setw(24) << "layer" << std::right << std::setw(14)
      << "self_ms" << std::setw(9) << "share%" << "  counts\n";
  const auto line = [&](const std::string& name, double ns, const std::string& detail) {
    out << "  " << std::left << std::setw(24) << name << std::right << std::fixed
        << std::setprecision(3) << std::setw(14) << ns / 1e6 << std::setprecision(2)
        << std::setw(9) << pct(ns) << "  " << detail << "\n";
    out.unsetf(std::ios::floatfield);
  };
  for (const LayerRow& row : table.rows) line(row.name, row.self_ns, row.detail);
  line(table.residual_name, table.residual_ns, "residual: traced wall outside every layer span");
  out << "  rows + residual = " << std::fixed << std::setprecision(3)
      << (table.rows_ns() + table.residual_ns) / 1e6 << " ms, traced wall = " << wall / 1e6
      << " ms, gap = " << table.gap_ns() / 1e6 << " ms\n";
  out.unsetf(std::ios::floatfield);
}

}  // namespace perfbench
