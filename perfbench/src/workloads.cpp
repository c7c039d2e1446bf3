#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig_load", "fig_capacity", "serve_churn",
                                                 "mp_many"};
  return names;
}

Outcome run_workload(const Options& options) {
  if (options.workload == "fig_load" || options.workload == "fig_capacity") {
    return run_fig(options);
  }
  if (options.workload == "serve_churn") return run_serve(options);
  if (options.workload == "mp_many") return run_mp(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

bool repeat_setup(const Options& options, const std::vector<double>& rep_seconds,
                  std::size_t max_reps) {
  const std::size_t min_reps = options.mini ? 1 : 5;
  const double min_seconds = options.mini ? 0.0 : 2.0;
  double spent = 0.0;
  for (const double s : rep_seconds) spent += s;
  return rep_seconds.size() < max_reps &&
         (rep_seconds.size() < min_reps || spent < min_seconds);
}

double setup_seconds(std::vector<double> rep_seconds) { return median(std::move(rep_seconds)); }

void add_timing_metrics(const std::vector<Unit>& units, Outcome& outcome, std::string& note) {
  const Timing t = timing(units);
  outcome.metrics["ops_per_s"] = t.ops_per_s;
  outcome.metrics["latency_p50_ms"] = t.p50_ns / 1e6;
  outcome.metrics["latency_p99_ms"] = t.p90_ns / 1e6;
  std::ostringstream text;
  text << units.size() << " round trips, host slowness median " << full_digits(t.slowness)
       << "; scaled tail p" << full_digits(t.tail.percentile) << " = "
       << full_digits(t.tail.value / 1e6) << " ms (" << t.tail.samples << " samples, "
       << t.tail.beyond << " beyond); unscaled: " << full_digits(t.raw_ops_per_s)
       << " ops/s, p50 " << full_digits(t.raw_p50_ns / 1e6) << " ms";
  note = text.str();
}

}  // namespace perfbench
