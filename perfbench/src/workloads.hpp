// The four benchmark workloads. Each drives one of the library's real entry
// points on inputs generated from the run's seed:
//
//   fig_load      run_comparison_batch over the Fig. R1 load grid
//   fig_capacity  run_comparison_batch over a 16-point capacity sweep
//   serve_churn   run_serve_loop over OS pipes, one closed-loop client
//   mp_many       run_mp_scale_sweep at m = 64, n in the thousands
//
// A run sets up (several times, reporting the median), then repeats the
// workload's unit of work until `seconds` have passed, each unit timed next
// to a host-speed probe, then checks the outputs. Traced runs measure half
// the time untraced and half traced, and report per-layer metrics instead
// of end-to-end ones.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Miniature sizes for the unit tests, and a single set-up.
  bool mini = false;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs `options.workload`; throws std::invalid_argument on an unknown name.
Outcome run_workload(const Options& options);

Outcome run_fig(const Options& options);
Outcome run_serve(const Options& options);
Outcome run_mp(const Options& options);

/// The measured phase's end-to-end timing metrics from its units, each
/// round trip scaled to the reference host speed (see host_speed.hpp and
/// Timing in stats.hpp): ops_per_s, latency_p50_ms, and latency_p99_ms,
/// which is read at p90. Describes the sample count, the tail by the p99
/// rule and the unscaled figures in `note`.
void add_timing_metrics(const std::vector<Unit>& units, Outcome& outcome, std::string& note);

/// True while set-up should be repeated once more after the repetitions
/// that took `rep_seconds`: at least 5 times and for at least 2 s in all
/// (once for a miniature run), at most `max_reps` times.
bool repeat_setup(const Options& options, const std::vector<double>& rep_seconds,
                  std::size_t max_reps = 1000);

/// Times one set-up repetition: runs `probe` (host_slowness() when not
/// given), then `setup`, and returns the seconds `setup` took scaled to the
/// reference speed by the slowness the probe returned.
template <class Setup, class Probe>
double timed_setup(Setup&& setup, Probe&& probe) {
  const double slowness = probe();
  const std::int64_t start = now_ns();
  setup();
  return static_cast<double>(now_ns() - start) / 1e9 / slowness;
}

template <class Setup>
double timed_setup(Setup&& setup) {
  return timed_setup(setup, host_slowness);
}

/// setup_s: the median of the scaled repetitions.
double setup_seconds(std::vector<double> rep_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
