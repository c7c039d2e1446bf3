// Sample statistics of the benchmark: medians and the tail-percentile rule.
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <vector>

namespace perfbench {

/// A tail percentile as the benchmark reports it: the percentile actually
/// taken, its value, the sample count, and how many samples lie beyond it.
struct TailPercentile {
  double percentile = 0.0;  ///< in (0, 100]
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of an ascending `sorted` sample: the smallest
/// value with at least p percent of the samples at or below it. Requires a
/// non-empty sample and p in (0, 100].
double nearest_rank(const std::vector<double>& sorted, double p);

/// The highest percentile, capped at `target`, that still has at least
/// `min_beyond` samples strictly beyond it, never below the median. With
/// 1000 or more samples and the defaults this is the plain p99; with fewer
/// it backs off (p98 at 500 samples, p90 at 100) so a tail figure always
/// rests on at least ten observations. Requires a non-empty sample.
TailPercentile tail_percentile(std::vector<double> samples, double target = 99.0,
                               std::size_t min_beyond = 10);

/// Median (nearest-rank p50) of a non-empty sample.
double median(std::vector<double> samples);

/// One unit of measured work: its round trip in ns, the ops it completed,
/// and the host's slowness right before it (host_slowness()).
struct Unit {
  double latency_ns = 0.0;
  double ops = 0.0;
  double slowness = 1.0;

  /// The round trip scaled to the reference host speed.
  double scaled_ns() const { return latency_ns / slowness; }
};

/// The timing figures of a measured phase, from its round trips scaled to
/// the reference host speed, and the same figures unscaled.
///
/// On the reference host 1 to 5 % of the serve round trips are stretched
/// by the hypervisor descheduling a vCPU for a millisecond or more, at a
/// rate that changes from minute to minute: any percentile above about p95
/// reads that rate, not the program. So the tail is read at a fixed p90,
/// and the rate leaves out the slowest hundredth of the round trips.
struct Timing {
  double ops_per_s = 0.0;  ///< ops over the summed scaled round trips at or below their p99
  double p50_ns = 0.0;     ///< median scaled round trip
  double p90_ns = 0.0;     ///< p90 of the scaled round trips, however many a run fits
  TailPercentile tail;     ///< the tail_percentile() rule over the scaled round trips
  double raw_ops_per_s = 0.0;  ///< ops over all round trips, unscaled
  double raw_p50_ns = 0.0;
  double slowness = 0.0;  ///< median host slowness over the units
};

/// Requires at least one unit.
Timing timing(const std::vector<Unit>& units);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP
