// The host-speed probes. On the reference host, other tenants of the same
// physical cores slow floating-point-heavy code by up to 1.7x, on every
// vCPU at once, for seconds to minutes at a time: a whole run can fall in
// such a phase, and no reading within the run tells it from a slower
// program. The benchmark therefore runs a fixed probe of its own, which no
// change to the library touches, right before each unit of measured work,
// and scales the unit's round trip to the reference speed by how much
// slower than its reference time the probe ran.
#ifndef PERFBENCH_HOST_SPEED_HPP
#define PERFBENCH_HOST_SPEED_HPP

#include <thread>

namespace perfbench {

/// The probe's time on the reference host (4 vCPU Intel Xeon, AVX-512)
/// when nothing slows it: most probes there read 180 to 190 us, the rest
/// up to 1.7 times more.
inline constexpr double kProbeReferenceNs = 180000.0;

/// Runs the probe, a libm loop (pow and cbrt, as energy evaluation uses
/// them), once (about 0.2 ms) and returns its time over kProbeReferenceNs:
/// how many times slower than the reference the host runs right now.
double host_slowness();

/// The probe of a round trip across two CPUs, for the serve workload,
/// whose requests wait on wake-ups as much as on arithmetic: a thread of
/// the benchmark pinned to the pump's CPU answers each ping over a pipe
/// pair after a slice of the probe loop, as the pump answers a request
/// after handling it.
class EchoProbe {
 public:
  /// The echo's round trip on the reference host when nothing slows it:
  /// most echoes there read 50 to 90 us.
  static constexpr double kReferenceNs = 50000.0;

  /// Starts the echo thread on `cpu` (unpinned when it is negative).
  explicit EchoProbe(int cpu);
  /// Ends the echo thread (end of stream on the ping pipe) and joins it.
  ~EchoProbe();
  EchoProbe(const EchoProbe&) = delete;
  EchoProbe& operator=(const EchoProbe&) = delete;

  /// One ping round trip, its time over kReferenceNs. Throws when the
  /// echo thread is gone.
  double slowness();

 private:
  int ping_[2] = {-1, -1};
  int pong_[2] = {-1, -1};
  std::thread echo_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_HPP
