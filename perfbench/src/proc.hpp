// Process resource readings: peak resident set size and getrusage totals.
#ifndef PERFBENCH_PROC_HPP
#define PERFBENCH_PROC_HPP

#include <sched.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// Value in KiB of the `key` line ("VmHWM", "VmRSS", ...) of a
/// /proc/<pid>/status text; -1 when the line is missing or malformed.
long long status_kib(const std::string& status_text, const std::string& key);

/// Peak resident set size of this process in MiB (VmHWM). Throws when the
/// kernel does not report it.
double peak_rss_mib();

struct ProcUsage {
  double cpu_s = 0.0;                ///< user + system CPU time
  std::uint64_t minor_faults = 0;
};

/// getrusage(RUSAGE_SELF).
ProcUsage proc_usage();

/// Restricts the calling thread, and every thread it starts while pinned,
/// to one CPU: `cpu`, or when it is negative the CPU the thread is running
/// on (the scheduler's choice, so two processes pinned this way rarely
/// share a CPU). A single-threaded run then never migrates. release() (or
/// the destructor) restores the calling thread's previous CPU set; threads
/// started while pinned stay pinned. A pin that cannot be taken leaves the
/// thread as it was, with cpu() = -1.
class CpuPin {
 public:
  explicit CpuPin(int cpu = -1);
  ~CpuPin() { release(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  void release();
  int cpu() const { return cpu_; }

  /// The CPU after cpu() in the thread's previous CPU set, wrapping
  /// around: another CPU when the set has one, cpu() itself when it has
  /// not, -1 when not pinned.
  int next_cpu() const;

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROC_HPP
