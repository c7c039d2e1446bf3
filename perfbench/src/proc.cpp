#include "proc.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::string read_status() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

long long status_kib(const std::string& status_text, const std::string& key) {
  std::istringstream lines(status_text);
  std::string line;
  const std::string prefix = key + ":";
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    long long value = -1;
    std::string unit;
    if (!(fields >> value >> unit) || unit != "kB" || value < 0) return -1;
    return value;
  }
  return -1;
}

double peak_rss_mib() {
  const long long kib = status_kib(read_status(), "VmHWM");
  if (kib < 0) throw std::runtime_error("/proc/self/status has no VmHWM line");
  return static_cast<double>(kib) / 1024.0;
}

CpuPin::CpuPin(int cpu) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  if (cpu < 0) cpu = sched_getcpu();
  // An explicit CPU may lie outside the current set (a thread started by a
  // pinned one); the kernel refuses it if the process may not use it.
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) cpu_ = cpu;
}

int CpuPin::next_cpu() const {
  if (cpu_ < 0) return -1;
  for (int step = 1; step < CPU_SETSIZE; ++step) {
    const int cpu = (cpu_ + step) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &saved_)) return cpu;
  }
  return cpu_;
}

void CpuPin::release() {
  if (cpu_ < 0) return;
  sched_setaffinity(0, sizeof saved_, &saved_);
  cpu_ = -1;
}

ProcUsage proc_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcUsage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  out.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  return out;
}

}  // namespace perfbench
