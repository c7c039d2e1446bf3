#include "host_speed.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "proc.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

void probe_loop(int iterations) {
  // volatile keeps every iteration.
  volatile double sink = 0.0;
  double x = 1.0001;
  for (int i = 0; i < iterations; ++i) {
    sink = sink + std::pow(x, 2.7) + std::cbrt(x);
    x += 1e-7;
  }
}

/// Iterations of the probe loop in host_slowness(), and in one echo.
constexpr int kProbeIterations = 6000;
constexpr int kEchoIterations = 1000;

void close_pair(int (&fds)[2]) {
  for (int& fd : fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

}  // namespace

double host_slowness() {
  const std::int64_t start = now_ns();
  probe_loop(kProbeIterations);
  return static_cast<double>(now_ns() - start) / kProbeReferenceNs;
}

EchoProbe::EchoProbe(int cpu) {
  if (pipe2(ping_, O_CLOEXEC) != 0 || pipe2(pong_, O_CLOEXEC) != 0) {
    const std::string error = std::strerror(errno);
    close_pair(ping_);
    close_pair(pong_);
    throw std::runtime_error("EchoProbe: pipe2: " + error);
  }
  try {
    echo_ = std::thread([this, cpu] {
      std::optional<CpuPin> pin;
      if (cpu >= 0) pin.emplace(cpu);
      char byte = 0;
      while (::read(ping_[0], &byte, 1) == 1) {
        probe_loop(kEchoIterations);
        if (::write(pong_[1], &byte, 1) != 1) break;
      }
    });
  } catch (...) {
    close_pair(ping_);
    close_pair(pong_);
    throw;
  }
}

EchoProbe::~EchoProbe() {
  ::close(ping_[1]);  // end of stream for the echo thread
  ping_[1] = -1;
  echo_.join();
  close_pair(ping_);
  close_pair(pong_);
}

double EchoProbe::slowness() {
  char byte = 1;
  const std::int64_t start = now_ns();
  if (::write(ping_[1], &byte, 1) != 1 || ::read(pong_[0], &byte, 1) != 1) {
    throw std::runtime_error("EchoProbe: the echo thread is gone");
  }
  return static_cast<double>(now_ns() - start) / kReferenceNs;
}

}  // namespace perfbench
