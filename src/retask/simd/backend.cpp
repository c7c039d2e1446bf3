// Runtime backend selection: cpuid detection, RETASK_SIMD overrides, and
// the thread-local forcing used by the equivalence tests and the fuzzer.
#include "retask/simd/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "retask/common/error.hpp"
#include "retask/simd/kernels.hpp"

namespace retask::simd {

namespace {

thread_local int t_backend_override = -1;  // -1: no per-thread override
std::atomic<int> g_backend{-1};            // -1: not yet resolved

const KernelTable* table_for(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return scalar_table();
    case Backend::kSse2: return sse2_table();
    case Backend::kAvx2: return avx2_table();
    case Backend::kNeon: return neon_table();
  }
  return nullptr;
}

bool cpu_supports(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__)
      return true;  // SSE2 is baseline on x86-64
#elif defined(__i386__) && defined(__GNUC__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

/// Process-wide default: the RETASK_SIMD environment variable, else the
/// widest backend the CPU supports.
int resolve_default() {
  const char* env = std::getenv("RETASK_SIMD");
  const std::string name = env != nullptr ? std::string(env) : std::string();
  Backend chosen = Backend::kScalar;
  if (!name.empty() && parse_backend(name, chosen)) {
    require(backend_available(chosen), "RETASK_SIMD: backend '" + name +
                                           "' is not available on this host (compiled out or "
                                           "unsupported CPU)");
    return static_cast<int>(chosen);
  }
  return static_cast<int>(detect_backend());
}

}  // namespace

std::string_view to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kSse2: return "sse2";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend& backend) {
  if (name == "auto" || name.empty()) return false;
  if (name == "off" || name == "scalar") {
    backend = Backend::kScalar;
  } else if (name == "sse2") {
    backend = Backend::kSse2;
  } else if (name == "avx2") {
    backend = Backend::kAvx2;
  } else if (name == "neon") {
    backend = Backend::kNeon;
  } else {
    throw Error("RETASK_SIMD: unknown backend '" + std::string(name) +
                "' (expected off|scalar|sse2|avx2|neon|auto)");
  }
  return true;
}

Backend detect_backend() noexcept {
  for (const Backend candidate : {Backend::kAvx2, Backend::kNeon, Backend::kSse2}) {
    if (table_for(candidate) != nullptr && cpu_supports(candidate)) return candidate;
  }
  return Backend::kScalar;
}

bool backend_available(Backend backend) noexcept {
  return table_for(backend) != nullptr && cpu_supports(backend);
}

std::vector<Backend> available_vector_backends() {
  std::vector<Backend> backends;
  for (const Backend candidate : {Backend::kSse2, Backend::kAvx2, Backend::kNeon}) {
    if (backend_available(candidate)) backends.push_back(candidate);
  }
  return backends;
}

Backend active_backend() {
  if (t_backend_override >= 0) return static_cast<Backend>(t_backend_override);
  int backend = g_backend.load(std::memory_order_acquire);
  if (backend < 0) {
    // Resolution is deterministic, so a first-use race just recomputes the
    // same value on both threads.
    backend = resolve_default();
    g_backend.store(backend, std::memory_order_release);
  }
  return static_cast<Backend>(backend);
}

void set_backend(Backend backend) {
  require(backend_available(backend), "set_backend: backend '" +
                                          std::string(to_string(backend)) +
                                          "' is not available on this host");
  g_backend.store(static_cast<int>(backend), std::memory_order_release);
}

ScopedBackend::ScopedBackend(Backend backend) : saved_(t_backend_override) {
  require(backend_available(backend), "ScopedBackend: backend '" +
                                          std::string(to_string(backend)) +
                                          "' is not available on this host");
  t_backend_override = static_cast<int>(backend);
}

ScopedBackend::~ScopedBackend() { t_backend_override = saved_; }

const KernelTable& kernels() { return *table_for(active_backend()); }

const KernelTable& kernels_for(Backend backend) {
  require(backend_available(backend), "kernels_for: backend '" +
                                          std::string(to_string(backend)) +
                                          "' is not available on this host");
  return *table_for(backend);
}

}  // namespace retask::simd
