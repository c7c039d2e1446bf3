// Runtime SIMD backend selection for the vector-kernel layer.
//
// The library ships two implementations of every kernel: the scalar
// reference and, on x86 GCC/Clang builds, AVX2 bodies compiled by function
// attribute. At first use the dispatcher picks AVX2 when the host CPU
// reports it, else scalar (aarch64 and pre-AVX2 x86 hosts run the scalar
// reference); the `RETASK_SIMD=off|scalar|avx2|auto` environment variable
// overrides that choice process-wide, and `ScopedBackend` overrides it per
// thread (used by the differential fuzzer to pit backends against each other
// on worker threads without racing).
//
// Every backend is bit-identical to the scalar path by construction: all
// kernels are elementwise (no reassociated floating-point reductions), so
// forcing a backend changes latency, never solutions. `tests/
// test_simd_kernels.cpp` and `retask_fuzz --simd-diff` enforce this.
#ifndef RETASK_SIMD_BACKEND_HPP
#define RETASK_SIMD_BACKEND_HPP

#include <string>
#include <string_view>

namespace retask::simd {

/// Kernel implementation families. `kScalar` is always available; `kAvx2`
/// only when the library was built for x86 by GCC or Clang *and* the host
/// CPU reports AVX2 at runtime.
enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable backend name ("scalar", "avx2").
std::string_view to_string(Backend backend) noexcept;

/// Parses a backend name as accepted by `RETASK_SIMD`. "off" and "scalar"
/// both mean `kScalar`; "auto" (or "") means detect. Throws `retask::Error`
/// on unknown names.
/// Returns true and sets `backend` for explicit names; returns false for
/// "auto"/"" (caller should detect).
bool parse_backend(std::string_view name, Backend& backend);

/// `kAvx2` when it is available, else `kScalar`.
Backend detect_backend() noexcept;

/// True when `backend`'s kernel table was compiled in and the host CPU can
/// execute it.
bool backend_available(Backend backend) noexcept;

/// The backend the calling thread will dispatch to: the thread-local
/// override if one is active, else the process-wide selection (resolved on
/// first use from the `RETASK_SIMD` environment variable, else detection).
Backend active_backend();

/// Forces the process-wide backend. Throws `retask::Error` when `backend`
/// is not available on this host. Threads holding a `ScopedBackend`
/// override are unaffected until it unwinds.
void set_backend(Backend backend);

/// RAII thread-local backend override, nestable. Used by tests and the
/// fuzzer's `--simd-diff` mode to run forced-scalar and dispatched solves
/// side by side on the same worker thread.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  int saved_;
};

}  // namespace retask::simd

#endif  // RETASK_SIMD_BACKEND_HPP
