// The kernel bodies and their runtime dispatch: the scalar reference, the
// AVX2 bodies, cpuid detection, RETASK_SIMD overrides and the thread-local
// forcing used by the equivalence tests and the fuzzer.
//
// The AVX2 bodies are compiled for AVX2 by function attribute, so the rest
// of this file (the scalar reference included) keeps the build's baseline
// ISA; the dispatcher hands the AVX2 table out only when the host CPU
// reports AVX2.
#include "retask/simd/kernels.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "retask/common/error.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define RETASK_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define RETASK_HAVE_AVX2_KERNELS 0
#endif

namespace retask::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference: the normative semantics every backend matches bit for bit.

void scalar_relax_desc_f64(double* row, std::uint64_t* take_row, std::size_t shift,
                           std::size_t lo, std::size_t hi, double add) {
  for (std::size_t w = hi + 1; w-- > lo;) {
    const double cand = row[w - shift] + add;  // -inf + add stays -inf
    if (cand > row[w]) {
      row[w] = cand;
      take_row[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }
}

void scalar_relax_desc_i64(std::int64_t* rej, double* payload, std::uint64_t* take_row,
                           std::size_t shift, std::size_t lo, std::size_t hi,
                           std::int64_t add_cycles, double add_payload) {
  for (std::size_t w = hi + 1; w-- > lo;) {
    const std::int64_t src = rej[w - shift];
    if (src < 0) continue;  // unreachable sentinel (-1)
    const std::int64_t cand = src + add_cycles;
    if (cand > rej[w]) {
      rej[w] = cand;
      payload[w] = payload[w - shift] + add_payload;
      take_row[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }
}

constexpr KernelTable kScalarTable{&scalar_relax_desc_f64, &scalar_relax_desc_i64};

// ---------------------------------------------------------------------------
// AVX2: the double body relaxes 16 rows (four vectors) per step, then 4 rows
// per step; the int64 body relaxes 4 rows per step. Both end in the scalar
// reference for the last rows.
//
// Bit-identity (why each lane computes exactly the scalar result): both
// kernels are elementwise — no reassociated FP reductions, and the build
// disables FMA contraction (-ffp-contract=off), so per-lane arithmetic
// matches the scalar reference operation for operation.

#if RETASK_HAVE_AVX2_KERNELS

constexpr std::size_t kLanes = 4;

// Rows one step of the f64 relaxation's main loop covers: four vectors.
constexpr std::size_t kStepRows = 4 * kLanes;

// ORs the kBits-bit lane mask `bits` into the take bitset at bit position
// `base`, spilling into the next word when the mask straddles a word boundary.
template <std::size_t kBits>
inline void or_take_bits(std::uint64_t* take_row, std::size_t base, unsigned bits) {
  const std::size_t word = base >> 6;
  const std::size_t off = base & 63;
  take_row[word] |= static_cast<std::uint64_t>(bits) << off;
  if (off > 64 - kBits) take_row[word + 1] |= static_cast<std::uint64_t>(bits) >> (64 - off);
}

__attribute__((target("avx2"))) void avx2_relax_desc_f64(double* row, std::uint64_t* take_row,
                                                         std::size_t shift, std::size_t lo,
                                                         std::size_t hi, double add) {
  // Descending steps preserve the scalar loop's old-value semantics: every
  // read index w - shift is strictly below all indices already written
  // (shift >= 0), and within a step every vector loads before any store,
  // which matters when shift < kStepRows and the sources overlap the rows the
  // step writes.
  const __m256d add_v = _mm256_set1_pd(add);
  std::size_t w = hi + 1;  // exclusive upper end of the unprocessed range
  while (w >= lo + kStepRows) {
    const std::size_t base = w - kStepRows;
    double* dst = row + base;
    const double* src = dst - shift;
    const __m256d d0 = _mm256_loadu_pd(dst);
    const __m256d d1 = _mm256_loadu_pd(dst + kLanes);
    const __m256d d2 = _mm256_loadu_pd(dst + 2 * kLanes);
    const __m256d d3 = _mm256_loadu_pd(dst + 3 * kLanes);
    const __m256d c0 = _mm256_add_pd(_mm256_loadu_pd(src), add_v);
    const __m256d c1 = _mm256_add_pd(_mm256_loadu_pd(src + kLanes), add_v);
    const __m256d c2 = _mm256_add_pd(_mm256_loadu_pd(src + 2 * kLanes), add_v);
    const __m256d c3 = _mm256_add_pd(_mm256_loadu_pd(src + 3 * kLanes), add_v);
    const __m256d g0 = _mm256_cmp_pd(c0, d0, _CMP_GT_OQ);
    const __m256d g1 = _mm256_cmp_pd(c1, d1, _CMP_GT_OQ);
    const __m256d g2 = _mm256_cmp_pd(c2, d2, _CMP_GT_OQ);
    const __m256d g3 = _mm256_cmp_pd(c3, d3, _CMP_GT_OQ);
    const auto bits = static_cast<unsigned>(_mm256_movemask_pd(g0) | _mm256_movemask_pd(g1) << 4 |
                                            _mm256_movemask_pd(g2) << 8 |
                                            _mm256_movemask_pd(g3) << 12);
    // A step that improves some lane stores all four vectors, in which an
    // unimproved lane blends its own loaded bits back (the row then holds
    // the bits the scalar loop leaves, which writes improved rows only), and
    // ORs its 16 take bits at once. A step that improves none skips both: on
    // the exact DP's rows that runs faster than storing every step.
    if (bits != 0) {
      _mm256_storeu_pd(dst, _mm256_blendv_pd(d0, c0, g0));
      _mm256_storeu_pd(dst + kLanes, _mm256_blendv_pd(d1, c1, g1));
      _mm256_storeu_pd(dst + 2 * kLanes, _mm256_blendv_pd(d2, c2, g2));
      _mm256_storeu_pd(dst + 3 * kLanes, _mm256_blendv_pd(d3, c3, g3));
      or_take_bits<kStepRows>(take_row, base, bits);
    }
    w = base;
  }
  while (w >= lo + kLanes) {
    const std::size_t base = w - kLanes;
    const __m256d src = _mm256_loadu_pd(row + base - shift);
    const __m256d dst = _mm256_loadu_pd(row + base);
    const __m256d cand = _mm256_add_pd(src, add_v);
    const __m256d improved = _mm256_cmp_pd(cand, dst, _CMP_GT_OQ);
    const int bits = _mm256_movemask_pd(improved);
    if (bits != 0) {
      _mm256_storeu_pd(row + base, _mm256_blendv_pd(dst, cand, improved));
      or_take_bits<kLanes>(take_row, base, static_cast<unsigned>(bits));
    }
    w = base;
  }
  if (w > lo) scalar_relax_desc_f64(row, take_row, shift, lo, w - 1, add);
}

__attribute__((target("avx2"))) void avx2_relax_desc_i64(std::int64_t* rej, double* payload,
                                                         std::uint64_t* take_row,
                                                         std::size_t shift, std::size_t lo,
                                                         std::size_t hi, std::int64_t add_cycles,
                                                         double add_payload) {
  const __m256i add_c = _mm256_set1_epi64x(add_cycles);
  const __m256i none = _mm256_set1_epi64x(-1);
  const __m256d add_p = _mm256_set1_pd(add_payload);
  std::size_t w = hi + 1;
  while (w >= lo + kLanes) {
    const std::size_t base = w - kLanes;
    const __m256i src = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rej + base - shift));
    const __m256i dst = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rej + base));
    const __m256i reachable = _mm256_cmpgt_epi64(src, none);  // src > -1
    const __m256i cand = _mm256_add_epi64(src, add_c);
    const __m256i improved = _mm256_and_si256(reachable, _mm256_cmpgt_epi64(cand, dst));
    const int bits = _mm256_movemask_pd(_mm256_castsi256_pd(improved));
    if (bits != 0) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(rej + base),
                          _mm256_blendv_epi8(dst, cand, improved));
      const __m256d pay_src = _mm256_loadu_pd(payload + base - shift);
      const __m256d pay_dst = _mm256_loadu_pd(payload + base);
      const __m256d pay_cand = _mm256_add_pd(pay_src, add_p);
      _mm256_storeu_pd(payload + base,
                       _mm256_blendv_pd(pay_dst, pay_cand, _mm256_castsi256_pd(improved)));
      or_take_bits<kLanes>(take_row, base, static_cast<unsigned>(bits));
    }
    w = base;
  }
  if (w > lo) {
    scalar_relax_desc_i64(rej, payload, take_row, shift, lo, w - 1, add_cycles, add_payload);
  }
}

constexpr KernelTable kAvx2Table{&avx2_relax_desc_f64, &avx2_relax_desc_i64};

#endif  // RETASK_HAVE_AVX2_KERNELS

// ---------------------------------------------------------------------------
// Dispatch.

thread_local int t_backend_override = -1;  // -1: no per-thread override
std::atomic<int> g_backend{-1};            // -1: not yet resolved

const KernelTable& table_for(Backend backend) noexcept {
#if RETASK_HAVE_AVX2_KERNELS
  return backend == Backend::kAvx2 ? kAvx2Table : kScalarTable;
#else
  static_cast<void>(backend);  // the AVX2 bodies are compiled out
  return kScalarTable;
#endif
}

/// Process-wide default: the RETASK_SIMD environment variable, else
/// detection.
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
    case Backend::kAvx2: return "avx2";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend& backend) {
  if (name == "auto" || name.empty()) return false;
  if (name == "off" || name == "scalar") {
    backend = Backend::kScalar;
  } else if (name == "avx2") {
    backend = Backend::kAvx2;
  } else {
    throw Error("RETASK_SIMD: unknown backend '" + std::string(name) +
                "' (expected off|scalar|avx2|auto)");
  }
  return true;
}

Backend detect_backend() noexcept {
  return backend_available(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

bool backend_available(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return true;
    case Backend::kAvx2:
#if RETASK_HAVE_AVX2_KERNELS
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
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

const KernelTable& kernels() { return table_for(active_backend()); }

const KernelTable& kernels_for(Backend backend) {
  require(backend_available(backend), "kernels_for: backend '" +
                                          std::string(to_string(backend)) +
                                          "' is not available on this host");
  return table_for(backend);
}

}  // namespace retask::simd
