// SSE2 kernel backend: a 2-lane double implementation of the f64 knapsack
// relaxation, the hottest kernel. SSE2 has no 64-bit integer compare, so the
// FPTAS int64 relaxation keeps the scalar body (bit-identity is then
// trivial). Compiled with -msse2 (a no-op on x86-64, where SSE2 is baseline).
#include "retask/simd/kernels.hpp"

#if defined(__SSE2__) && (defined(__x86_64__) || defined(__i386__))

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

namespace retask::simd {

namespace {

#include "retask/simd/kernels_scalar_impl.inl"

constexpr std::size_t kLanes = 2;

inline void or_take_bits(std::uint64_t* take_row, std::size_t base, unsigned bits) {
  const std::size_t word = base >> 6;
  const std::size_t off = base & 63;
  take_row[word] |= static_cast<std::uint64_t>(bits) << off;
  if (off > 64 - kLanes) take_row[word + 1] |= static_cast<std::uint64_t>(bits) >> (64 - off);
}

// blendv emulation: mask lanes must be all-ones/all-zeros (compare output).
inline __m128d select_pd(__m128d when_clear, __m128d when_set, __m128d mask) {
  return _mm_or_pd(_mm_and_pd(mask, when_set), _mm_andnot_pd(mask, when_clear));
}

void sse2_relax_desc_f64(double* row, std::uint64_t* take_row, std::size_t shift, std::size_t lo,
                         std::size_t hi, double add) {
  const __m128d add_v = _mm_set1_pd(add);
  std::size_t w = hi + 1;  // exclusive upper end of the unprocessed range
  while (w >= lo + kLanes) {
    const std::size_t base = w - kLanes;
    const __m128d src = _mm_loadu_pd(row + base - shift);
    const __m128d dst = _mm_loadu_pd(row + base);
    const __m128d cand = _mm_add_pd(src, add_v);
    const __m128d improved = _mm_cmpgt_pd(cand, dst);
    const int bits = _mm_movemask_pd(improved);
    if (bits != 0) {
      _mm_storeu_pd(row + base, select_pd(dst, cand, improved));
      or_take_bits(take_row, base, static_cast<unsigned>(bits));
    }
    w = base;
  }
  if (w > lo) scalar_relax_desc_f64(row, take_row, shift, lo, w - 1, add);
}

}  // namespace

const KernelTable* sse2_table() noexcept {
  static const KernelTable table{
      &sse2_relax_desc_f64,
      &scalar_relax_desc_i64,
  };
  return &table;
}

}  // namespace retask::simd

#else  // !__SSE2__

namespace retask::simd {
const KernelTable* sse2_table() noexcept { return nullptr; }
}  // namespace retask::simd

#endif
