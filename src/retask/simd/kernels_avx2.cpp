// AVX2 kernel backend: 4-lane double / 4-lane int64 implementations of the
// hot kernels. Compiled with -mavx2 (see src/CMakeLists.txt); the dispatcher
// only hands this table out when the host CPU reports AVX2.
//
// Bit-identity (why each lane computes exactly the scalar result): both
// kernels are elementwise — no reassociated FP reductions, and the build
// disables FMA contraction (-ffp-contract=off), so per-lane arithmetic
// matches the scalar reference operation for operation.
#include "retask/simd/kernels.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace retask::simd {

namespace {

#include "retask/simd/kernels_scalar_impl.inl"

constexpr std::size_t kLanes = 4;

// ORs a 4-bit lane mask into the take bitset at bit position `base`,
// spilling into the next word when the chunk straddles a word boundary.
inline void or_take_bits(std::uint64_t* take_row, std::size_t base, unsigned bits) {
  const std::size_t word = base >> 6;
  const std::size_t off = base & 63;
  take_row[word] |= static_cast<std::uint64_t>(bits) << off;
  if (off > 64 - kLanes) take_row[word + 1] |= static_cast<std::uint64_t>(bits) >> (64 - off);
}

void avx2_relax_desc_f64(double* row, std::uint64_t* take_row, std::size_t shift, std::size_t lo,
                         std::size_t hi, double add) {
  // Descending chunks preserve the scalar loop's old-value semantics: every
  // read index w - shift is strictly below all indices already written
  // (shift >= 0), and within a chunk both vectors load before the store.
  const __m256d add_v = _mm256_set1_pd(add);
  std::size_t w = hi + 1;  // exclusive upper end of the unprocessed range
  while (w >= lo + kLanes) {
    const std::size_t base = w - kLanes;
    const __m256d src = _mm256_loadu_pd(row + base - shift);
    const __m256d dst = _mm256_loadu_pd(row + base);
    const __m256d cand = _mm256_add_pd(src, add_v);
    const __m256d improved = _mm256_cmp_pd(cand, dst, _CMP_GT_OQ);
    const int bits = _mm256_movemask_pd(improved);
    if (bits != 0) {
      _mm256_storeu_pd(row + base, _mm256_blendv_pd(dst, cand, improved));
      or_take_bits(take_row, base, static_cast<unsigned>(bits));
    }
    w = base;
  }
  if (w > lo) scalar_relax_desc_f64(row, take_row, shift, lo, w - 1, add);
}

void avx2_relax_desc_i64(std::int64_t* rej, double* payload, std::uint64_t* take_row,
                         std::size_t shift, std::size_t lo, std::size_t hi,
                         std::int64_t add_cycles, double add_payload) {
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
      or_take_bits(take_row, base, static_cast<unsigned>(bits));
    }
    w = base;
  }
  if (w > lo) {
    scalar_relax_desc_i64(rej, payload, take_row, shift, lo, w - 1, add_cycles, add_payload);
  }
}

}  // namespace

const KernelTable* avx2_table() noexcept {
  static const KernelTable table{
      &avx2_relax_desc_f64,
      &avx2_relax_desc_i64,
  };
  return &table;
}

}  // namespace retask::simd

#else  // !__AVX2__

namespace retask::simd {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace retask::simd

#endif
