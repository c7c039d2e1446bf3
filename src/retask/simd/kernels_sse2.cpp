// SSE2 kernel backend: 2-lane double implementations of the kernels SSE2
// can express. SSE2 has no 64-bit integer compare and no blendv, so the
// FPTAS int64 relaxation and the hull energy batch keep the scalar bodies
// (bit-identity is then trivial); the win is the f64 knapsack relaxation —
// the hottest kernel — plus the argmax/argmin scans. Compiled with -msse2
// (a no-op on x86-64, where SSE2 is baseline).
#include "retask/simd/kernels.hpp"

#if defined(__SSE2__) && (defined(__x86_64__) || defined(__i386__))

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>
#include <limits>

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

std::uint64_t sse2_select_mask_f64(const double* kept, std::size_t n, double total,
                                   double snapshot) {
  // Elementwise: each lane performs exactly the scalar subtract + compare.
  const __m128d total_v = _mm_set1_pd(total);
  const __m128d snap_v = _mm_set1_pd(snapshot);
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m128d penalty = _mm_sub_pd(total_v, _mm_loadu_pd(kept + i));
    const int bits = _mm_movemask_pd(_mm_cmplt_pd(penalty, snap_v));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(bits)) << i;
  }
  for (; i < n; ++i) {
    if (total - kept[i] < snapshot) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

std::uint32_t sse2_select_scan_f64(const double* kept, const double* energy_at, std::size_t n,
                                   std::uint64_t mask, double total, std::size_t w0,
                                   double* best, std::size_t* best_w) {
  if (mask == 0) return 0;
  // Branch-free 2-wide precompute of every row's penalty and objective —
  // exactly the scalar walk's operands (IEEE adds commute bit for bit), so
  // reading them back preserves every bit. Only rows < n are touched; mask
  // bits at or above n are never set.
  alignas(16) double pen[64];
  alignas(16) double obj[64];
  const __m128d total_v = _mm_set1_pd(total);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m128d p = _mm_sub_pd(total_v, _mm_loadu_pd(kept + i));
    _mm_store_pd(pen + i, p);
    _mm_store_pd(obj + i, _mm_add_pd(_mm_loadu_pd(energy_at + i), p));
  }
  for (; i < n; ++i) {
    pen[i] = total - kept[i];
    obj[i] = energy_at[i] + pen[i];
  }
  // The decision walk replays the scalar order exactly — the early-exit's
  // timing depends on the live best, so only the arithmetic vectorizes.
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    const auto bit = static_cast<std::size_t>(__builtin_ctzll(bits));
    if (pen[bit] >= *best) continue;
    if (energy_at[bit] >= *best) return 1;
    if (obj[bit] < *best) {
      *best = obj[bit];
      *best_w = w0 + bit;
    }
  }
  return 0;
}

std::size_t sse2_argmax_f64(const double* values, std::size_t n, double init) {
  if (n < 2 * kLanes) return scalar_argmax_f64(values, n, init);
  __m128d best_v = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) best_v = _mm_max_pd(best_v, _mm_loadu_pd(values + i));
  alignas(16) double lanes[kLanes];
  _mm_store_pd(lanes, best_v);
  double best = init;
  bool found = false;
  for (std::size_t k = 0; k < kLanes; ++k) {
    if (lanes[k] > best) {
      best = lanes[k];
      found = true;
    }
  }
  for (; i < n; ++i) {
    if (values[i] > best) {
      best = values[i];
      found = true;
    }
  }
  if (!found) return kNpos;
  const __m128d best_b = _mm_set1_pd(best);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const int eq = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(values + j), best_b));
    if (eq != 0) return j + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
  }
  for (; j < n; ++j) {
    if (values[j] == best) return j;
  }
  return kNpos;  // unreachable
}

std::size_t sse2_argmin_strided_f64(const double* values, std::size_t n, std::size_t stride,
                                    double init) {
  if (stride != 1 || n < 2 * kLanes) return scalar_argmin_strided_f64(values, n, stride, init);
  __m128d best_v = _mm_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) best_v = _mm_min_pd(best_v, _mm_loadu_pd(values + i));
  alignas(16) double lanes[kLanes];
  _mm_store_pd(lanes, best_v);
  double best = init;
  bool found = false;
  for (std::size_t k = 0; k < kLanes; ++k) {
    if (lanes[k] < best) {
      best = lanes[k];
      found = true;
    }
  }
  for (; i < n; ++i) {
    if (values[i] < best) {
      best = values[i];
      found = true;
    }
  }
  if (!found) return kNpos;
  const __m128d best_b = _mm_set1_pd(best);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const int eq = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(values + j), best_b));
    if (eq != 0) return j + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
  }
  for (; j < n; ++j) {
    if (values[j] == best) return j;
  }
  return kNpos;  // unreachable
}

}  // namespace

const KernelTable* sse2_table() noexcept {
  static const KernelTable table{
      &sse2_relax_desc_f64,    &scalar_relax_desc_i64,      &sse2_argmax_f64,
      &sse2_argmin_strided_f64, &scalar_energy_hull_cycles, &sse2_select_mask_f64,
      &sse2_select_scan_f64,
  };
  return &table;
}

}  // namespace retask::simd

#else  // !__SSE2__

namespace retask::simd {
const KernelTable* sse2_table() noexcept { return nullptr; }
}  // namespace retask::simd

#endif
