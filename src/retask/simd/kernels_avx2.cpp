// AVX2 kernel backend: 4-lane double / 4-lane int64 implementations of the
// hot kernels. Compiled with -mavx2 (see src/CMakeLists.txt); the dispatcher
// only hands this table out when the host CPU reports AVX2.
//
// Bit-identity notes (why each lane computes exactly the scalar result):
//  * every kernel is elementwise — no reassociated FP reductions, and the
//    build disables FMA contraction (-ffp-contract=off), so per-lane
//    arithmetic matches the scalar reference operation for operation;
//  * min/max tie cases (which operand's bits survive an equal compare) only
//    differ between std::min/max and vminpd/vmaxpd on +-0.0 ties, and every
//    such site below is either sign-insensitive downstream (idle cost adds
//    +-0.0 to a nonnegative product) or operates on strictly positive
//    speeds;
//  * the argmax/argmin reductions return the first index attaining the
//    optimum, which equals the scalar strict-improvement scan's answer, so
//    the reduced *value* never leaves the kernel — only the index does.
#include "retask/simd/kernels.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#include "retask/common/math.hpp"

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

inline __m256d abs_pd(__m256d x) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x); }

// Exact int64 -> double conversion for 0 <= x < 2^52 (the kernel contract):
// OR the payload into the mantissa of 2^52 and subtract the bias.
inline __m256d i64_to_f64(__m256i x) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(x, magic)),
                       _mm256_castsi256_pd(magic));
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

std::uint64_t avx2_select_mask_f64(const double* kept, std::size_t n, double total,
                                   double snapshot) {
  // Elementwise: each lane performs exactly the scalar subtract + compare.
  const __m256d total_v = _mm256_set1_pd(total);
  const __m256d snap_v = _mm256_set1_pd(snapshot);
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d penalty = _mm256_sub_pd(total_v, _mm256_loadu_pd(kept + i));
    const int bits = _mm256_movemask_pd(_mm256_cmp_pd(penalty, snap_v, _CMP_LT_OQ));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(bits)) << i;
  }
  for (; i < n; ++i) {
    if (total - kept[i] < snapshot) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

std::uint32_t avx2_select_scan_f64(const double* kept, const double* energy_at, std::size_t n,
                                   std::uint64_t mask, double total, std::size_t w0,
                                   double* best, std::size_t* best_w) {
  if (mask == 0) return 0;
  // Branch-free 4-wide precompute of every row's penalty and objective —
  // exactly the scalar walk's operands (IEEE adds commute bit for bit), so
  // reading them back preserves every bit. Only rows < n are touched; mask
  // bits at or above n are never set.
  alignas(32) double pen[64];
  alignas(32) double obj[64];
  const __m256d total_v = _mm256_set1_pd(total);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d p = _mm256_sub_pd(total_v, _mm256_loadu_pd(kept + i));
    _mm256_store_pd(pen + i, p);
    _mm256_store_pd(obj + i, _mm256_add_pd(_mm256_loadu_pd(energy_at + i), p));
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

std::size_t avx2_argmax_f64(const double* values, std::size_t n, double init) {
  if (n < 2 * kLanes) return scalar_argmax_f64(values, n, init);
  __m256d best_v = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    best_v = _mm256_max_pd(best_v, _mm256_loadu_pd(values + i));
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, best_v);
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
  // First index attaining the maximum == the scalar strict-improvement scan.
  const __m256d best_b = _mm256_set1_pd(best);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const int eq =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(values + j), best_b, _CMP_EQ_OQ));
    if (eq != 0) return j + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
  }
  for (; j < n; ++j) {
    if (values[j] == best) return j;
  }
  return kNpos;  // unreachable: the maximum exists
}

std::size_t avx2_argmin_strided_f64(const double* values, std::size_t n, std::size_t stride,
                                    double init) {
  if (stride != 1 || n < 2 * kLanes) return scalar_argmin_strided_f64(values, n, stride, init);
  __m256d best_v = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    best_v = _mm256_min_pd(best_v, _mm256_loadu_pd(values + i));
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, best_v);
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
  const __m256d best_b = _mm256_set1_pd(best);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const int eq =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(values + j), best_b, _CMP_EQ_OQ));
    if (eq != 0) return j + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
  }
  for (; j < n; ++j) {
    if (values[j] == best) return j;
  }
  return kNpos;  // unreachable
}

void avx2_energy_hull_cycles(const HullEnergyParams& params, const std::int64_t* cycles,
                             double* out, std::size_t n) {
  const __m256d window = _mm256_set1_pd(params.window);
  const __m256d smax = _mm256_set1_pd(params.smax);
  const __m256d front_speed = _mm256_set1_pd(params.hull_speed[0]);
  const __m256d pind = _mm256_set1_pd(params.static_power);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d rel_tol = _mm256_set1_pd(kRelTol);
  const __m256d infinity = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const bool enable = params.dormant_enable;

  // leq_tol/almost_equal transliterated for finite inputs (all speeds and
  // candidate averages here are finite, so the isfinite prefilter is moot).
  const auto leq_tol_v = [&](__m256d a, __m256d b) {
    const __m256d le = _mm256_cmp_pd(a, b, _CMP_LE_OQ);
    const __m256d scale = _mm256_max_pd(_mm256_max_pd(abs_pd(a), abs_pd(b)), one);
    const __m256d near_eq = _mm256_cmp_pd(abs_pd(_mm256_sub_pd(a, b)),
                                          _mm256_mul_pd(rel_tol, scale), _CMP_LE_OQ);
    return _mm256_or_pd(le, near_eq);
  };

  // EnergyCurve::hull_power per lane; the `done` mask reproduces the scalar
  // first-matching-segment early return.
  const auto hull_power_v = [&](__m256d s) {
    __m256d done = _mm256_cmp_pd(s, front_speed, _CMP_LE_OQ);
    __m256d power = _mm256_and_pd(done, _mm256_set1_pd(params.hull_power[0]));
    for (std::size_t seg = 0; seg + 1 < params.hull_size; ++seg) {
      const double a_speed = params.hull_speed[seg];
      const double b_speed = params.hull_speed[seg + 1];
      const __m256d b_speed_v = _mm256_set1_pd(b_speed);
      const __m256d hit = _mm256_andnot_pd(done, leq_tol_v(s, b_speed_v));
      const __m256d theta =
          _mm256_div_pd(_mm256_sub_pd(b_speed_v, s), _mm256_set1_pd(b_speed - a_speed));
      const __m256d interp =
          _mm256_add_pd(_mm256_mul_pd(theta, _mm256_set1_pd(params.hull_power[seg])),
                        _mm256_mul_pd(_mm256_sub_pd(one, theta),
                                      _mm256_set1_pd(params.hull_power[seg + 1])));
      power = _mm256_blendv_pd(power, interp, hit);
      done = _mm256_or_pd(done, hit);
    }
    return _mm256_blendv_pd(_mm256_set1_pd(params.hull_power[params.hull_size - 1]), power,
                            done);
  };

  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i cyc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cycles + i));
    const __m256d work = _mm256_mul_pd(_mm256_set1_pd(params.work_per_cycle), i64_to_f64(cyc));
    const __m256d s_req = _mm256_min_pd(_mm256_div_pd(work, window), smax);
    const __m256d lower =
        _mm256_min_pd(_mm256_max_pd(_mm256_max_pd(s_req, front_speed), front_speed), smax);

    __m256d best = infinity;
    const auto consider = [&](__m256d s, __m256d p, bool sleeps, __m256d valid) {
      const __m256d busy = _mm256_div_pd(work, s);
      const __m256d idle = _mm256_max_pd(zero, _mm256_sub_pd(window, busy));
      __m256d ok = valid;
      __m256d cost;
      if (sleeps) {
        // scalar: return when idle < switch_time, i.e. keep idle >= tsw
        ok = _mm256_and_pd(
            ok, _mm256_cmp_pd(idle, _mm256_set1_pd(params.switch_time), _CMP_GE_OQ));
        cost = _mm256_add_pd(_mm256_mul_pd(busy, p), _mm256_set1_pd(params.switch_energy));
      } else {
        cost = _mm256_add_pd(_mm256_mul_pd(busy, p), _mm256_mul_pd(pind, idle));
      }
      const __m256d better = _mm256_and_pd(ok, _mm256_cmp_pd(cost, best, _CMP_LT_OQ));
      best = _mm256_blendv_pd(best, cost, better);
    };
    const auto consider_both = [&](__m256d s, __m256d valid) {
      const __m256d p = hull_power_v(s);
      consider(s, p, false, valid);
      if (enable) consider(s, p, true, valid);
    };

    // Same candidate order as the scalar reference: lower, smax, hull
    // vertices, sleep boundary; strict < keeps the earliest winner on ties.
    const __m256d all = _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ);
    consider_both(lower, all);
    consider_both(smax, all);
    for (std::size_t v = 0; v < params.hull_size; ++v) {
      const double vertex = params.hull_speed[v];
      if (!(vertex < params.smax)) continue;  // lane-uniform half of the filter
      const __m256d vertex_v = _mm256_set1_pd(vertex);
      const __m256d valid = _mm256_cmp_pd(vertex_v, lower, _CMP_GT_OQ);
      if (_mm256_movemask_pd(valid) == 0) continue;
      consider_both(vertex_v, valid);
    }
    if (enable && params.switch_time > 0.0 && params.window - params.switch_time > 0.0) {
      const __m256d boundary =
          _mm256_div_pd(work, _mm256_set1_pd(params.window - params.switch_time));
      const __m256d valid = _mm256_and_pd(_mm256_cmp_pd(boundary, lower, _CMP_GT_OQ),
                                          _mm256_cmp_pd(boundary, smax, _CMP_LT_OQ));
      if (_mm256_movemask_pd(valid) != 0) consider_both(boundary, valid);
    }

    const __m256d positive = _mm256_cmp_pd(work, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(_mm256_set1_pd(params.e_zero), best, positive));
  }
  if (i < n) scalar_energy_hull_cycles(params, cycles + i, out + i, n - i);
}

}  // namespace

const KernelTable* avx2_table() noexcept {
  static const KernelTable table{
      &avx2_relax_desc_f64,    &avx2_relax_desc_i64,      &avx2_argmax_f64,
      &avx2_argmin_strided_f64, &avx2_energy_hull_cycles, &avx2_select_mask_f64,
      &avx2_select_scan_f64,
  };
  return &table;
}

}  // namespace retask::simd

#else  // !__AVX2__

namespace retask::simd {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace retask::simd

#endif
