// NEON (aarch64) kernel backend: 2-lane double / 2-lane int64 kernels for
// the relaxations and scans. The hull energy batch keeps the scalar body
// (the heavy masking does not pay at 2 lanes). Untested in x86 CI; the
// structure mirrors the SSE2/AVX2 backends and the same equivalence tests
// gate it on ARM hosts.
#include "retask/simd/kernels.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

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

inline unsigned mask_bits(uint64x2_t mask) {
  return static_cast<unsigned>(vgetq_lane_u64(mask, 0) & 1u) |
         (static_cast<unsigned>(vgetq_lane_u64(mask, 1) & 1u) << 1);
}

void neon_relax_desc_f64(double* row, std::uint64_t* take_row, std::size_t shift, std::size_t lo,
                         std::size_t hi, double add) {
  const float64x2_t add_v = vdupq_n_f64(add);
  std::size_t w = hi + 1;
  while (w >= lo + kLanes) {
    const std::size_t base = w - kLanes;
    const float64x2_t src = vld1q_f64(row + base - shift);
    const float64x2_t dst = vld1q_f64(row + base);
    const float64x2_t cand = vaddq_f64(src, add_v);
    const uint64x2_t improved = vcgtq_f64(cand, dst);
    const unsigned bits = mask_bits(improved);
    if (bits != 0) {
      vst1q_f64(row + base, vbslq_f64(improved, cand, dst));
      or_take_bits(take_row, base, bits);
    }
    w = base;
  }
  if (w > lo) scalar_relax_desc_f64(row, take_row, shift, lo, w - 1, add);
}

void neon_relax_desc_i64(std::int64_t* rej, double* payload, std::uint64_t* take_row,
                         std::size_t shift, std::size_t lo, std::size_t hi,
                         std::int64_t add_cycles, double add_payload) {
  const int64x2_t add_c = vdupq_n_s64(add_cycles);
  const int64x2_t none = vdupq_n_s64(-1);
  const float64x2_t add_p = vdupq_n_f64(add_payload);
  std::size_t w = hi + 1;
  while (w >= lo + kLanes) {
    const std::size_t base = w - kLanes;
    const int64x2_t src = vld1q_s64(rej + base - shift);
    const int64x2_t dst = vld1q_s64(rej + base);
    const uint64x2_t reachable = vcgtq_s64(src, none);
    const int64x2_t cand = vaddq_s64(src, add_c);
    const uint64x2_t improved = vandq_u64(reachable, vcgtq_s64(cand, dst));
    const unsigned bits = mask_bits(improved);
    if (bits != 0) {
      vst1q_s64(rej + base, vbslq_s64(improved, cand, dst));
      const float64x2_t pay_src = vld1q_f64(payload + base - shift);
      const float64x2_t pay_dst = vld1q_f64(payload + base);
      vst1q_f64(payload + base, vbslq_f64(improved, vaddq_f64(pay_src, add_p), pay_dst));
      or_take_bits(take_row, base, bits);
    }
    w = base;
  }
  if (w > lo) {
    scalar_relax_desc_i64(rej, payload, take_row, shift, lo, w - 1, add_cycles, add_payload);
  }
}

std::uint64_t neon_select_mask_f64(const double* kept, std::size_t n, double total,
                                   double snapshot) {
  // Elementwise: each lane performs exactly the scalar subtract + compare.
  const float64x2_t total_v = vdupq_n_f64(total);
  const float64x2_t snap_v = vdupq_n_f64(snapshot);
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const float64x2_t penalty = vsubq_f64(total_v, vld1q_f64(kept + i));
    const unsigned bits = mask_bits(vcltq_f64(penalty, snap_v));
    mask |= static_cast<std::uint64_t>(bits) << i;
  }
  for (; i < n; ++i) {
    if (total - kept[i] < snapshot) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

}  // namespace

const KernelTable* neon_table() noexcept {
  static const KernelTable table{
      &neon_relax_desc_f64,      &neon_relax_desc_i64,       &scalar_argmax_f64,
      &scalar_argmin_strided_f64, &scalar_energy_hull_cycles, &neon_select_mask_f64,
      // The select-scan's decision walk is serial; at 2 lanes the branch-free
      // precompute does not pay, so keep the scalar body (trivially
      // bit-identical).
      &scalar_select_scan_f64,
  };
  return &table;
}

}  // namespace retask::simd

#else  // !aarch64 NEON

namespace retask::simd {
const KernelTable* neon_table() noexcept { return nullptr; }
}  // namespace retask::simd

#endif
