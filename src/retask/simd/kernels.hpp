// Vector kernels behind the knapsack table fills: the descending relaxation
// of the exact-DP value row (core/dp_table: the exact DP, the budgeted DP and
// the serve-mode delta solver) and of the FPTAS scaled rows (core/fptas).
//
// Each kernel is elementwise over contiguous arrays, so the AVX2 backend
// performs exactly the scalar reference's arithmetic per element — no
// reassociated sums, no FMA contraction (the build sets -ffp-contract=off) —
// which is what makes the bit-identity guarantee hold. The scalar bodies in
// `kernels.cpp` are the normative semantics; the AVX2 bodies beside them
// must match them bit for bit on every input the solvers can produce.
//
// Callers fetch the active table once per solve region via `kernels()` and
// invoke through the function pointers; the table never changes mid-call.
#ifndef RETASK_SIMD_KERNELS_HPP
#define RETASK_SIMD_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "retask/simd/backend.hpp"

namespace retask::simd {

/// One backend's kernel implementations. All pointers are non-null in every
/// table.
struct KernelTable {
  /// Descending-order knapsack relaxation over a double row:
  ///   for w = hi down to lo:
  ///     cand = row[w - shift] + add
  ///     if cand > row[w]: row[w] = cand; take_row[w/64] |= 1 << (w%64)
  /// Requires lo >= shift and hi >= lo - 1 (empty when hi < lo). Unreachable
  /// cells hold -inf; `-inf + add == -inf` keeps them inert.
  void (*relax_desc_f64)(double* row, std::uint64_t* take_row, std::size_t shift, std::size_t lo,
                         std::size_t hi, double add);

  /// Descending relaxation over an int64 row with a paired double payload
  /// (the FPTAS scaled round): entries are >= 0 or exactly -1 (unreachable).
  ///   for w = hi down to lo:
  ///     src = rej[w - shift]; if src < 0: continue
  ///     cand = src + add_cycles
  ///     if cand > rej[w]:
  ///       rej[w] = cand; payload[w] = payload[w - shift] + add_payload
  ///       take_row[w/64] |= 1 << (w%64)
  /// Requires lo >= shift.
  void (*relax_desc_i64)(std::int64_t* rej, double* payload, std::uint64_t* take_row,
                         std::size_t shift, std::size_t lo, std::size_t hi,
                         std::int64_t add_cycles, double add_payload);
};

/// Kernel table for the calling thread's active backend.
const KernelTable& kernels();

/// Kernel table for a specific backend (throws when unavailable). Used by
/// the equivalence tests to compare tables directly.
const KernelTable& kernels_for(Backend backend);

}  // namespace retask::simd

#endif  // RETASK_SIMD_KERNELS_HPP
