// Vector kernels behind the DP/FPTAS/greedy hot loops.
//
// Each kernel is elementwise over contiguous (or strided) arrays, so a wider
// backend performs exactly the scalar reference's arithmetic per element —
// no reassociated sums, no FMA contraction (the build sets -ffp-contract=off)
// — which is what makes the bit-identity guarantee hold. The scalar bodies in
// `kernels_scalar_impl.inl` are the normative semantics; every vector
// implementation must match them bit for bit on every input the solvers can
// produce.
//
// Callers fetch the active table once per solve region via `kernels()` and
// invoke through the function pointers; the table never changes mid-call.
#ifndef RETASK_SIMD_KERNELS_HPP
#define RETASK_SIMD_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "retask/simd/backend.hpp"

namespace retask::simd {

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Flattened description of a discrete (lower-hull) power model, the hot
/// case behind `EnergyCurve::energy`. Speeds/powers are the hull vertices in
/// ascending speed order; `hull_size >= 1` and `hull_speed[hull_size-1]`
/// equals `smax`. `e_zero` is the energy of an empty window (returned for
/// `cycles <= 0`).
struct HullEnergyParams {
  double window = 0.0;          ///< frame length (seconds)
  double work_per_cycle = 0.0;  ///< cycles -> normalized work factor
  double static_power = 0.0;    ///< idle power while awake (P_ind)
  double smax = 0.0;            ///< maximum speed
  double switch_energy = 0.0;   ///< dormant transition energy (E_sw)
  double switch_time = 0.0;     ///< dormant transition time (t_sw)
  double e_zero = 0.0;          ///< energy of a window with no work
  bool dormant_enable = false;  ///< sleep state usable at all
  const double* hull_speed = nullptr;
  const double* hull_power = nullptr;
  std::size_t hull_size = 0;
};

/// One backend's kernel implementations. All pointers are non-null in every
/// table (narrow backends fall back to the scalar body for kernels their ISA
/// cannot express, e.g. 64-bit integer compares on SSE2).
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

  /// First index i with values[i] > init and values[i] == max(values), i.e.
  /// the scalar left-to-right strict-improvement argmax. Returns kNpos when
  /// no element beats init.
  std::size_t (*argmax_f64)(const double* values, std::size_t n, double init);

  /// Strided strict argmin: first index i (element values[i*stride]) with
  /// values[i*stride] < init and == min over the scanned elements. Returns
  /// kNpos when no element beats init. `stride >= 1` in elements.
  std::size_t (*argmin_strided_f64)(const double* values, std::size_t n, std::size_t stride,
                                    double init);

  /// Fused cycles -> energy evaluation for a discrete (hull) power model:
  /// out[i] = energy of `cycles[i]` demand, bit-identical to
  /// `EnergyCurve::energy`. Requires 0 <= cycles[i] < 2^52.
  void (*energy_hull_cycles)(const HullEnergyParams& params, const std::int64_t* cycles,
                             double* out, std::size_t n);

  /// Select-sweep candidate mask over one <= 64-row window of DP kept-value
  /// cells: bit i is set iff total - kept[i] < snapshot (exact double
  /// compare). Unreachable cells hold kept[i] == -inf, so total - kept[i] is
  /// +inf and the bit stays clear — including against snapshot == +inf
  /// (inf < inf is false) — which folds the sweep's reachability skip and
  /// its bound prune into one predicate. Inputs are never NaN (kept values
  /// are penalty partial sums or -inf). Requires n <= 64.
  std::uint64_t (*select_mask_f64)(const double* kept, std::size_t n, double total,
                                   double snapshot);

  /// Select-sweep replay over one <= 64-row window: walk the set bits of
  /// `mask` in ascending order (row w0 + i has DP value kept[i] and energy
  /// energy_at[i]) replaying the serial sweep's decisions against the live
  /// best objective *best:
  ///   penalty = total - kept[i]    -> skip the row when penalty >= *best
  ///   energy  = energy_at[i]       -> return 1 when energy >= *best (E is
  ///                                   non-decreasing: the sweep is over)
  ///   energy + penalty             -> improve *best / *best_w when smaller
  /// Returns 1 when the energy early-exit fired (the caller must end the
  /// whole sweep), else 0. Mask bits at or above n are never set
  /// (select_mask_f64 guarantees it); n bounds the rows a vector body may
  /// pre-read. Vector backends precompute the penalties and objectives
  /// branch-free (IEEE adds are commutative bit for bit), but the decision
  /// walk itself replays in order — the early-exit's timing depends on the
  /// live best, so it cannot be reassociated. Requires n <= 64.
  std::uint32_t (*select_scan_f64)(const double* kept, const double* energy_at, std::size_t n,
                                   std::uint64_t mask, double total, std::size_t w0,
                                   double* best, std::size_t* best_w);
};

/// Scalar reference evaluation of one positive-work hull energy; the single
/// source of truth shared by `EnergyCurve::energy` (discrete models) and the
/// batch kernels. `work > 0`.
double energy_hull_one(const HullEnergyParams& params, double work);

/// Kernel table for the calling thread's active backend.
const KernelTable& kernels();

/// Kernel table for a specific backend (throws when unavailable). Used by
/// the equivalence tests to compare tables directly.
const KernelTable& kernels_for(Backend backend);

// Per-backend tables; null when the TU was compiled without that ISA.
const KernelTable* scalar_table() noexcept;
const KernelTable* sse2_table() noexcept;
const KernelTable* avx2_table() noexcept;
const KernelTable* neon_table() noexcept;

}  // namespace retask::simd

#endif  // RETASK_SIMD_KERNELS_HPP
