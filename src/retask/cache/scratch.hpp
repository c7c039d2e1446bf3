// Thread-local scratch arenas for the knapsack-style DP solvers.
//
// A sweep grid runs thousands of solves per thread; before this module each
// solve allocated its value row and bit-packed choice table from scratch.
// The arenas keep one buffer set per (thread, solver family) at its
// high-water mark — BitMatrix::reset already reuses capacity, and the value
// rows are assign()ed, so repeated solves at similar sizes stop touching
// the allocator entirely. Each accessor returns storage private to the
// calling thread, so the solvers stay safe to run concurrently; solvers
// must finish with the arena before returning (none of them calls another
// arena user of the same family while mid-solve).
#ifndef RETASK_CACHE_SCRATCH_HPP
#define RETASK_CACHE_SCRATCH_HPP

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "retask/common/bit_matrix.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// Buffers of one exact-DP table (core/dp_table.hpp): the lane-major value
/// rows plus the choice table, and the chunked-select batch buffers (the
/// predicted rows of one 64-row chunk and their batched energies).
struct DpScratch {
  std::size_t stride = 0;     ///< value cells per lane (dp_fill)
  std::vector<double> value;  ///< lane k's row at value[k * stride]
  BitMatrix take;
  std::vector<Cycles> select_cycles;
  std::vector<double> select_energy;
};

/// A filled exact-DP table captured for handoff between solvers — the
/// lockstep lanes (batch/lockstep.hpp) export their per-lane tables in this
/// form and DeltaSolver::adopt_table (serve/delta_solver.hpp) seeds from it
/// instead of replaying the fill. The capture is self-describing: `value`
/// and `take` are the fill at some capacity `value.size() - 1` over the
/// producing task vector in order, `reachable` is the fill's reachability
/// bound, and `cp_values[c]` / `cp_reach[c]` snapshot the value row after
/// the first (c + 1) * checkpoint_stride tasks — dense (one row per stride
/// boundary), exactly the rows DeltaSolver's own checkpointing would have
/// retained. An empty `value` means "no capture" (the producer gated it
/// off); consumers must fall back to a cold seed.
struct DpTableExport {
  std::vector<double> value;  ///< kept[w] over w in [0, fill capacity]
  BitMatrix take;             ///< per-task choice bits, one row per task
  std::size_t reachable = 0;  ///< largest reachable w after the last task
  int checkpoint_stride = 0;  ///< tasks between cp_values rows
  std::vector<std::vector<double>> cp_values;  ///< value row per stride boundary
  std::vector<std::size_t> cp_reach;           ///< reachability per boundary
};

/// Buffers reused across the guess-refinement rounds of one FPTAS solve.
struct FptasScratch {
  std::vector<std::size_t> movable;  ///< task indices with penalty <= guess
  std::vector<std::size_t> quant;    ///< floor(penalty / delta) per movable task
  std::vector<Cycles> rej;
  std::vector<double> true_pen;
  BitMatrix take;
  // Candidate rows surviving the sweep prefilter, batched through the fused
  // cycles->energy kernel (structure-of-arrays: same index, three facets).
  std::vector<std::size_t> cand_row;
  std::vector<Cycles> cand_cycles;
  std::vector<double> cand_energy;
  /// Fallback energy memo for problems without an attached EnergyMemo;
  /// cleared at the start of every solve (entries are only valid within one
  /// problem's curve).
  std::unordered_map<Cycles, double> energy_memo;
};

/// Buffers of one marginal-greedy solve: per-task probe loads and flip
/// deltas (structure-of-arrays over the task index so the argmin kernel
/// scans one contiguous double row per round).
struct GreedyScratch {
  std::vector<double> delta;        ///< objective change of flipping task i (+inf: infeasible)
  std::vector<Cycles> eval_cycles;  ///< compacted batch input (feasible flips)
  std::vector<double> eval_energy;  ///< batch output aligned with eval_cycles
};

/// The calling thread's arena for the exact DP (core/exact_dp.cpp).
DpScratch& exact_dp_scratch();

/// The calling thread's arena for the budgeted DP (core/budgeted.cpp).
DpScratch& budgeted_scratch();

/// The calling thread's arena for the FPTAS rounds (core/fptas.cpp).
FptasScratch& fptas_scratch();

/// The calling thread's arena for the marginal greedy (core/greedy.cpp).
GreedyScratch& greedy_scratch();

}  // namespace retask

#endif  // RETASK_CACHE_SCRATCH_HPP
