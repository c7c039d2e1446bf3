// Thread-local scratch arenas for the knapsack-style DP solvers.
//
// A sweep grid runs thousands of solves per thread; before this module each
// solve allocated its value row and bit-packed choice table from scratch.
// The arenas keep one buffer set per thread at its high-water mark, one for
// the exact-DP tables (the exact and the budgeted DP) and one for the FPTAS
// rounds. BitMatrix::reset already reuses capacity, and the value rows,
// staircases and record lists are resized in place, so repeated solves at
// similar sizes stop touching the allocator entirely. Each accessor returns storage private to
// the calling thread, so the solvers stay safe to run concurrently; solvers
// must finish with the arena before returning (none of them calls another
// user of the same arena while mid-solve).
#ifndef RETASK_CACHE_SCRATCH_HPP
#define RETASK_CACHE_SCRATCH_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "retask/common/bit_matrix.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// The staircase of one filled value row (core/dp_table.hpp): the rows whose
/// kept penalty beats every lighter row's, in ascending order.
struct DpStaircase {
  std::vector<std::size_t> rows;  ///< ascending row indices w
  std::vector<double> kept;       ///< kept[w] of each row, strictly ascending
};

/// A record list of dp_fill's list phase: the first `size` entries of the
/// arrays, ascending in row, each with its accept set. The arrays only grow,
/// so a merge writes its entries in place.
struct DpRecordList {
  std::vector<std::size_t> rows;
  std::vector<double> kept;
  std::vector<std::uint64_t> masks;  ///< bit i: task i accepted
  std::size_t size = 0;
};

/// Buffers of one exact-DP fill (core/dp_table.hpp): the record lists of the
/// list phase and, after a hand-off, the dense value row and the choice bits
/// of the tasks it relaxed.
struct DpScratch {
  std::vector<double> value;  ///< the dense phase's value row
  BitMatrix take;             ///< choice bit (i - list_levels, w): task i improved row w
  DpStaircase stairs;         ///< the staircase of the filled row
  DpRecordList list;          ///< the list the list phase ended with
  DpRecordList spare;         ///< the merges' second buffer
  std::size_t list_levels = 0;  ///< leading tasks the list phase merged
};

/// Buffers reused across the guess-refinement rounds of one FPTAS solve.
struct FptasScratch {
  std::vector<std::size_t> movable;  ///< task indices with penalty <= guess
  std::vector<std::size_t> quant;    ///< floor(penalty / delta) per movable task
  std::vector<Cycles> rej;
  std::vector<double> true_pen;
  BitMatrix take;
};

/// The calling thread's arena for the exact DP (core/exact_dp.cpp) and the
/// budgeted DP (core/budgeted.cpp). Each fills and reads its table within
/// one call and calls no other DP solver meanwhile, so the two share it.
DpScratch& dp_scratch();

/// The calling thread's arena for the FPTAS rounds (core/fptas.cpp).
FptasScratch& fptas_scratch();

}  // namespace retask

#endif  // RETASK_CACHE_SCRATCH_HPP
