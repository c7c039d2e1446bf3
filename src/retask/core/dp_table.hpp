// The knapsack-over-cycles table behind every exact-DP shape.
//
// The exact DP (core/exact_dp.hpp) keeps, for every accepted cycle total w
// up to a fill capacity, the largest total penalty its accepted tasks can
// carry at exactly w (-inf when no subset sums to w). Every solver that
// builds or reads such a table — the solo solve and its warm sweep, the
// budgeted DP, the lockstep lanes and fused sweeps (batch/lockstep.hpp) and
// the serve-mode delta solver (serve/delta_solver.hpp) — shares the three
// pieces in this header:
//
//  * the per-task relaxation with reachability pruning (dp_relax), and the
//    lane-major fill built on it (dp_fill), which sizes the table against
//    kDpTableByteBudget before allocating anything;
//  * the chunked predict/batch/replay select over L lane rows (dp_select),
//    L = 1 for solo and serve solves;
//  * the accept-set backtrack through the choice bits (dp_backtrack).
//
// Prefix property: rows w <= c of a fill at any capacity >= c are
// bit-identical to a dedicated fill at c, because tasks with cycles > c
// only write rows >= their own cycle count and rows <= c are reachable only
// through tasks both fills process identically. Warm sweeps, fused sweeps
// and the delta solver all read narrower answers off one wider fill.
//
// The select reads a solution off the table by sweeping rows for the best
// objective E(w) + (total_penalty - kept[w]); the energy evaluation
// dominates that sweep, so it runs in 64-row chunks:
//
//   1. predict — per chunk and lane, keep the rows that survive the penalty
//      prune against the lane's best objective at chunk entry (one
//      select_mask_f64 word). The live best only decreases, so this keeps a
//      superset of the rows the serial sweep would evaluate; E is a pure
//      function of the row, so extra evaluations cannot change the outcome.
//   2. batch — one energy callback per chunk over the union of every lane's
//      predicted rows. The callback must be bit-identical to one-at-a-time
//      evaluation (RejectionProblem::energy_of_cycles_batch is), and lanes
//      share it, so they must share one energy curve.
//   3. replay — per lane, walk the predicted rows with the serial sweep's
//      live prunes (select_scan_f64): the penalty prune against the current
//      best and the energy early exit (E non-decreasing in the load) that
//      ends the lane's sweep. Same decisions in the same order as the
//      serial sweep, so the selected row is bit-identical.
#ifndef RETASK_CORE_DP_TABLE_HPP
#define RETASK_CORE_DP_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/common/bit_matrix.hpp"
#include "retask/core/problem.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// Largest table one dp_fill may allocate: value rows plus choice bits over
/// every lane. A fill that would need more throws Error naming the size
/// before it allocates anything. The widest tables the benches build stay
/// under 1 MiB, so the ceiling only stops capacities the exact DP could not
/// fill in memory anyway.
inline constexpr std::size_t kDpTableByteBudget = std::size_t{1} << 30;

/// The exact DP's fill capacity for `problem`: min(cycle capacity, total
/// cycles). Throws Error for multiprocessor problems.
Cycles dp_fill_capacity(const RejectionProblem& problem);

/// One lane of a fill: the fill's `n` tasks starting at `tasks`, filled at
/// capacity `cap`.
struct DpFillLane {
  const FrameTask* tasks = nullptr;
  std::size_t cap = 0;
};

/// Cell accounting of one fill, summed over its lanes (the exact_dp.*
/// counters): each task either relaxes rows [c, top] (touched) and skips
/// the rest of its lane's cap + 1 rows, or is pruned (c > cap) and skips
/// them all.
struct DpFillCounts {
  std::uint64_t cells_touched = 0;
  std::uint64_t cells_skipped = 0;
  std::uint64_t tasks_pruned = 0;
};

/// Relaxes `task` (c cycles, penalty p) into a value row filled at
/// capacity `cap` whose reachable rows are [0, reach]: descending over
/// w in [c, min(cap, reach + c)], row w takes row[w - c] + p when that is
/// larger and sets bit w of `take_row`; `reach` grows to the new top. Rows
/// above the top cannot produce candidates, so they are never visited. A
/// task with c > cap can never be accepted: it is skipped and 0 returned;
/// otherwise the number of relaxed rows (>= 1) is returned.
std::size_t dp_relax(double* value, std::uint64_t* take_row, std::size_t cap,
                     std::size_t& reach, const FrameTask& task);

/// Fills one knapsack table per lane into `table`, lane-major: lane k's
/// value row starts at table.value[k * table.stride] and its choice bit for
/// (task i, row w) is take bit (i, k * stride + w). The stride is the widest
/// lane's cap + 1 rounded up to 64, so every lane owns whole choice words.
/// Cells above a lane's own cap are never written or read, so lane k's span
/// is its solo table at capacity lanes[k].cap.
///
/// The table's size (value rows plus choice bits) is checked against
/// kDpTableByteBudget first; Error names the size when it overflows size_t
/// or exceeds the budget, before anything is allocated.
///
/// When `exports` is non-null (one slot per lane), lane k's finished table
/// — value row, choice bits and dense value-row checkpoints every
/// max(1, ceil(n / 4)) tasks — is captured into (*exports)[k] unless the
/// capture would exceed 16 MiB; that state is what DeltaSolver::admit_all
/// over the lane's tasks retains, i.e. DeltaSolver::adopt_table's contract.
/// Slots over the budget stay untouched; the gate is a pure function of the
/// lane geometry, so it can never change a solution bit.
DpFillCounts dp_fill(DpScratch& table, std::size_t n, const DpFillLane* lanes,
                     std::size_t count, std::vector<DpTableExport>* exports = nullptr);

/// One lane of a select: rows [0, cap] of `kept` are swept for the row
/// minimizing E(w) + (total_penalty - kept[w]); the winner lands in
/// best_w / best_objective. `mask` and `done` are the select's per-chunk
/// state.
struct DpSelectLane {
  const double* kept = nullptr;
  std::size_t cap = 0;
  double total_penalty = 0.0;
  double best_objective = std::numeric_limits<double>::infinity();
  std::size_t best_w = 0;
  std::uint64_t mask = 0;
  bool done = false;
};

/// Work of one select.
struct DpSelectStats {
  std::uint64_t energy_evals = 0;  ///< rows sent through the energy callback
  std::uint64_t scan_words = 0;    ///< (lane, chunk) replays
};

/// out[i] = E(cycles[i]) for i < n, bit-identical to one-at-a-time
/// evaluation.
using DpEnergyBatch = std::function<void(const Cycles* cycles, double* out, std::size_t n)>;

/// Runs the chunked select (see the header comment) over `count` lanes that
/// share one energy curve. `batch_cycles` / `batch_energy` are caller-owned
/// buffers reused across calls. Every lane's result is bit-identical to the
/// serial row-by-row sweep with the penalty prune and the energy early exit.
DpSelectStats dp_select(DpSelectLane* lanes, std::size_t count, const DpEnergyBatch& energy_batch,
                        std::vector<Cycles>& batch_cycles, std::vector<double>& batch_energy);

/// Reconstructs the accept set of the lane whose choice bits start at bit
/// `offset` of every take row, from row `w`: for tasks n-1 down to 0, a set
/// bit (i, offset + w) accepts task i and steps w back by its cycles.
/// `accepted` is assigned n entries in place; the walk must end at row 0.
void dp_backtrack(const BitMatrix& take, std::size_t offset, const FrameTask* tasks,
                  std::size_t n, std::size_t w, std::vector<bool>& accepted);

}  // namespace retask

#endif  // RETASK_CORE_DP_TABLE_HPP
