// The knapsack-over-cycles table behind every exact-DP shape.
//
// The exact DP (core/exact_dp.hpp) keeps, for every accepted cycle total w
// up to a fill capacity, the largest total penalty its accepted tasks can
// carry at exactly w (kept[w], -inf when no subset sums to w), and answers
// with the row minimizing E(w) + (total_penalty - kept[w]). Every solver that
// builds or reads such a table — the solo solve and its warm sweep, the
// budgeted DP and the serve-mode delta solver (serve/delta_solver.hpp) —
// shares the pieces in this header:
//
//  * the per-task relaxation with reachability pruning (dp_relax), and the
//    fill built on it (dp_fill), which sizes the table against
//    kDpTableByteBudget before allocating anything;
//  * the staircase of a filled value row (dp_staircase), the select that
//    walks it (dp_select) and the budgeted DP's read-off (dp_best_kept_row);
//  * the accept-set backtrack through the choice bits (dp_backtrack).
//
// Prefix property: rows w <= c of a fill at any capacity >= c are
// bit-identical to a dedicated fill at c, because tasks with cycles > c
// only write rows >= their own cycle count and rows <= c are reachable only
// through tasks both fills process identically. Warm sweeps and the delta
// solver read narrower answers off one wider fill.
//
// Staircase (the dominance rule of Nemhauser and Ullmann, 1969): E is
// non-decreasing in w, so a row w with kept[w] <= kept[w'] for some lighter
// row w' < w can never win — both of its terms are at least row w''s, and
// rounding is monotone, so that holds for the computed values too. Only the
// rows whose kept penalty beats every lighter row's can be selected: the
// strict prefix-maximum records of kept, i.e. the Pareto frontier of
// (cycles, kept penalty). The staircase of a capacity-c select is the
// records with w <= c, so one staircase taken after a fill answers every
// narrower select of a sweep.
//
// dp_select walks the staircase in ascending w with the serial sweep's rules,
// evaluating energies one record at a time: take strict improvements only,
// stop at the first record whose energy alone reaches the best objective,
// and skip a record whose penalty plus the last evaluated energy reaches it.
// That prune is the serial sweep's penalty prune tightened by a lower bound:
// E is non-decreasing, so every later record's energy is at least the last
// one evaluated, and rounding is monotone, so such a record's objective
// reaches the best too. No row the walk passes over could improve the best,
// and a row that would have ended the serial sweep early leaves every later
// row with an energy that already reaches the best, so the walk selects the
// same row, with the same objective bits, as the serial sweep over every row
// [0, cap]: the first row of least objective.
#ifndef RETASK_CORE_DP_TABLE_HPP
#define RETASK_CORE_DP_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/common/bit_matrix.hpp"
#include "retask/common/error.hpp"
#include "retask/core/problem.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// Largest table a DP solver may hold: one dp_fill's value row and choice
/// bits, a DeltaSolver's retained rows, or one FPTAS round's two value rows
/// and choice bits. A fill, request or round that would need more throws
/// Error naming the size (require_dp_table_budget) before it allocates
/// anything. The widest tables the benches build stay under 1 MiB,
/// so the ceiling only stops capacities the exact DP could not fill in
/// memory anyway.
inline constexpr std::size_t kDpTableByteBudget = std::size_t{1} << 30;

/// Bytes of `value_rows` value rows of `width` cells plus `take_rows` choice
/// rows of `width` bits each, rounded up to whole 64-bit words; nullopt when
/// the count overflows size_t.
std::optional<std::size_t> dp_table_bytes(std::size_t width, std::size_t value_rows,
                                          std::size_t take_rows);

/// Throws Error when `value_rows` value rows plus `take_rows` choice rows of
/// `width` cells would overflow size_t bytes or exceed kDpTableByteBudget.
/// The message names the shape and, when it fits size_t, the byte count
/// ("DP table of ... needs N bytes"), prefixed by `owner` when non-empty.
void require_dp_table_budget(std::string_view owner, std::size_t width, std::size_t value_rows,
                             std::size_t take_rows);

/// The exact DP's fill capacity for `problem`: min(cycle capacity, total
/// cycles). Throws Error for multiprocessor problems.
Cycles dp_fill_capacity(const RejectionProblem& problem);

/// Cell accounting of one fill (the exact_dp.* counters): each task either
/// relaxes rows [c, top] (touched) and skips the rest of the cap + 1 rows,
/// or is pruned (c > cap) and skips them all.
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

/// Takes the staircase of rows [0, cap] of `kept` into `out`: every row
/// whose value beats every lighter row's, ascending. In a filled row, row 0
/// (the empty accept set, kept 0) always opens it. `out` keeps its capacity
/// across calls.
void dp_staircase(const double* kept, std::size_t cap, DpStaircase& out);

/// Fills the knapsack table of the `n` tasks at `tasks` at capacity `cap`
/// into `table`: the value row and one row of choice bits per task, each
/// cap + 1 cells rounded up to 64, then the staircase over [0, cap] into
/// table.stairs. The table's size goes through require_dp_table_budget
/// before anything is allocated.
DpFillCounts dp_fill(DpScratch& table, const FrameTask* tasks, std::size_t n, std::size_t cap);

/// The row a select picked and the energy evaluations it spent.
struct DpPick {
  std::size_t best_w = 0;
  double best_objective = std::numeric_limits<double>::infinity();
  std::uint64_t energy_evals = 0;
};

/// Selects, among the records of `stairs` with w <= cap, the row minimizing
/// E(w) + (total_penalty - kept[w]) by the serial walk in the header comment;
/// `energy(w)` must return E(w) as a pure function of w, non-decreasing in w.
/// The result is bit-identical to the serial sweep over every row [0, cap].
template <typename EnergyFn>
DpPick dp_select(const DpStaircase& stairs, std::size_t cap, double total_penalty,
                 EnergyFn&& energy) {
  DpPick pick;
  double last_energy = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < stairs.rows.size() && stairs.rows[j] <= cap; ++j) {
    const double penalty = total_penalty - stairs.kept[j];
    if (last_energy + penalty >= pick.best_objective) continue;
    const double e = energy(static_cast<Cycles>(stairs.rows[j]));
    ++pick.energy_evals;
    if (e >= pick.best_objective) break;  // no heavier row can beat the best
    last_energy = e;
    const double objective = e + penalty;
    if (objective < pick.best_objective) {
      pick.best_objective = objective;
      pick.best_w = stairs.rows[j];
    }
  }
  RETASK_ASSERT(pick.best_objective < std::numeric_limits<double>::infinity());
  return pick;
}

/// The first row attaining the largest kept value over [0, cap], or row 0 when
/// no row beats the empty accept set: the last record of `stairs` at or below
/// `cap` (the budgeted DP's answer). `stairs` must hold a filled row's
/// staircase, which row 0 opens.
std::size_t dp_best_kept_row(const DpStaircase& stairs, std::size_t cap);

/// Reconstructs the accept set from row `w`: for tasks n-1 down to 0, a set
/// choice bit (i, w) accepts task i and steps w back by its cycles.
/// `accepted` is assigned n entries in place; the walk must end at row 0.
void dp_backtrack(const BitMatrix& take, const FrameTask* tasks, std::size_t n, std::size_t w,
                  std::vector<bool>& accepted);

}  // namespace retask

#endif  // RETASK_CORE_DP_TABLE_HPP
