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
//  * the fill (dp_fill): a list phase that merges the staircase task by task
//    and, when the list grows too long, a dense phase over the per-task
//    relaxation with reachability pruning (dp_relax); each phase checks its
//    buffers against kDpTableByteBudget before allocating them;
//  * the staircase of a filled value row (dp_staircase), the staircase one
//    more task's relaxation would leave (dp_merge_staircase, which the delta
//    solver's read-only probe walks), the select that walks a staircase
//    (dp_select) and the budgeted DP's read-off (dp_best_kept_row);
//  * the accept-set backtrack (dp_backtrack).
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
// List phase (the same authors' merge). Write V_k for the value row after
// the first k tasks as the dense relaxation leaves it: V_k[w] =
// max(V_{k-1}[w], V_{k-1}[w - c] + p) for task k - 1 = (c, p), where the
// candidate takes the row only when strictly larger (the tie rule) and then
// sets the choice bit (k - 1, w). A record of V_k is either a record of
// V_{k-1} that kept its row or a record of V_{k-1} shifted by (c, p) that
// took it: a lighter row that ties or beats the source ties or beats the
// candidate after the same rounded add. So the records of V_k, their values
// and their choice bits depend only on the records of V_{k-1}. dp_fill
// merges the record list L with L shifted by (c, p) in ascending w, drops
// shifted entries past the cap, lets a shifted entry take a row L also holds
// only when strictly larger, and keeps an entry only when it beats every
// lighter one kept. Each entry carries its accept set as a 64-bit mask: its
// source's mask, plus the task's bit when shifted.
//
// The backtrack from a record visits only records: a set bit (k - 1, w)
// leads to w - c, a record of V_{k-1} by the argument above, and a clear one
// to w itself, whose V_{k-1}[w] = V_k[w] beats every lighter row of V_{k-1}
// as well. By induction the mask of an entry is the accept set the dense
// backtrack rebuilds from its row, so a fill the list phase finishes needs
// no choice bits.
//
// Hand-off. A merge costs one step per entry, a dense relaxation one step
// per row of [c, reach + c]: the list wins on wide, sparse rows and loses
// once it covers much of the row. After a merge that leaves more than
// (reach + 1) / 16 entries (reach: the dense fill's bound, min(cap, the
// merged tasks' cycles)), or once 64 tasks fill the masks, dp_fill relaxes
// the remaining tasks densely: it scatters the records into a value row of
// -inf and relaxes each remaining task with a choice row of its own. The
// scattered row is at most V_h everywhere and equal at its records, so
// every later row has the same records, values and choice bits at records
// as a dense fill's. The backtrack walks the dense bits down to the hand-off
// level and adds the mask of the list entry at the row it reaches, a record
// there. The rule reads only values the fill already has and changes no
// record, row or bit: accept sets, values and staircases are the same bits
// on either path, and only the work and the exact_dp.* counters differ.
//
// dp_select returns the first row of least objective among the n records
// w <= cap in two passes over blocks of about sqrt(n) records. Its pruning
// is exact for three reasons. E is non-decreasing along the staircase, and
// the penalty total_penalty - kept[j] is non-increasing, because kept rises
// and rounding is monotone. Every penalty is >= 0: a kept value is a
// left-to-right sum over a subset of the same non-negative penalties, in the
// same order as the total, and adding a non-negative term never lowers a
// rounded sum, so no kept value exceeds the total. So E(w) alone bounds the
// objective of row w and of every later record, and E(first record) +
// penalty(last record) bounds every objective in a block.
//
// A record beats the best when its objective is smaller, or equal at a lower
// row, so ties go to the lower row whichever pass meets them. Pass 1
// evaluates E at each block's first record, keeps the first least objective
// as the incumbent, and stops at the first energy that cannot beat it. Pass
// 2 walks, in ascending order, only the blocks whose bound can still beat the
// best, and inside a block keeps the serial sweep's rules with the block's
// first energy as the starting lower bound: skip a record whose penalty plus
// the last evaluated energy cannot beat the best, stop at the first energy
// that cannot, and take a record that beats it. No record or block either
// pass passes over could beat the best, so the walk selects the same row,
// with the same objective bits, as the serial sweep over every row [0, cap].
#ifndef RETASK_CORE_DP_TABLE_HPP
#define RETASK_CORE_DP_TABLE_HPP

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/common/error.hpp"
#include "retask/core/problem.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// Largest table a DP solver may hold: one dp_fill's record lists, or its
/// value row and choice bits, a DeltaSolver's retained rows, or one FPTAS
/// round's two value rows and choice bits. A fill, request or round that
/// would need more throws Error naming the size before it allocates
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

/// Why a fill left its list phase for the dense relaxation.
enum class DpHandoff : std::uint8_t {
  kNone,              ///< the list phase merged every task
  kListOutgrewReach,  ///< a merge left more than (reach + 1) / 16 entries
  kMaskWidth,         ///< 64 tasks filled the accept masks
};

/// Work accounting of one fill (the exact_dp.* counters). Each merge adds
/// the entries it keeps to list_entries. Each task of the dense phase either
/// relaxes rows [c, top] (touched) and skips the rest of the cap + 1 rows,
/// or is pruned (c > cap) and skips them all. A task with c > cap counts as
/// pruned in either phase.
struct DpFillCounts {
  std::uint64_t cells_touched = 0;
  std::uint64_t cells_skipped = 0;
  std::uint64_t tasks_pruned = 0;
  std::uint64_t list_entries = 0;
  DpHandoff handoff = DpHandoff::kNone;
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
/// (the empty accept set, kept 0) always opens it. The scan has no
/// data-dependent branch, and `out` grows a chunk of rows at a time, so it
/// holds the record count plus one chunk; it keeps its capacity across
/// calls.
void dp_staircase(const double* kept, std::size_t cap, DpStaircase& out);

/// Writes to `out` the staircase of the row that relaxing `task` (c <= cap)
/// into a value row filled at capacity `cap` leaves, read off that row's
/// staircase `in` alone: the list phase's merge (the header comment) without
/// accept masks, one step per record. It equals, bit for bit, dp_staircase of
/// the relaxed row over its reachable rows. `out` keeps its capacity across
/// calls and must not alias `in`.
void dp_merge_staircase(const DpStaircase& in, std::size_t cap, const FrameTask& task,
                        DpStaircase& out);

/// Fills the knapsack table of the `n` tasks at `tasks` at capacity `cap`
/// into `table` and leaves the staircase over [0, cap] in table.stairs. The
/// list phase merges the leading tasks (table.list_levels of them) and
/// leaves its last record list, masks included, in table.list. After a
/// hand-off the remaining tasks fill the value row and one row of choice bits
/// each, cap + 1 cells rounded up to 64. Before growing, the list buffers are
/// checked against kDpTableByteBudget and the dense table goes through
/// require_dp_table_budget; either throws Error naming the bytes.
DpFillCounts dp_fill(DpScratch& table, const FrameTask* tasks, std::size_t n, std::size_t cap);

/// The row a select picked and the energy evaluations it spent.
struct DpPick {
  std::size_t best_w = 0;
  double best_objective = std::numeric_limits<double>::infinity();
  std::uint64_t energy_evals = 0;
};

/// Most blocks dp_select splits a staircase into: blocks hold about the
/// square root of the record count up to 4 096 records, and more beyond.
inline constexpr std::size_t kDpSelectMaxBlocks = 64;

/// Records per dp_select block for a walk over `records` records:
/// ceil(sqrt(records)), raised so that at most kDpSelectMaxBlocks blocks
/// cover them.
inline std::size_t dp_select_block_size(std::size_t records) {
  auto size = static_cast<std::size_t>(std::sqrt(static_cast<double>(records)));
  while (size * size < records) ++size;  // the exact ceiling, whatever sqrt rounded to
  return std::max(size, (records + kDpSelectMaxBlocks - 1) / kDpSelectMaxBlocks);
}

/// Selects, among the records of `stairs` with w <= cap, the row minimizing
/// E(w) + (total_penalty - kept[w]) by the two-pass walk in the header
/// comment; `energy(w)` must return E(w) as a pure function of w,
/// non-decreasing in w, and total_penalty must be the in-order sum the kept
/// values are sub-sums of. The result is bit-identical to the serial sweep
/// over every row [0, cap]: the first row of least objective.
template <typename EnergyFn>
DpPick dp_select(const DpStaircase& stairs, std::size_t cap, double total_penalty,
                 EnergyFn&& energy) {
  const std::size_t* rows = stairs.rows.data();
  const double* kept = stairs.kept.data();
  const auto n = static_cast<std::size_t>(
      std::upper_bound(rows, rows + stairs.rows.size(), cap) - rows);
  RETASK_ASSERT(n > 0);
  DpPick pick;
  // Whether an objective lower bound `bound` for records from row w on could
  // still displace the best: by being smaller, or equal at a lower row.
  const auto may_beat = [&pick](double bound, std::size_t w) {
    return bound < pick.best_objective || (bound == pick.best_objective && w < pick.best_w);
  };
  const auto take = [&pick](double objective, std::size_t w) {
    pick.best_objective = objective;
    pick.best_w = w;
  };
  const auto evaluate = [&](std::size_t j) {
    ++pick.energy_evals;
    return energy(static_cast<Cycles>(rows[j]));
  };

  // Pass 1: E at the first record of each block. An energy that cannot beat
  // the best alone ends the pass, because every later record's objective is
  // at least that energy; the blocks before it are the ones pass 2 may walk.
  const std::size_t size = dp_select_block_size(n);
  std::array<double, kDpSelectMaxBlocks> first_energy{};
  std::size_t blocks = 0;
  for (; blocks * size < n; ++blocks) {
    const std::size_t j = blocks * size;
    const double e = evaluate(j);
    if (!may_beat(e, rows[j])) break;
    first_energy[blocks] = e;
    const double objective = e + (total_penalty - kept[j]);
    if (may_beat(objective, rows[j])) take(objective, rows[j]);
  }

  // Pass 2: the blocks whose bound E(first) + penalty(last) may still beat
  // the best, by the serial rules, starting from E(first) as the energy
  // lower bound. A block's first record already lost to the best in pass 1,
  // so each walk starts after it.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * size;
    const std::size_t end = std::min(n, first + size);
    double last_energy = first_energy[b];
    if (!may_beat(last_energy, rows[first])) break;
    if (!may_beat(last_energy + (total_penalty - kept[end - 1]), rows[first])) continue;
    for (std::size_t j = first + 1; j < end; ++j) {
      const double penalty = total_penalty - kept[j];
      if (!may_beat(last_energy + penalty, rows[j])) continue;
      const double e = evaluate(j);
      if (!may_beat(e, rows[j])) return pick;  // no heavier row can beat the best
      last_energy = e;
      const double objective = e + penalty;
      if (may_beat(objective, rows[j])) take(objective, rows[j]);
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

/// Reconstructs the accept set from record row `w` of the fill in `table`:
/// for tasks n-1 down to table.list_levels, a set choice bit accepts the task
/// and steps w back by its cycles; the mask of the list entry at the row
/// reached then accepts the list phase's tasks. `accepted` is assigned n
/// entries in place. A table without a list phase (list_levels 0, the delta
/// solver's) must end its walk at row 0.
void dp_backtrack(const DpScratch& table, const FrameTask* tasks, std::size_t n, std::size_t w,
                  std::vector<bool>& accepted);

}  // namespace retask

#endif  // RETASK_CORE_DP_TABLE_HPP
