// Incremental exact solver for the admission-control serve mode.
//
// A long-lived scheduler answers a stream of admit / remove / reprice
// requests against one fixed platform (one DVS processor described by an
// EnergyCurve, cycles scaled by work_per_cycle). Cold-solving every request
// refills the whole exact-DP table — O(n * W) — even though consecutive
// requests differ by a single task. This solver retains the table between
// requests and exploits the prefix property documented in
// core/dp_table.hpp: rows w <= c of a fill at capacity >= c are
// bit-identical to a dedicated fill at c, and the value row after the
// first k tasks depends only on those k tasks in order.
//
//  * The table is filled at the platform's full cycle capacity, so growing
//    or shrinking the resident set never changes the fill capacity — the
//    read-out just sweeps rows [0, min(capacity, resident cycles)], which
//    the prefix property makes bit-identical to a cold solve's narrower
//    fill.
//  * admit appends one task: a single descending relaxation over the
//    retained value row — O(W) instead of O(n * W).
//  * remove / reprice invalidate the suffix from the changed index on. The
//    solver keeps a value-row checkpoint every `checkpoint_stride` tasks
//    and replays only the tasks past the nearest surviving checkpoint; a
//    change inside the first stride replays everything (the cold fall).
//  * probe_admit answers what admit would, without writing anything: the
//    records of the relaxed row are the retained staircase merged with its
//    shift by the task's (cycles, penalty) (the list-phase argument of
//    core/dp_table.hpp), so the probe merges the staircase the last select
//    took, walks it with the same select, decides the new task's choice bit
//    at the picked row by the dense rule and backtracks the rest through the
//    retained choice bits — one step per record instead of an O(W)
//    relaxation, and no undo. Its buffers are per thread, not per solver.
//
// Replay preserves the residual insertion order, so the per-task choice
// bits — and with them the reconstructed accept set — match what a cold
// ExactDpSolver::solve over the same task vector produces. Every returned
// solution is bit-identical (accept mask, energy, penalty) to that cold
// solve; retask_fuzz --delta-diff replays random request sequences against
// cold solves to enforce exactly this, and tests/test_delta_solver.cpp
// pins the edge cases.
//
// The request path allocates nothing in steady state: the table and its
// staircase live in a private DpScratch arena at their high-water mark, a
// probe's merged staircase and accept set in a per-thread scratch,
// checkpoint rows are recycled through a pool, and the solution's vectors
// are assign()ed in place.
//
// The retained table — the value row, the choice rows and every checkpoint
// row, pooled ones included — never exceeds kDpTableByteBudget: the
// constructor and every admit or admit_all whose value and choice rows would
// grow it past the budget throw Error before changing any state, so a serve
// session answers `err` and keeps serving. Checkpoints are optional: one
// that would cross the budget is not taken, nor is any later one (each
// counted as serve.fallback.checkpoint_budget), and a removal or reprice
// replays from the last one taken.
#ifndef RETASK_SERVE_DELTA_SOLVER_HPP
#define RETASK_SERVE_DELTA_SOLVER_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/core/problem.hpp"
#include "retask/core/solution.hpp"
#include "retask/power/energy_curve.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// Average execution speed of the minimum-energy plan for `load` accepted
/// cycles under `curve` — the speed assignment a serve-mode verdict
/// reports. 0 when the plan executes nothing.
double assigned_speed(const EnergyCurve& curve, double work_per_cycle, Cycles load);

/// Incremental single-processor exact solver over a mutable resident task
/// set. Not thread-safe: one solver serves one session.
class DeltaSolver {
 public:
  struct Config {
    /// Tasks between retained value-row checkpoints. Smaller strides bound
    /// the replay cost of a removal near the end of the set at the price of
    /// more retained rows; must be >= 1.
    int checkpoint_stride = 16;
  };

  DeltaSolver(EnergyCurve curve, double work_per_cycle) : DeltaSolver(std::move(curve), work_per_cycle, Config()) {}
  DeltaSolver(EnergyCurve curve, double work_per_cycle, Config config);

  /// Admits `task` (validated; its id must not be resident) and returns the
  /// new optimal solution over the resident set. The verdict for the task
  /// is solution().accepted.back() — an admitted task may be rejected, and
  /// admitting one task may evict a previously accepted one.
  const RejectionSolution& admit(const FrameTask& task);

  /// The objective solution().energy + solution().penalty would hold after
  /// admit(task), bit for bit, computed without admitting: no table row,
  /// checkpoint, solution or counter of this solver changes (its energy
  /// evaluations count in serve.select_energy_evals, as a select's do).
  /// Validates exactly as admit does, so it throws Error wherever admit would.
  double probe_admit(const FrameTask& task) const;

  /// Bulk admission: appends every task (validated; ids must be new and
  /// pairwise distinct) with ONE select at the end instead of one per task.
  /// The resulting state — table, checkpoints, solution — is bit-identical
  /// to admitting the tasks one at a time in order; only the intermediate
  /// solutions are skipped. Seeding path of the multiprocessor local search.
  const RejectionSolution& admit_all(const std::vector<FrameTask>& tasks);

  /// Removes the resident task with `id` (throws when unknown) and returns
  /// the new optimal solution.
  const RejectionSolution& remove(int id);

  /// Replaces the rejection penalty of resident task `id` and returns the
  /// new optimal solution.
  const RejectionSolution& reprice(int id, double penalty);

  /// The optimal solution over the current resident set, indexed like
  /// resident(). Valid until the next mutating call.
  const RejectionSolution& solution() const { return solution_; }

  const std::vector<FrameTask>& resident() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  bool contains(int id) const { return index_of(id) != kNone; }
  /// Index of `id` in resident(), or npos (size_t(-1)) when not resident.
  std::size_t index_of(int id) const;

  const EnergyCurve& curve() const { return curve_; }
  double work_per_cycle() const { return work_per_cycle_; }
  Cycles cycle_capacity() const { return cycle_capacity_; }
  /// Total accepted cycles of solution().
  Cycles accepted_load() const { return accepted_load_; }

  /// Requests served by appending / partial replay vs. by a full refill
  /// (a change inside the first checkpoint stride). Mirrored into the obs
  /// counters serve.delta_hits / serve.cold_falls.
  std::uint64_t delta_hits() const { return delta_hits_; }
  std::uint64_t cold_falls() const { return cold_falls_; }

  /// A standalone cold problem over the current resident set (differential
  /// checks and tests; allocates, unlike the request path). No memo is
  /// attached, so a cold solve of it shares no state with this solver.
  RejectionProblem make_problem() const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Choice rows allocated once `rows` are needed (geometric growth).
  std::size_t grown_rows(std::size_t rows) const;
  void ensure_rows(std::size_t rows);
  /// Value rows retained: the live row plus every checkpoint row, live and
  /// pooled.
  std::size_t value_rows() const;
  /// Clears and relaxes choice row `i` from the current value row, exactly
  /// as dp_fill's dense phase does at capacity cycle_capacity_.
  void relax_row(std::size_t i);
  /// Restores the nearest checkpoint at or before prefix length
  /// `invalidated` and replays the remaining tasks in residual order.
  void replay_from(std::size_t invalidated);
  /// Takes the checkpoint of prefix length `prefix` when one is due, every
  /// earlier one was taken and the row fits the byte budget.
  void push_checkpoint_if_due(std::size_t prefix);
  void drop_checkpoints_to(std::size_t count);
  /// admit's checks: a valid task whose id is not resident (else Error with
  /// `resident_message`), and one more task's rows within the byte budget.
  void require_admissible(const FrameTask& task, std::string_view resident_message) const;
  /// Reads the optimal solution off the retained table into solution_.
  void select();
  /// energy(work_per_cycle * cycles) — the same computation
  /// RejectionProblem::energy_of_cycles performs.
  double energy_of(Cycles cycles) const;
  /// The residents' penalties summed in resident order, as a cold solve's
  /// FrameTaskSet sums them.
  double resident_penalty() const;

  EnergyCurve curve_;
  double work_per_cycle_ = 1.0;
  Config config_;
  Cycles cycle_capacity_ = 0;
  std::size_t width_ = 1;  ///< cycle_capacity_ + 1 value cells

  std::vector<FrameTask> tasks_;
  Cycles total_cycles_ = 0;

  // Retained DP state in one private arena: value row + choice rows (row
  // capacity grows geometrically; rows_ tracks the allocated count) and the
  // staircase select() takes of the value row.
  DpScratch table_;
  std::size_t rows_ = 0;
  std::size_t reachable_ = 0;

  // Value-row checkpoints: cp_values_[c] is the row after the first
  // (c + 1) * checkpoint_stride tasks, cp_reach_[c] the reachability bound
  // there. Retired rows are recycled through cp_pool_.
  std::vector<std::vector<double>> cp_values_;
  std::vector<std::size_t> cp_reach_;
  std::vector<std::vector<double>> cp_pool_;

  RejectionSolution solution_;
  Cycles accepted_load_ = 0;
  std::uint64_t delta_hits_ = 0;
  std::uint64_t cold_falls_ = 0;
};

}  // namespace retask

#endif  // RETASK_SERVE_DELTA_SOLVER_HPP
