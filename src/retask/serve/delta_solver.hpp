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
//
// Replay preserves the residual insertion order, so the per-task choice
// bits — and with them the reconstructed accept set — match what a cold
// ExactDpSolver::solve over the same task vector produces. Every returned
// solution is bit-identical (accept mask, energy, penalty) to that cold
// solve; retask_fuzz --delta-diff replays random request sequences against
// cold solves to enforce exactly this, and tests/test_delta_solver.cpp
// pins the edge cases.
//
// The request path allocates nothing in steady state: the table and select
// buffers live in a private DpScratch arena at their high-water mark,
// checkpoint rows are recycled through a pool, and the solution's vectors
// are assign()ed in place.
#ifndef RETASK_SERVE_DELTA_SOLVER_HPP
#define RETASK_SERVE_DELTA_SOLVER_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "retask/cache/energy_memo.hpp"
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
    /// Energy memo to share with other solvers of the SAME platform (curve +
    /// work_per_cycle) — e.g. the per-PE solvers of one multiprocessor
    /// instance, whose loads heavily overlap. Null: the solver creates its
    /// own. Sharing is safe (the memoized value is a pure function of the
    /// cycles) and cannot change a solution bit.
    std::shared_ptr<EnergyMemo> shared_memo;
  };

  DeltaSolver(EnergyCurve curve, double work_per_cycle) : DeltaSolver(std::move(curve), work_per_cycle, Config()) {}
  DeltaSolver(EnergyCurve curve, double work_per_cycle, Config config);

  /// Admits `task` (validated; its id must not be resident) and returns the
  /// new optimal solution over the resident set. The verdict for the task
  /// is solution().accepted.back() — an admitted task may be rejected, and
  /// admitting one task may evict a previously accepted one.
  const RejectionSolution& admit(const FrameTask& task);

  /// Bulk admission: appends every task (validated; ids must be new and
  /// pairwise distinct) with ONE select at the end instead of one per task.
  /// The resulting state — table, checkpoints, solution — is bit-identical
  /// to admitting the tasks one at a time in order; only the intermediate
  /// solutions are skipped. Seeding path of the multiprocessor local search.
  const RejectionSolution& admit_all(const std::vector<FrameTask>& tasks);

  /// Adopts an already-filled DP table instead of replaying the fill: the
  /// solver (which must still be empty) becomes bit-identical to
  /// admit_all(tasks) without touching a single DP cell. `table` must be
  /// the exact-DP fill over `tasks` in order at a capacity covering every
  /// reachable row (rows above the exported width are unreachable and stay
  /// -inf), with DENSE value-row checkpoints every `checkpoint_stride`
  /// tasks — exactly what the lockstep lanes capture (batch/lockstep.hpp
  /// LockstepTables). The solver's checkpoint stride is rebound to the
  /// export's. Every later admit / remove / reprice replays through the
  /// adopted rows and stays bit-identical to a cold-seeded solver.
  const RejectionSolution& adopt_table(const std::vector<FrameTask>& tasks, DpTableExport table);

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

  void ensure_rows(std::size_t rows);
  /// Clears and relaxes choice row `i` from the current value row, exactly
  /// as dp_fill does at capacity cycle_capacity_.
  void relax_row(std::size_t i);
  /// Restores the nearest checkpoint at or before prefix length
  /// `invalidated` and replays the remaining tasks in residual order.
  void replay_from(std::size_t invalidated);
  void push_checkpoint_if_due(std::size_t prefix);
  void drop_checkpoints_to(std::size_t count);
  /// Reads the optimal solution off the retained table into solution_.
  void select();
  /// energy(work_per_cycle * cycles) through the retained memo — the same
  /// computation RejectionProblem::energy_of_cycles performs.
  double energy_of(Cycles cycles);
  /// Batched energy_of, mirroring RejectionProblem::energy_of_cycles_batch
  /// (memo hits replayed, misses through the fused batch kernel).
  void energy_batch(const Cycles* cycles, double* out, std::size_t n);

  EnergyCurve curve_;
  double work_per_cycle_ = 1.0;
  Config config_;
  Cycles cycle_capacity_ = 0;
  std::size_t width_ = 1;  ///< cycle_capacity_ + 1 value cells

  std::vector<FrameTask> tasks_;
  Cycles total_cycles_ = 0;

  // Retained DP state: value row + choice rows (row capacity grows
  // geometrically; rows_ tracks the allocated count) + select batch
  // buffers, all in one private arena.
  DpScratch table_;
  std::size_t rows_ = 0;
  std::size_t reachable_ = 0;

  // Value-row checkpoints: cp_values_[c] is the row after the first
  // (c + 1) * checkpoint_stride tasks, cp_reach_[c] the reachability bound
  // there. Retired rows are recycled through cp_pool_.
  std::vector<std::vector<double>> cp_values_;
  std::vector<std::size_t> cp_reach_;
  std::vector<std::vector<double>> cp_pool_;

  std::shared_ptr<EnergyMemo> memo_;
  // Scratch of energy_batch's memo miss partition.
  std::vector<std::size_t> miss_index_;
  std::vector<Cycles> miss_cycles_;
  std::vector<double> miss_out_;

  RejectionSolution solution_;
  Cycles accepted_load_ = 0;
  std::uint64_t delta_hits_ = 0;
  std::uint64_t cold_falls_ = 0;
};

}  // namespace retask

#endif  // RETASK_SERVE_DELTA_SOLVER_HPP
