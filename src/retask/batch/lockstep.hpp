// Instance-batched lockstep solving: many same-shape instances, one pass.
//
// Sweep reuse (cache/sweep.hpp) collapses points that share a task set; a
// fleet of *different* instances with the same shape (equal task count, one
// processor, equal cycle capacity, bit-identical energy curve) gets no help
// from it — every instance pays its own DP fill and its own select sweep.
// This module runs up to `lanes` such instances in lockstep instead:
//
//  * Exact DP — one dp_fill (core/dp_table.hpp) over the chunk's lanes,
//    each filled by the same contiguous relaxation the solo solver uses,
//    with per-lane reachability bounds and capacity pruning, into lane-major
//    choice bits; then each lane walks its own staircase with the solo
//    select. Lanes share no energy evaluations.
//  * Density / marginal greedy — per-lane decisions replayed position by
//    position (density) or round by round (local search), with every
//    energy probe of every live lane fused into one batched evaluation.
//  * Fused sweeps (solve_sweep_batch) — a (point x instance) sweep grid is
//    partitioned into same-shape lane groups; each lane fills ONCE at its
//    widest point and takes its staircase once (the warm start of
//    ExactDpSolver::solve_sweep), and every point reads each lane's answer
//    off that staircase.
//  * Table export (solve_batch + LockstepTables) — the exact-DP lanes'
//    filled tables can be captured as DpTableExport views for
//    DeltaSolver::adopt_table, sparing downstream incremental solvers the
//    cold refill (core/mp_scale.cpp seeds its local search this way).
//
// Lane-by-lane bit-identity: each lane's cells, prunes, probes and flips
// are exactly the single-instance solver's (the kernels touch disjoint
// strided cells, batched energies match scalar energies bit for bit), so
// solve_batch() == { base.solve(p) for p in batch } on every backend —
// tests/test_batch_lockstep.cpp asserts this per backend, and
// `retask_fuzz --lockstep-diff` re-checks both batch shapes on random
// fleets.
#ifndef RETASK_BATCH_LOCKSTEP_HPP
#define RETASK_BATCH_LOCKSTEP_HPP

#include <string>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/core/solver.hpp"

namespace retask {

/// The process-wide lane count: the last set_lockstep_lanes() value, else
/// the RETASK_BATCH environment variable (off -> 0, auto or unset -> 4, or
/// an explicit lane count). 0 and 1 both mean "solve per instance": no
/// lockstep lanes and no fused sweeps.
int lockstep_lanes();

/// Overrides the lane count process-wide (0 disables lockstep batching).
void set_lockstep_lanes(int lanes);

/// Per-instance DP tables captured by solve_batch's lockstep exact-DP path
/// (one slot per input problem, input order). A slot with an empty `value`
/// was not captured: the instance fell back to a per-instance solve, the
/// base solver has no exportable table, or the capture exceeded the byte
/// budget. Captured slots are bit-identical to what DeltaSolver::admit_all
/// over the instance's task vector would have filled, so
/// DeltaSolver::adopt_table can seed from them directly.
struct LockstepTables {
  std::vector<DpTableExport> exports;
};

/// Per-solver batching knobs.
struct BatchConfig {
  /// Lanes run in lockstep; -1 defers to lockstep_lanes(). Values below 2
  /// disable batching (every instance solves through the base solver).
  int lanes = -1;
};

/// True when `a` and `b` may share lockstep lanes: equal task count, one
/// processor each, equal cycle capacity and bitwise-equal energy curves
/// (window, idle discipline, sleep overheads, power model parameters,
/// work_per_cycle). Shape says nothing about the task data — lanes carry
/// different cycles and penalties; that is the point.
bool same_shape(const RejectionProblem& a, const RejectionProblem& b);

/// Facade turning a single-instance solver into a batch solver. Instances
/// are grouped by shape signature, groups are cut into lane-sized chunks,
/// and each chunk runs in lockstep when the base solver has a lockstep
/// implementation (exact DP, density greedy, marginal greedy); ragged
/// tails of size 1 and unsupported solvers fall back to per-instance
/// base.solve(). Results come back in input order.
class BatchRejectionSolver {
 public:
  /// `base` must outlive the facade.
  explicit BatchRejectionSolver(const RejectionSolver& base, BatchConfig config = {});

  /// Solves every instance; bit-identical to calling base.solve() per
  /// instance, in any grouping and at any lane count.
  std::vector<RejectionSolution> solve_batch(
      const std::vector<const RejectionProblem*>& problems) const;

  /// solve_batch that additionally captures the lockstep exact-DP lanes'
  /// filled tables into `tables` (resized to one slot per problem; see
  /// LockstepTables for which slots stay empty). The solutions are the same
  /// bits with or without capture.
  std::vector<RejectionSolution> solve_batch(
      const std::vector<const RejectionProblem*>& problems, LockstepTables* tables) const;

  /// Fused cross-instance sweep: `grids[i]` is instance i's sweep points
  /// (one task set per instance, capacities/platforms varying by point, as
  /// RejectionSolver::solve_sweep receives them). Instances whose per-point
  /// shapes match are grouped, cut into lane-sized chunks, and each chunk
  /// shares ONE lane-major fill (per lane, at the lane's widest point) whose
  /// per-lane staircases answer every point. Results are
  /// bit-identical to calling base.solve_sweep(grids[i]) per instance;
  /// ineligible instances (mixed task sets, odd shapes, non-exact-DP base,
  /// fewer than 2 lanes) take exactly that fallback.
  std::vector<std::vector<RejectionSolution>> solve_sweep_batch(
      const std::vector<std::vector<const RejectionProblem*>>& grids) const;

  /// "<base name>+LOCKSTEP".
  std::string name() const;

 private:
  const RejectionSolver* base_;
  BatchConfig config_;
};

}  // namespace retask

#endif  // RETASK_BATCH_LOCKSTEP_HPP
