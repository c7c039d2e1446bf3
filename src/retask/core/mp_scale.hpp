// Many-core partitioned rejection solver (the scale path of ROADMAP item 2).
//
// The toy-scale composition (MultiProcLtfRejectSolver) re-sorts, linearly
// scans m bins per task, and cold-solves every per-processor subproblem one
// after another. This solver keeps the same three-phase structure — place,
// solve each PE's rejection subproblem optimally, improve — but every phase
// is built for m in the hundreds and n in the tens of thousands:
//
//  1. Placement is O(n log m): the heap-based least-loaded partitioner
//     (sched/partition.hpp) for LTF, or FFD-with-rejection under the per-PE
//     cycle capacity. Tasks no processor can ever hold (cycles > capacity)
//     are pruned before placement — they are rejected in every feasible
//     solution, so carrying their weight through the partition only skews
//     the balance (the Lagrangian bound prices them the same way).
//  2. Each of the m independent per-PE subproblems gets one exact-DP solve
//     (ExactDpSolver::solve), sharded across the parallel_for pool:
//     partitioned DVS scheduling solves each processor on its own. Every
//     PE's solution is a pure function of its subproblem, so the phase is
//     invariant to RETASK_JOBS and the SIMD backend.
//  3. A move/swap local search re-seats locally-rejected tasks on the
//     least-loaded PE. Marginal screens commit directly; the highest-penalty
//     screen failures escalate to exact probes on per-PE DeltaSolver
//     instances (serve/delta_solver.hpp) instead of a cold O(n_p * W)
//     re-solve. A probe is a read-only probe_admit, one step per staircase
//     record, and the solver is written only when the move pays. A swap
//     probe removes the target's largest accepted task for real and puts it
//     back when the swap does not pay. The solvers are built lazily (only
//     PEs the search touches pay the table fill), each with a checkpoint
//     every quarter of its residents (at most every 16), so that removal
//     replays from a checkpoint. The screens read cached per-PE facts (the
//     two least-loaded PEs, each PE's largest accepted task), rescanned only
//     after a PE changes.
//
// The search is serial and deterministic; all parallelism lives in phase 2,
// whose per-PE solves are bit-exact. Counters: the mp.* family (probes,
// moves, swaps, delta solvers built, oversized/overflow rejections, bound
// gap).
#ifndef RETASK_CORE_MP_SCALE_HPP
#define RETASK_CORE_MP_SCALE_HPP

#include "retask/core/solver.hpp"
#include "retask/sched/partition.hpp"

namespace retask {

/// Knobs of the many-core solve. Defaults are the benchmarked configuration.
struct MpScaleConfig {
  /// Placement policy: kLargestFirst (balance-driven LTF, the paper's
  /// pedigree) or kFirstFitDecreasing (feasibility-driven FFD with
  /// rejection). Other policies are accepted but unusual.
  PartitionPolicy partition = PartitionPolicy::kLargestFirst;
  /// Move/swap local-search rounds; 0 disables the improvement phase.
  int local_search_rounds = 2;
  /// parallel_for jobs for the per-PE solves; 0 resolves RETASK_JOBS.
  int jobs = 0;
  /// Also compute the multiprocessor Lagrangian bound and record the
  /// relative gap as mp.bound_gap_permille (one extra O(n log n) pass).
  bool record_bound_gap = false;
};

/// O(n log m) partition + per-PE exact rejection + delta-driven
/// move/swap local search. Registry name "mp-scale".
class MultiProcScaleSolver final : public RejectionSolver {
 public:
  MultiProcScaleSolver() = default;
  explicit MultiProcScaleSolver(MpScaleConfig config) : config_(config) {}

  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "MP-SCALE"; }

  const MpScaleConfig& config() const { return config_; }

 private:
  MpScaleConfig config_;
};

}  // namespace retask

#endif  // RETASK_CORE_MP_SCALE_HPP
