// Experiment harness: runs an algorithm lineup over a family of random
// instances and aggregates the venue-standard metrics (mean/max objective
// ratio against a reference, acceptance ratio).
//
// Instances are solved concurrently (see common/parallel.hpp) into
// per-instance slots and reduced in instance order, so every aggregate is
// bit-identical regardless of the job count: per-instance seeding
// (seed0 + k) makes the inputs deterministic, and the ordered reduction
// makes the floating-point accumulation order deterministic too.
#ifndef RETASK_EXP_HARNESS_HPP
#define RETASK_EXP_HARNESS_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "retask/cache/energy_memo.hpp"
#include "retask/common/stats.hpp"
#include "retask/core/solver.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {

/// Builds the instance for a given replication seed.
using ProblemFactory = std::function<RejectionProblem(std::uint64_t seed)>;

/// Reference objective (optimal or lower bound) for normalization.
using ReferenceObjective = std::function<double(const RejectionProblem&)>;

/// Aggregated outcome of one algorithm over the instance family.
struct AlgoStats {
  std::string name;
  OnlineStats ratio;       ///< objective / reference objective
  OnlineStats acceptance;  ///< fraction of tasks accepted
  OnlineStats objective;   ///< raw objective values
  /// Solver metrics collected while this algorithm ran on this point's
  /// instances (obs::ActiveScope per cell). Counters and histograms merge
  /// commutatively, so the merged registry is bit-identical at any job
  /// count; empty in RETASK_OBS=OFF builds.
  obs::Registry metrics;

  /// Ordered reduce: folds `other`'s accumulators into this one's (the
  /// name is kept). Folding single-instance slots in instance order yields
  /// the same bits as the sequential harness.
  void merge(const AlgoStats& other);
};

/// Runs every solver on `instances` instances (seeds seed0, seed0+1, ...),
/// normalizing by `reference`. Solver outputs are revalidated; a reference
/// of 0 with a 0 objective counts as ratio 1. `jobs` = 0 uses
/// default_jobs() (RETASK_JOBS / hardware); any job count produces
/// bit-identical aggregates, and jobs = 1 runs strictly sequentially.
std::vector<AlgoStats> run_comparison(const ProblemFactory& factory,
                                      const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
                                      const ReferenceObjective& reference, int instances,
                                      std::uint64_t seed0 = 1, int jobs = 0);

/// Solve-reuse knobs of run_comparison_batch. The defaults are always
/// sound: they only enable reuse the harness can prove safe by itself.
struct BatchOptions {
  /// Group the sweep points of one instance (same seed) and solve them
  /// through RejectionSolver::solve_sweep when every point carries an
  /// identical task set (capacity/work_per_cycle sweeps). Solutions are
  /// bit-identical either way (the solve_sweep contract); the only
  /// observable difference is metric attribution — a grouped algorithm's
  /// solver metrics land in the FIRST point's AlgoStats instead of being
  /// split per point (the per-point split does not exist for shared work).
  bool sweep_reuse = true;
  /// Caller-supplied memo attached to EVERY problem of the grid. The caller
  /// asserts all factories produce problems with one identical
  /// (EnergyCurve, work_per_cycle) pair — see
  /// RejectionProblem::attach_energy_memo. Null (the default) attaches no
  /// memo: one closed-form evaluation of E costs less than a memo
  /// miss, so only a grid whose lineup revisits the same loads across
  /// points and instances gains from one.
  std::shared_ptr<EnergyMemo> shared_energy_memo;
};

/// Batch form used by the sweep drivers: one factory per sweep point, all
/// instances solved in a single parallel region (seeds
/// seed0 ... seed0 + instances - 1 within every point, matching a
/// run_comparison call per point). Returns one AlgoStats vector per factory.
/// Solutions and aggregates are bit-identical to calling run_comparison
/// point by point at any job count; see BatchOptions for the metric
/// attribution caveat under sweep_reuse. Each instance is one parallel unit:
/// it solves its points through one solve_sweep when they share a task set
/// (and sweep_reuse is on), else through one solve per cell.
std::vector<std::vector<AlgoStats>> run_comparison_batch(
    const std::vector<ProblemFactory>& factories,
    const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
    const ReferenceObjective& reference, int instances, std::uint64_t seed0 = 1, int jobs = 0,
    const BatchOptions& options = {});

}  // namespace retask

#endif  // RETASK_EXP_HARNESS_HPP
