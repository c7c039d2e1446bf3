// Many-core scale-up sweep: the experiment-harness entry point of the
// MultiProcScaleSolver benchmark (core/mp_scale.hpp).
//
// One sweep point draws `instances` multiprocessor scenario instances
// (seeds seed0 + k) and runs every solver of the lineup over all of them,
// reporting the venue-standard quality aggregates (objective, acceptance,
// ratio to the multiprocessor Lagrangian bound) next to the throughput
// (instances solved per second) the scale-up story is about.
//
// Sharding: instance construction and the per-instance lower bounds run
// through parallel_for into per-instance slots (instance k is fully
// determined by seed0 + k, never by the worker that built it). The timed
// solves then run serially in instance order — the solvers own the pool
// during their solve (mp-scale's phase 2 shards its per-PE solves across
// parallel_for), so timing them one at a time measures each solver
// at full width instead of m solvers fighting for the same workers. All
// quality aggregates are bit-identical at any job count; only the wall
// times are machine-dependent.
#ifndef RETASK_EXP_MP_SCALE_SWEEP_HPP
#define RETASK_EXP_MP_SCALE_SWEEP_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "retask/common/stats.hpp"
#include "retask/exp/workload.hpp"

namespace retask {

/// Knobs of one many-core sweep point.
struct MpScaleSweepConfig {
  /// Scenario family (task count, per-system load, resolution, penalties,
  /// processor count); scenario.seed is ignored — instance k uses seed0 + k.
  ScenarioConfig scenario;
  /// Solver lineup by registry name (core/algorithm_registry.hpp). The
  /// default pairs the scale solver against the toy-scale global greedy.
  std::vector<std::string> solvers = {"mp-scale", "mp-greedy"};
  int instances = 8;
  std::uint64_t seed0 = 1;
  /// Compute the multiprocessor Lagrangian bound per instance and fill the
  /// bound_ratio / gap aggregates. One O(n log n) pass per instance,
  /// sharded with the construction.
  bool record_bound_gap = true;
  /// Revalidate every solution (check_solution, O(n)); disable only inside
  /// timing-sensitive micro-studies.
  bool validate = true;
};

/// Aggregates of one solver over the instance family.
struct MpScaleSolverStats {
  std::string solver;          ///< registry name
  OnlineStats objective;       ///< raw objective values
  OnlineStats acceptance;      ///< fraction of tasks accepted
  OnlineStats bound_ratio;     ///< objective / Lagrangian bound (>= 1);
                               ///< empty unless record_bound_gap
  /// Per-instance relative gaps (objective - bound) / bound, in instance
  /// order, for quantile reporting; empty unless record_bound_gap.
  std::vector<double> gaps;
  /// Wall-clock throughput of the serial timed loop. Machine-dependent —
  /// everything else in this struct is bit-identical at any job count.
  double solve_seconds = 0.0;
  double instances_per_sec = 0.0;
};

/// Outcome of one sweep point.
struct MpScaleSweepResult {
  OnlineStats bound;                        ///< Lagrangian bound values
  std::vector<MpScaleSolverStats> solvers;  ///< config.solvers order
};

/// Runs the sweep point on `model`. `jobs` = 0 uses default_jobs(); the
/// job count shards construction and feeds the solvers' internal
/// parallelism, and every non-timing aggregate is bit-identical across it.
MpScaleSweepResult run_mp_scale_sweep(const MpScaleSweepConfig& config, const PowerModel& model,
                                      int jobs = 0);

}  // namespace retask

#endif  // RETASK_EXP_MP_SCALE_SWEEP_HPP
