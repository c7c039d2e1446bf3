// Random-instance differential fuzzing of the solver lineup.
//
// Each round draws a scenario (power model, idle discipline, dormant
// overheads, processor count, load, penalty scale/model, cycle spread),
// generates a task set from it, and runs the property registry
// (verify/properties.hpp) over the full solver suite. Rounds execute under
// parallel_for with per-round seeding, so a report is bit-identical at any
// job count. On a violation the instance is minimized by drop-one-task
// descent (the counterexample keeps failing, but dropping any single task
// makes it pass) and packaged with its scenario for a replayable dump
// (io/counterexample.hpp).
#ifndef RETASK_VERIFY_DIFFERENTIAL_HPP
#define RETASK_VERIFY_DIFFERENTIAL_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "retask/common/rng.hpp"
#include "retask/core/problem.hpp"
#include "retask/io/counterexample.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/task/generator.hpp"
#include "retask/verify/properties.hpp"

namespace retask {

/// Everything needed to rebuild one fuzz instance bit-for-bit. Serialized
/// into counterexample files; the generation knobs (task_count, load, ...)
/// are provenance once the concrete task set is saved.
struct InstanceSpec {
  std::string model = "xscale";  ///< xscale | cubic | table5
  IdleDiscipline idle = IdleDiscipline::kDormantEnable;
  double frame = 1.0;
  double resolution = 200.0;  ///< cycles representing load 1
  int processor_count = 1;
  double switch_energy = 0.0;  ///< dormant-mode switch overheads
  double switch_time = 0.0;
  int task_count = 8;
  double load = 1.2;
  double penalty_scale = 1.0;
  double cycle_spread = 8.0;
  PenaltyModel penalty_model = PenaltyModel::kUniform;
  std::uint64_t seed = 1;  ///< task-generator seed
  // Stochastic execution-time provenance (--stochastic-diff): the actual-cycle
  // distribution and the trajectory stream seed, so a counterexample replays
  // the exact same early-completion trajectories.
  std::string stoch_kind = "uniform";  ///< uniform | normal | bimodal
  double stoch_lo = 0.25;              ///< ACET/WCET ratio support, lower edge
  double stoch_hi = 1.0;               ///< ACET/WCET ratio support, upper edge
  std::uint64_t stoch_seed = 1;        ///< trajectory-draw seed
};

/// Draws the task set `spec` describes (generator reuse: the same
/// FrameWorkloadConfig path as the evaluation benches).
FrameTaskSet draw_tasks(const InstanceSpec& spec);

/// Builds the problem for an explicit task set (replay and shrinking).
RejectionProblem build_problem(const InstanceSpec& spec, FrameTaskSet tasks);

/// Convenience: build_problem(spec, draw_tasks(spec)).
RejectionProblem build_instance(const InstanceSpec& spec);

/// Builds the verification suite for a processor count; the default is
/// default_suite. Injecting extra (e.g. deliberately broken) solvers is how
/// tests prove the harness catches bugs.
using SuiteFactory = std::function<std::vector<SolverUnderTest>(int processor_count)>;

/// Fuzz run knobs.
struct FuzzOptions {
  std::uint64_t seed = 1;   ///< base seed; round r uses seed + r
  int rounds = 200;         ///< instances to draw
  int max_n = 12;           ///< largest task count (clamped further for M > 1)
  int jobs = 0;             ///< parallel_for jobs; 0 = default_jobs()
  bool shrink = true;       ///< minimize failing instances
  bool sweep_cache = false; ///< also check warm-vs-cold sweep solve identity
  bool simd_diff = false;   ///< also check forced-scalar vs SIMD solve identity
  bool delta_diff = false;  ///< also check serve-mode delta-solve vs cold identity
  bool stochastic_diff = false; ///< also cross-check ladder vs continuous reclamation
  bool mp_diff = false;     ///< also check heap-partition and mp-scale identities
};

/// Warm-vs-cold sweep-cache check: solves a 3-point capacity sweep of
/// `problem` through ExactDpSolver::solve_sweep and per-point solve(), and
/// a 3-budget sweep through solve_budgeted_dp_sweep and per-budget
/// solve_budgeted_dp, reporting any bitwise mismatch (accept masks,
/// energies, penalties/values) as "sweep-cache" violations. The cached
/// paths promise strict bit-identity, so the comparison uses exact double
/// equality. Single-processor instances only (returns empty otherwise).
std::vector<PropertyViolation> check_sweep_cache(const RejectionProblem& problem);

/// Forced-scalar vs AVX2 check: solves `problem` with the
/// kernel-using single-processor solvers (exact DP, budgeted DP, FPTAS) and
/// the density/marginal greedies, which run no kernel, under the scalar
/// kernel table and under the AVX2 one when the host can execute it,
/// reporting any bitwise difference (accept masks, energies, penalties) as
/// "simd-diff" violations. The exact DP's list phase runs no kernel, so the
/// check repeats on `problem`'s tasks repeated past 64, whose fills always
/// reach the dense phase. The SIMD layer promises bit-identity, so the
/// comparison uses exact double equality. Single-processor instances only
/// (returns empty otherwise, and on scalar-only hosts).
std::vector<PropertyViolation> check_simd_diff(const RejectionProblem& problem);

/// Serve-mode delta-solve vs cold-solve check: admits `problem`'s tasks one
/// at a time into a DeltaSolver (checkpoint stride 4, so removals exercise
/// the checkpointed replay path), then drives a seeded random walk of
/// remove / readmit / reprice mutations over the resident set. After every
/// step the incremental solution must be bitwise identical (accept mask,
/// energy, penalty) to a cold ExactDpSolver solve of the same resident set,
/// and every admit and readmit is probed first: the probe must leave the
/// solution untouched and equal the admitted energy + penalty bitwise. Any
/// difference is a "delta-diff" violation. The incremental path promises
/// strict bit-identity, so the comparison uses exact double equality.
/// Single-processor instances only (returns empty otherwise).
std::vector<PropertyViolation> check_delta_diff(const InstanceSpec& spec,
                                                const RejectionProblem& problem);

/// Ladder-quantized vs continuous stochastic-reclamation check: admits the
/// instance through the density-greedy solver, draws seeded early-completion
/// trajectories from the spec's ACET/WCET distribution (plus the degenerate
/// all-WCET trajectory), and runs every stochastic policy on the continuous
/// backend and on 5- and 2-level frequency ladders. Violations
/// ("stochastic-diff"): any deadline miss on either backend, any run below
/// the continuous clairvoyant lower bound (checked only where that bound is
/// exact: dormant-disable, or dormant-enable without switch overheads — a
/// non-amortized sleep switch makes idle power effectively positive and the
/// critical-speed floor no longer optimal), a degenerate-trajectory ladder
/// run cheaper than its continuous twin (the chord never undercuts the
/// curve), or a bitwise divergence between the engine's continuous
/// static/greedy/clairvoyant paths and sched/reclaim (and between
/// expected_ratio == 1 pacing and the greedy reclaimer). Counterexample
/// details embed the distribution and trajectory seed, so dumps replay the
/// exact trajectories. Single-processor continuous-model instances only
/// (returns empty otherwise).
std::vector<PropertyViolation> check_stochastic_diff(const InstanceSpec& spec,
                                                     const RejectionProblem& problem);

/// Multiprocessor-scale identity check. Three layers, all exact-equality:
/// (1) the O(n log m) heap / tournament-tree partitioners against the
/// O(n * m) linear-scan reference (`partition_items_reference`) over the
/// instance's cycle weights, every policy, several bin counts — bin
/// assignments and bin loads must match bit for bit; (2) the mp-scale
/// solver's invariance contract — solutions at different job counts and
/// under forced-scalar and (when available) AVX2 kernels must be bitwise
/// identical; (3)
/// composition identities — with local search off and no oversized task,
/// mp-scale under LTF placement reproduces mp-ltf-dp bitwise, and every
/// produced solution's objective stays at or above the multiprocessor
/// Lagrangian lower bound (soundness of core/lower_bound).
/// Violations are "mp-diff". Layers 2-3 need processor_count >= 2; layer 1
/// runs on every instance.
std::vector<PropertyViolation> check_mp_diff(const InstanceSpec& spec,
                                             const RejectionProblem& problem);

/// One failing, minimized instance.
struct FuzzCounterexample {
  int round = 0;            ///< failing round (replay: --seed + round)
  InstanceSpec spec;
  FrameTaskSet tasks;       ///< minimized task set
  std::vector<PropertyViolation> violations;  ///< on the minimized instance
  /// Solver metrics collected while re-checking the minimized instance;
  /// serialized as `metric.<name>` rows so the dump shows how much work the
  /// failing solve did. Empty in RETASK_OBS=OFF builds.
  obs::Registry metrics;
};

/// Aggregate fuzz outcome.
struct FuzzReport {
  int rounds = 0;
  int solver_runs = 0;  ///< solve() calls across all rounds (without shrinking)
  std::vector<FuzzCounterexample> counterexamples;
  bool ok() const { return counterexamples.empty(); }
};

/// Draws one random scenario honoring `options` (task counts keep the
/// exhaustive oracles inside their state guards).
InstanceSpec draw_spec(Rng& rng, const FuzzOptions& options);

/// Runs the sweep. `factory` defaults to default_suite.
FuzzReport run_differential_fuzz(const FuzzOptions& options, const SuiteFactory& factory = {});

/// Drop-one-task minimization: returns a task set that still violates some
/// property but whose every single-task reduction passes. `tasks` must
/// already fail; returns it unchanged when it is already 1-minimal.
FrameTaskSet shrink_tasks(const InstanceSpec& spec, FrameTaskSet tasks,
                          const SuiteFactory& factory = {});

/// Serialization to/from the io-layer counterexample format.
CounterexampleFile to_counterexample_file(const FuzzCounterexample& counterexample);
struct ReplayCase {
  InstanceSpec spec;
  FrameTaskSet tasks;
  bool stochastic = false;  ///< dump carried stoch-* metadata: re-run the
                            ///< stochastic cross-check on replay
};
ReplayCase from_counterexample_file(const CounterexampleFile& file);

/// Rebuilds the instance of a replay case and re-runs the property checks.
std::vector<PropertyViolation> check_replay(const ReplayCase& replay,
                                            const SuiteFactory& factory = {});

}  // namespace retask

#endif  // RETASK_VERIFY_DIFFERENTIAL_HPP
