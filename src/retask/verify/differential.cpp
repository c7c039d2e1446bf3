#include "retask/verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "retask/batch/lockstep.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/core/mp_scale.hpp"
#include "retask/core/multiproc.hpp"
#include "retask/exp/workload.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/sched/partition.hpp"
#include "retask/power/freq_ladder.hpp"
#include "retask/sched/reclaim.hpp"
#include "retask/sched/stochastic.hpp"
#include "retask/serve/delta_solver.hpp"
#include "retask/simd/backend.hpp"

namespace retask {
namespace {

std::vector<SolverUnderTest> build_suite(const SuiteFactory& factory, int processor_count) {
  return factory ? factory(processor_count) : default_suite(processor_count);
}

std::string fmt(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string penalty_model_name(PenaltyModel model) {
  switch (model) {
    case PenaltyModel::kUniform: return "uniform";
    case PenaltyModel::kProportionalCycles: return "proportional";
    case PenaltyModel::kInverseCycles: return "inverse";
  }
  throw Error("penalty_model_name: unknown penalty model");
}

PenaltyModel penalty_model_from(const std::string& name) {
  if (name == "uniform") return PenaltyModel::kUniform;
  if (name == "proportional") return PenaltyModel::kProportionalCycles;
  if (name == "inverse") return PenaltyModel::kInverseCycles;
  throw Error("counterexample: unknown penalty model '" + name + "'");
}

double meta_double(const CounterexampleFile& file, const std::string& key, double fallback) {
  const std::string* text = file.find(key);
  if (text == nullptr) return fallback;
  std::size_t used = 0;
  const double parsed = std::stod(*text, &used);
  require(used == text->size() && std::isfinite(parsed),
          "counterexample: bad numeric value for '" + key + "': '" + *text + "'");
  return parsed;
}

std::string meta_string(const CounterexampleFile& file, const std::string& key,
                        const std::string& fallback) {
  const std::string* text = file.find(key);
  return text == nullptr ? fallback : *text;
}

std::uint64_t meta_uint64(const CounterexampleFile& file, const std::string& key,
                          std::uint64_t fallback) {
  const std::string* text = file.find(key);
  if (text == nullptr) return fallback;
  try {
    std::size_t used = 0;
    const std::uint64_t parsed = std::stoull(*text, &used);
    require(used == text->size(), "trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw Error("counterexample: bad integer value for '" + key + "': '" + *text + "'");
  }
}

}  // namespace

FrameTaskSet draw_tasks(const InstanceSpec& spec) {
  const std::unique_ptr<PowerModel> model = make_model_by_name(spec.model);
  FrameWorkloadConfig config;
  config.task_count = spec.task_count;
  config.target_load = spec.load;
  config.frame = spec.frame;
  config.max_speed = model->max_speed();
  config.resolution = spec.resolution;
  config.cycle_spread = spec.cycle_spread;
  config.penalty_model = spec.penalty_model;
  config.penalty_scale = spec.penalty_scale;
  config.energy_per_cycle_ref = penalty_anchor(*model);
  Rng rng(spec.seed);
  return generate_frame_tasks(config, rng);
}

RejectionProblem build_problem(const InstanceSpec& spec, FrameTaskSet tasks) {
  const std::unique_ptr<PowerModel> model = make_model_by_name(spec.model);
  SleepParams sleep;
  sleep.switch_energy = spec.switch_energy;
  sleep.switch_time = spec.switch_time;
  EnergyCurve curve(*model, spec.frame, spec.idle, sleep);
  const double work_per_cycle = model->max_speed() * spec.frame / spec.resolution;
  return RejectionProblem(std::move(tasks), std::move(curve), work_per_cycle,
                          spec.processor_count);
}

RejectionProblem build_instance(const InstanceSpec& spec) {
  return build_problem(spec, draw_tasks(spec));
}

InstanceSpec draw_spec(Rng& rng, const FuzzOptions& options) {
  InstanceSpec spec;
  const char* models[] = {"xscale", "cubic", "table5"};
  spec.model = models[rng.uniform_int(0, 2)];
  spec.idle = rng.uniform() < 0.5 ? IdleDiscipline::kDormantEnable
                                  : IdleDiscipline::kDormantDisable;
  spec.frame = rng.uniform(0.5, 2.0);
  spec.resolution = rng.uniform(50.0, 400.0);
  // Half the rounds single-processor (where the DP/FPTAS/exhaustive triangle
  // lives), half multiprocessor against the exhaustive oracle.
  spec.processor_count = rng.uniform() < 0.5 ? 1 : static_cast<int>(rng.uniform_int(2, 3));
  // Keep the exhaustive oracles inside their state guards and fast: the MP
  // oracle enumerates (M+1)^n states.
  int max_n = std::max(2, options.max_n);
  if (spec.processor_count == 2) max_n = std::min(max_n, 11);
  if (spec.processor_count == 3) max_n = std::min(max_n, 9);
  spec.task_count = static_cast<int>(rng.uniform_int(2, max_n));
  spec.load = rng.uniform(0.4, 1.4) * spec.processor_count;
  spec.penalty_scale = rng.log_uniform(0.05, 20.0);
  spec.cycle_spread = rng.uniform(1.0, 16.0);
  const PenaltyModel penalty_models[] = {PenaltyModel::kUniform,
                                         PenaltyModel::kProportionalCycles,
                                         PenaltyModel::kInverseCycles};
  spec.penalty_model = penalty_models[rng.uniform_int(0, 2)];
  if (rng.uniform() < 0.5 && spec.idle == IdleDiscipline::kDormantEnable) {
    spec.switch_energy = rng.uniform(0.0, 0.2);
    spec.switch_time = rng.uniform(0.0, 0.3 * spec.frame);
  }
  spec.seed = rng();
  // Stochastic trajectory provenance, drawn after `seed` so existing checks
  // see bit-identical instances whether or not --stochastic-diff is on.
  const char* stoch_kinds[] = {"uniform", "normal", "bimodal"};
  spec.stoch_kind = stoch_kinds[rng.uniform_int(0, 2)];
  spec.stoch_lo = rng.uniform(0.05, 0.6);
  spec.stoch_hi = spec.stoch_lo + rng.uniform(0.0, 1.0 - spec.stoch_lo);
  spec.stoch_seed = rng();
  return spec;
}

namespace {

/// Drop-one-task descent against an arbitrary "still fails" predicate over
/// candidate task sets.
template <typename Fails>
FrameTaskSet shrink_tasks_impl(FrameTaskSet tasks, const Fails& still_fails) {
  bool changed = true;
  while (changed && tasks.size() > 1) {
    changed = false;
    for (std::size_t drop = 0; drop < tasks.size(); ++drop) {
      std::vector<FrameTask> reduced;
      reduced.reserve(tasks.size() - 1);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (i != drop) reduced.push_back(tasks[i]);
      }
      FrameTaskSet candidate(std::move(reduced));
      if (still_fails(candidate)) {
        tasks = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return tasks;
}

}  // namespace

FrameTaskSet shrink_tasks(const InstanceSpec& spec, FrameTaskSet tasks,
                          const SuiteFactory& factory) {
  return shrink_tasks_impl(std::move(tasks), [&](const FrameTaskSet& candidate) {
    return !check_instance(build_problem(spec, candidate),
                           build_suite(factory, spec.processor_count))
                .empty();
  });
}

std::vector<PropertyViolation> check_sweep_cache(const RejectionProblem& problem) {
  std::vector<PropertyViolation> violations;
  if (problem.processor_count() != 1) return violations;
  const auto mismatch = [&](const std::string& solver, const std::string& detail) {
    violations.push_back({"sweep-cache", solver, detail});
  };

  // Capacity sweep: solve_sweep's warm-started table vs per-point solves.
  const std::vector<double> factors{0.5, 0.8, 1.0};
  const std::vector<RejectionProblem> points = make_capacity_sweep(problem, factors);
  std::vector<const RejectionProblem*> group;
  group.reserve(points.size());
  for (const RejectionProblem& point : points) group.push_back(&point);
  try {
    const std::vector<RejectionSolution> warm = ExactDpSolver().solve_sweep(group);
    RETASK_ASSERT(warm.size() == points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      const RejectionSolution cold = ExactDpSolver().solve(points[p]);
      if (warm[p].accepted != cold.accepted || warm[p].energy != cold.energy ||
          warm[p].penalty != cold.penalty) {
        mismatch("opt-dp", "capacity factor " + fmt(factors[p]) + ": warm objective " +
                               fmt(warm[p].objective()) + " != cold " + fmt(cold.objective()) +
                               " (or accept masks differ)");
      }
    }
  } catch (const std::exception& error) {
    mismatch("opt-dp", std::string("capacity sweep threw: ") + error.what());
  }

  // Budget sweep: warm-started budgeted DP vs per-budget solves.
  const Cycles cap = std::min(problem.cycle_capacity(), problem.tasks().total_cycles());
  if (cap < 1) return violations;
  BudgetedProblem budgeted{problem.tasks(), problem.curve(), problem.work_per_cycle(), 1.0};
  std::vector<double> budgets;
  for (const double fill : {0.4, 0.7, 1.0}) {
    const auto cycles = std::max<Cycles>(static_cast<Cycles>(static_cast<double>(cap) * fill), 1);
    const double budget = problem.energy_of_cycles(cycles);
    if (budget > 0.0) budgets.push_back(budget);
  }
  if (budgets.empty()) return violations;
  try {
    const std::vector<BudgetedSolution> warm = solve_budgeted_dp_sweep(budgeted, budgets);
    RETASK_ASSERT(warm.size() == budgets.size());
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      budgeted.energy_budget = budgets[b];
      const BudgetedSolution cold = solve_budgeted_dp(budgeted);
      if (warm[b].accepted != cold.accepted || warm[b].value != cold.value ||
          warm[b].energy != cold.energy) {
        mismatch("budgeted-dp", "budget " + fmt(budgets[b]) + ": warm value " +
                                    fmt(warm[b].value) + " != cold " + fmt(cold.value) +
                                    " (or accept masks differ)");
      }
    }
  } catch (const std::exception& error) {
    mismatch("budgeted-dp", std::string("budget sweep threw: ") + error.what());
  }
  return violations;
}

std::vector<PropertyViolation> check_simd_diff(const RejectionProblem& problem) {
  std::vector<PropertyViolation> violations;
  if (problem.processor_count() != 1) return violations;

  // Every vector backend the host can execute; empty on scalar-only hosts.
  const std::vector<simd::Backend> vector_backends = simd::available_vector_backends();
  if (vector_backends.empty()) return violations;

  const auto mismatch = [&](const std::string& solver, const std::string& detail) {
    violations.push_back({"simd-diff", solver, detail});
  };

  // Rejection solvers that go through the kernel layer. ScopedBackend is a
  // thread-local override, so forcing it here covers the whole solve even
  // when this round runs on a fuzz pool thread.
  const ExactDpSolver exact;
  const FptasSolver fptas(0.1);
  const DensityGreedySolver density;
  const MarginalGreedySolver marginal;
  const std::vector<const RejectionSolver*> solvers = {&exact, &fptas, &density, &marginal};
  for (const RejectionSolver* solver : solvers) {
    try {
      RejectionSolution scalar;
      {
        simd::ScopedBackend forced(simd::Backend::kScalar);
        scalar = solver->solve(problem);
      }
      for (const simd::Backend backend : vector_backends) {
        simd::ScopedBackend forced(backend);
        const RejectionSolution vectored = solver->solve(problem);
        if (vectored.accepted != scalar.accepted || vectored.energy != scalar.energy ||
            vectored.penalty != scalar.penalty) {
          mismatch(solver->name(), std::string(simd::to_string(backend)) + " objective " +
                                       fmt(vectored.objective()) + " != scalar " +
                                       fmt(scalar.objective()) + " (or accept masks differ)");
        }
      }
    } catch (const std::exception& error) {
      mismatch(solver->name(), std::string("simd diff threw: ") + error.what());
    }
  }

  // Budgeted DP (value-maximization twin of the rejection DP).
  const Cycles cap = std::min(problem.cycle_capacity(), problem.tasks().total_cycles());
  if (cap >= 1) {
    const double budget = problem.energy_of_cycles(cap);
    if (budget > 0.0) {
      BudgetedProblem budgeted{problem.tasks(), problem.curve(), problem.work_per_cycle(),
                               budget};
      try {
        BudgetedSolution scalar;
        {
          simd::ScopedBackend forced(simd::Backend::kScalar);
          scalar = solve_budgeted_dp(budgeted);
        }
        for (const simd::Backend backend : vector_backends) {
          simd::ScopedBackend forced(backend);
          const BudgetedSolution vectored = solve_budgeted_dp(budgeted);
          if (vectored.accepted != scalar.accepted || vectored.value != scalar.value ||
              vectored.energy != scalar.energy) {
            mismatch("budgeted-dp", std::string(simd::to_string(backend)) + " value " +
                                        fmt(vectored.value) + " != scalar " + fmt(scalar.value) +
                                        " (or accept masks differ)");
          }
        }
      } catch (const std::exception& error) {
        mismatch("budgeted-dp", std::string("simd diff threw: ") + error.what());
      }
    }
  }
  return violations;
}

std::vector<PropertyViolation> check_lockstep_diff(const InstanceSpec& spec,
                                                   const RejectionProblem& problem) {
  std::vector<PropertyViolation> violations;
  if (problem.processor_count() != 1) return violations;
  const auto mismatch = [&](const std::string& solver, const std::string& detail) {
    violations.push_back({"lockstep-diff", solver, detail});
  };

  // Same-shape fleet: lane 0 is the instance under test (so shrinking can
  // minimize a failure), lanes 1..4 are fresh task sets of the same size
  // drawn from derived seeds, each expanded into the same 3-point capacity
  // sweep. Five instances at 4 lanes exercises a full chunk plus a ragged
  // single-instance tail (the per-instance fallback); at 8 lanes, a padded
  // chunk.
  std::vector<RejectionProblem> fleet;
  fleet.reserve(5);
  fleet.push_back(problem);
  for (std::uint64_t v = 1; v <= 4; ++v) {
    InstanceSpec variant = spec;
    variant.task_count = static_cast<int>(problem.size());
    variant.seed = spec.seed + 0x9e3779b97f4a7c15ULL * v;
    fleet.push_back(build_instance(variant));
    if (!same_shape(fleet.front(), fleet.back())) {
      // Never expected (the builder derives shape from the spec alone), but
      // a silent scalar fallback would hollow the check out.
      mismatch("fleet", "variant " + std::to_string(v) + " is not shape-compatible");
      fleet.pop_back();
    }
  }
  const std::vector<double> factors{0.5, 0.8, 1.0};
  std::vector<std::vector<RejectionProblem>> sweeps;
  sweeps.reserve(fleet.size());
  for (const RejectionProblem& instance : fleet) {
    sweeps.push_back(make_capacity_sweep(instance, factors));
  }
  const std::size_t points = factors.size();
  std::vector<std::vector<const RejectionProblem*>> grids(sweeps.size());
  std::vector<std::vector<const RejectionProblem*>> fleets(points);
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    for (std::size_t p = 0; p < points; ++p) {
      grids[i].push_back(&sweeps[i][p]);
      fleets[p].push_back(&sweeps[i][p]);
    }
  }

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  for (const simd::Backend b : simd::available_vector_backends()) backends.push_back(b);

  // Both batch shapes against the two baselines they promise to reproduce
  // bit for bit: a cold per-point solve and each instance's own warm
  // solve_sweep. solve_batch runs one same-shape fleet per point; the
  // greedy solvers are not sweep-fusable, so their solve_sweep_batch must
  // come back identical through the per-instance fallback.
  const ExactDpSolver exact;
  const DensityGreedySolver density;
  const MarginalGreedySolver marginal;
  const std::vector<const RejectionSolver*> solvers = {&exact, &density, &marginal};
  for (const RejectionSolver* solver : solvers) {
    for (const simd::Backend backend : backends) {
      try {
        simd::ScopedBackend forced(backend);
        std::vector<std::vector<RejectionSolution>> warm(grids.size());
        std::vector<std::vector<RejectionSolution>> cold(grids.size());
        for (std::size_t i = 0; i < grids.size(); ++i) {
          warm[i] = solver->solve_sweep(grids[i]);
          for (const RejectionProblem* point : grids[i]) cold[i].push_back(solver->solve(*point));
        }
        for (const int lanes : {4, 8}) {
          const auto check = [&](const char* shape, std::size_t i, std::size_t p,
                                 const RejectionSolution& got) {
            const auto differs = [&](const RejectionSolution& want) {
              return got.accepted != want.accepted || got.energy != want.energy ||
                     got.penalty != want.penalty;
            };
            if (differs(cold[i][p]) || differs(warm[i][p])) {
              mismatch(solver->name(),
                       std::string(shape) + " " + std::string(simd::to_string(backend)) +
                           " lanes=" + std::to_string(lanes) + " instance " + std::to_string(i) +
                           " point " + std::to_string(p) + ": objective " + fmt(got.objective()) +
                           " != cold " + fmt(cold[i][p].objective()) + " / warm " +
                           fmt(warm[i][p].objective()) + " (or accept masks differ)");
            }
          };
          const BatchRejectionSolver batched(*solver, BatchConfig{lanes});
          for (std::size_t p = 0; p < points; ++p) {
            const std::vector<RejectionSolution> lockstep = batched.solve_batch(fleets[p]);
            RETASK_ASSERT(lockstep.size() == fleets[p].size());
            for (std::size_t i = 0; i < lockstep.size(); ++i) {
              check("solve_batch", i, p, lockstep[i]);
            }
          }
          const std::vector<std::vector<RejectionSolution>> fused =
              batched.solve_sweep_batch(grids);
          RETASK_ASSERT(fused.size() == grids.size());
          for (std::size_t i = 0; i < grids.size(); ++i) {
            RETASK_ASSERT(fused[i].size() == points);
            for (std::size_t p = 0; p < points; ++p) check("solve_sweep_batch", i, p, fused[i][p]);
          }
        }
      } catch (const std::exception& error) {
        mismatch(solver->name(), std::string(simd::to_string(backend)) +
                                     " lockstep diff threw: " + error.what());
      }
    }
  }
  return violations;
}

std::vector<PropertyViolation> check_delta_diff(const InstanceSpec& spec,
                                                const RejectionProblem& problem) {
  std::vector<PropertyViolation> violations;
  if (problem.processor_count() != 1) return violations;
  const auto mismatch = [&](const std::string& detail) {
    violations.push_back({"delta-diff", "delta-dp", detail});
  };

  // Stride 4 instead of the serving default: with fuzz-sized task sets every
  // removal then lands between checkpoints, so the checkpointed replay (not
  // just the base-state cold refill) is exercised.
  DeltaSolver::Config config;
  config.checkpoint_stride = 4;
  DeltaSolver delta(problem.curve(), problem.work_per_cycle(), config);

  // After every mutation the incremental table must reproduce a cold solve
  // of the same resident set bit for bit.
  const auto agrees = [&](const std::string& step) {
    const RejectionSolution& live = delta.solution();
    const RejectionSolution cold = ExactDpSolver().solve(delta.make_problem());
    if (live.accepted != cold.accepted || live.energy != cold.energy ||
        live.penalty != cold.penalty) {
      mismatch(step + ": delta objective " + fmt(live.objective()) + " != cold " +
               fmt(cold.objective()) + " (or accept masks differ)");
      return false;
    }
    return true;
  };

  try {
    const FrameTaskSet& tasks = problem.tasks();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      delta.admit(tasks[i]);
      if (!agrees("admit id " + std::to_string(tasks[i].id))) return violations;
    }
    // Seeded mutation walk (replays bit-for-bit from the instance spec):
    // remove residents, readmit removed tasks, reprice survivors.
    Rng rng(spec.seed ^ 0xde17ad1ffULL);
    std::vector<FrameTask> removed;
    const std::size_t steps = 2 * tasks.size();
    for (std::size_t step = 0; step < steps; ++step) {
      const std::int64_t op = rng.uniform_int(0, 2);
      if (op == 0 && delta.size() > 0) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(delta.size()) - 1));
        const FrameTask victim = delta.resident()[at];
        delta.remove(victim.id);
        removed.push_back(victim);
        if (!agrees("remove id " + std::to_string(victim.id))) return violations;
      } else if (op == 1 && !removed.empty()) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(removed.size()) - 1));
        const FrameTask task = removed[at];
        removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(at));
        delta.admit(task);
        if (!agrees("readmit id " + std::to_string(task.id))) return violations;
      } else if (op == 2 && delta.size() > 0) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(delta.size()) - 1));
        const FrameTask target = delta.resident()[at];
        const double penalty = target.penalty * rng.uniform(0.25, 4.0);
        delta.reprice(target.id, penalty);
        if (!agrees("reprice id " + std::to_string(target.id))) return violations;
      }
    }
  } catch (const std::exception& error) {
    mismatch(std::string("delta walk threw: ") + error.what());
  }
  return violations;
}

std::vector<PropertyViolation> check_stochastic_diff(const InstanceSpec& spec,
                                                     const RejectionProblem& problem) {
  std::vector<PropertyViolation> violations;
  if (problem.processor_count() != 1) return violations;
  if (!problem.curve().model().is_continuous()) return violations;
  // Every detail carries the distribution and trajectory seed: together with
  // the serialized spec they replay the exact failing trajectory.
  const std::string provenance = " [stoch " + spec.stoch_kind + ":" + fmt(spec.stoch_lo) + "," +
                                 fmt(spec.stoch_hi) + " seed " +
                                 std::to_string(spec.stoch_seed) + "]";
  const auto mismatch = [&](const std::string& policy, const std::string& detail) {
    violations.push_back({"stochastic-diff", policy, detail + provenance});
  };

  try {
    // Admit through the density-greedy solver: the accepted set is feasible
    // by the solver contract, which is what the reclamation engine requires.
    const RejectionSolution solution = DensityGreedySolver().solve(problem);
    std::vector<FrameTask> accepted;
    accepted.reserve(problem.size());
    for (std::size_t i = 0; i < problem.size(); ++i) {
      if (solution.accepted[i]) accepted.push_back(problem.tasks()[i]);
    }
    if (accepted.empty()) return violations;

    const TrajectoryDistribution dist = parse_distribution(
        spec.stoch_kind + ":" + fmt(spec.stoch_lo) + "," + fmt(spec.stoch_hi));
    const EnergyCurve& curve = problem.curve();
    const double kappa = problem.work_per_cycle();
    const FreqLadder ladder5 = FreqLadder::from_model(curve.model(), 5);
    const FreqLadder ladder2 = FreqLadder::from_model(curve.model(), 2);

    std::vector<Cycles> worst(accepted.size());
    for (std::size_t i = 0; i < accepted.size(); ++i) worst[i] = accepted[i].cycles;

    // The clairvoyant bound is a theorem only where its floor is the true
    // optimum: dormant-disable (the convex extra-cost per work is minimized
    // at the slowest feasible speed) and overhead-free dormant-enable (idle
    // is free, the critical speed minimizes P(s)/s). With dormant-enable
    // switch overheads a short idle tail never amortizes the switch, the
    // effective idle power turns positive, and a longer-busy run can
    // legitimately undercut the critical-speed "optimum".
    const bool bound_is_exact = spec.idle == IdleDiscipline::kDormantDisable ||
                                (spec.switch_energy == 0.0 && spec.switch_time == 0.0);

    Rng rng(spec.stoch_seed);
    for (int t = 0; t < 4; ++t) {
      // Trajectory 0 is the degenerate all-WCET run (where ladder-dominates-
      // continuous is a theorem); the rest are seeded draws.
      const bool degenerate = t == 0;
      const std::vector<Cycles> actual =
          degenerate ? worst : draw_trajectory(accepted, dist, rng);
      const std::string tag = "trajectory " + std::to_string(t);

      StochasticFrameConfig frame;
      frame.policy = StochasticPolicy::kClairvoyant;
      const double bound = simulate_frame_stochastic(accepted, actual, kappa, curve, frame).energy;

      for (const StochasticPolicy policy : all_stochastic_policies()) {
        frame.policy = policy;
        frame.expected_ratio = dist.mean_ratio();
        frame.ladder = nullptr;
        const StochasticFrameResult continuous =
            simulate_frame_stochastic(accepted, actual, kappa, curve, frame);
        if (!continuous.deadline_met) {
          mismatch(to_string(policy), tag + ": continuous deadline miss, completion " +
                                          fmt(continuous.completion));
        }
        if (bound_is_exact && continuous.energy < bound - 1e-9) {
          mismatch(to_string(policy), tag + ": continuous energy " + fmt(continuous.energy) +
                                          " undercuts the clairvoyant bound " + fmt(bound));
        }
        for (const FreqLadder* ladder : {&ladder5, &ladder2}) {
          frame.ladder = ladder;
          const StochasticFrameResult quantized =
              simulate_frame_stochastic(accepted, actual, kappa, curve, frame);
          const std::string level_tag =
              tag + ": " + std::to_string(ladder->size()) + "-level ladder";
          if (!quantized.deadline_met) {
            mismatch(to_string(policy),
                     level_tag + " deadline miss, completion " + fmt(quantized.completion));
          }
          if (bound_is_exact && quantized.energy < bound - 1e-9) {
            mismatch(to_string(policy), level_tag + " energy " + fmt(quantized.energy) +
                                            " undercuts the clairvoyant bound " + fmt(bound));
          }
          // The chord argument only covers speeds within the ladder's range:
          // below the bottom level the ladder clamps up, finishes the task
          // early, and hands later tasks extra slack — legitimately cheaper.
          bool within_range = true;
          for (const double speed : continuous.task_speeds) {
            within_range = within_range && speed >= ladder->min_speed() - 1e-12;
          }
          if (degenerate && within_range && quantized.energy < continuous.energy - 1e-9) {
            mismatch(to_string(policy),
                     level_tag + " all-WCET energy " + fmt(quantized.energy) +
                         " undercuts the continuous run " + fmt(continuous.energy) +
                         " (the chord never undercuts the curve)");
          }
        }
      }

      // The continuous engine paths promise bit-identity with sched/reclaim.
      const struct {
        StochasticPolicy mine;
        ReclaimPolicy theirs;
      } pairs[] = {
          {StochasticPolicy::kStatic, ReclaimPolicy::kStatic},
          {StochasticPolicy::kGreedy, ReclaimPolicy::kGreedy},
          {StochasticPolicy::kClairvoyant, ReclaimPolicy::kClairvoyant},
      };
      frame.ladder = nullptr;
      for (const auto& pair : pairs) {
        frame.policy = pair.mine;
        const StochasticFrameResult mine =
            simulate_frame_stochastic(accepted, actual, kappa, curve, frame);
        const ReclaimResult theirs =
            simulate_frame_reclaim(accepted, actual, kappa, curve, pair.theirs);
        if (mine.energy != theirs.energy || mine.completion != theirs.completion) {
          mismatch(to_string(pair.mine),
                   tag + ": engine energy " + fmt(mine.energy) + " / completion " +
                       fmt(mine.completion) + " != reclaim " + fmt(theirs.energy) + " / " +
                       fmt(theirs.completion) + " (bit-identity promised)");
        }
      }
      frame.policy = StochasticPolicy::kExpected;
      frame.expected_ratio = 1.0;
      const StochasticFrameResult paced =
          simulate_frame_stochastic(accepted, actual, kappa, curve, frame);
      frame.policy = StochasticPolicy::kGreedy;
      const StochasticFrameResult greedy =
          simulate_frame_stochastic(accepted, actual, kappa, curve, frame);
      if (paced.energy != greedy.energy || paced.completion != greedy.completion) {
        mismatch("expected", tag + ": expected_ratio=1 energy " + fmt(paced.energy) +
                                 " / completion " + fmt(paced.completion) + " != greedy " +
                                 fmt(greedy.energy) + " / " + fmt(greedy.completion) +
                                 " (bit-identity promised)");
      }
    }
  } catch (const std::exception& error) {
    mismatch("engine", std::string("stochastic diff threw: ") + error.what());
  }
  return violations;
}

std::vector<PropertyViolation> check_mp_diff(const InstanceSpec& spec,
                                             const RejectionProblem& problem) {
  std::vector<PropertyViolation> violations;
  const auto mismatch = [&](const std::string& solver, const std::string& detail) {
    violations.push_back({"mp-diff", solver, detail});
  };

  // 1) Heap / tournament-tree partitioners vs the linear-scan reference.
  // Bin assignments AND loads must match bit for bit (loads accumulate in
  // assignment order, so equal assignments imply equal load bits — checking
  // both makes a divergence report pinpoint which side drifted).
  std::vector<double> weights(problem.size());
  for (std::size_t i = 0; i < problem.size(); ++i) {
    weights[i] = static_cast<double>(problem.tasks()[i].cycles);
  }
  const auto capacity = static_cast<double>(problem.cycle_capacity());
  const struct {
    PartitionPolicy policy;
    const char* name;
  } policies[] = {
      {PartitionPolicy::kLargestFirst, "ltf"},
      {PartitionPolicy::kInOrder, "in-order"},
      {PartitionPolicy::kFirstFit, "first-fit"},
      {PartitionPolicy::kBestFit, "best-fit"},
      {PartitionPolicy::kFirstFitDecreasing, "ffd"},
  };
  try {
    for (const int bins : {1, 2, 3, 7, 64, 257}) {
      for (const auto& entry : policies) {
        const Partition fast = partition_items(weights, bins, entry.policy, capacity);
        const Partition ref = partition_items_reference(weights, bins, entry.policy, capacity);
        if (fast.bin_of != ref.bin_of || fast.loads != ref.loads) {
          mismatch("partition", std::string(entry.name) + " bins=" + std::to_string(bins) +
                                    ": heap/tree assignment differs from the linear reference");
        }
      }
      // kShuffled consumes the rng; twin streams keep the orders identical.
      Rng fast_rng(spec.seed ^ 0x5eedULL);
      Rng ref_rng(spec.seed ^ 0x5eedULL);
      const Partition fast =
          partition_items(weights, bins, PartitionPolicy::kShuffled, 0.0, &fast_rng);
      const Partition ref =
          partition_items_reference(weights, bins, PartitionPolicy::kShuffled, 0.0, &ref_rng);
      if (fast.bin_of != ref.bin_of || fast.loads != ref.loads) {
        mismatch("partition", "shuffled bins=" + std::to_string(bins) +
                                  ": heap assignment differs from the linear reference");
      }
    }
  } catch (const std::exception& error) {
    mismatch("partition", std::string("partition diff threw: ") + error.what());
  }

  if (problem.processor_count() < 2) return violations;

  const auto same_solution = [](const RejectionSolution& a, const RejectionSolution& b) {
    return a.accepted == b.accepted && a.processor_of == b.processor_of &&
           a.energy == b.energy && a.penalty == b.penalty;
  };

  try {
    // 2) mp-scale invariance: jobs, lockstep lanes, and SIMD backend must
    // not change a bit (the solver's core contract — all parallelism lives
    // in the bit-exact phase 2).
    MpScaleConfig base_config;
    base_config.jobs = 1;
    base_config.lanes = 0;  // solo per-PE solves
    const RejectionSolution base = MultiProcScaleSolver(base_config).solve(problem);
    const struct {
      int jobs;
      int lanes;
    } variants[] = {{0, 4}, {2, 8}, {4, 2}};
    for (const auto& variant : variants) {
      MpScaleConfig config;
      config.jobs = variant.jobs;
      config.lanes = variant.lanes;
      const RejectionSolution other = MultiProcScaleSolver(config).solve(problem);
      if (!same_solution(base, other)) {
        mismatch("mp-scale", "jobs=" + std::to_string(variant.jobs) + " lanes=" +
                                 std::to_string(variant.lanes) + " objective " +
                                 fmt(other.objective()) + " != baseline " +
                                 fmt(base.objective()) + " (or masks/bindings differ)");
      }
    }
    for (const simd::Backend backend : simd::available_vector_backends()) {
      RejectionSolution scalar;
      {
        simd::ScopedBackend forced(simd::Backend::kScalar);
        scalar = MultiProcScaleSolver().solve(problem);
      }
      simd::ScopedBackend forced(backend);
      const RejectionSolution vectored = MultiProcScaleSolver().solve(problem);
      if (!same_solution(scalar, vectored)) {
        mismatch("mp-scale", std::string(simd::to_string(backend)) + " objective " +
                                 fmt(vectored.objective()) + " != scalar " +
                                 fmt(scalar.objective()) + " (or masks/bindings differ)");
      }
    }

    // 3a) Composition: local search off + LTF placement + no oversized task
    // reduces mp-scale to exactly the mp-ltf-dp pipeline (same partition,
    // lockstep-solved subproblems bit-identical to its solo DP solves).
    bool oversized = false;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      oversized = oversized || problem.tasks()[i].cycles > problem.cycle_capacity();
    }
    if (!oversized) {
      MpScaleConfig ltf_config;
      ltf_config.local_search_rounds = 0;
      const RejectionSolution scale = MultiProcScaleSolver(ltf_config).solve(problem);
      const RejectionSolution ltf = MultiProcLtfRejectSolver().solve(problem);
      if (!same_solution(scale, ltf)) {
        mismatch("mp-scale", "rounds=0 objective " + fmt(scale.objective()) +
                                 " != mp-ltf-dp " + fmt(ltf.objective()) +
                                 " (composition identity, no oversized tasks)");
      }
    }

    // 3b) Bound soundness: no feasible solution may undercut the Lagrangian
    // lower bound (checked on the local-search solution, the strongest one
    // at hand).
    const double bound = multiproc_lower_bound(problem);
    if (base.objective() < bound - 1e-9 * std::max(1.0, bound)) {
      mismatch("mp-lower-bound", "mp-scale objective " + fmt(base.objective()) +
                                     " undercuts the Lagrangian bound " + fmt(bound));
    }
  } catch (const std::exception& error) {
    mismatch("mp-scale", std::string("mp diff threw: ") + error.what());
  }
  return violations;
}

FuzzReport run_differential_fuzz(const FuzzOptions& options, const SuiteFactory& factory) {
  require(options.rounds >= 0, "run_differential_fuzz: rounds must be non-negative");
  require(options.max_n >= 2, "run_differential_fuzz: max_n must be at least 2");

  const std::size_t rounds = static_cast<std::size_t>(options.rounds);
  std::vector<std::optional<FuzzCounterexample>> slots(rounds);
  std::vector<int> runs(rounds, 0);

  parallel_for(
      rounds,
      [&](std::size_t round) {
        Rng rng(options.seed + round);
        const InstanceSpec spec = draw_spec(rng, options);
        const std::vector<SolverUnderTest> suite = build_suite(factory, spec.processor_count);
        runs[round] = static_cast<int>(suite.size());
        FrameTaskSet tasks = draw_tasks(spec);
        // The per-round check (and, below, the shrink predicate and the
        // final re-check) optionally appends the sweep-cache warm-vs-cold
        // comparison, so cached-path divergences are caught, minimized and
        // reported exactly like property violations.
        const auto check_all = [&](const RejectionProblem& problem) {
          std::vector<PropertyViolation> found = check_instance(problem, suite);
          if (options.sweep_cache) {
            std::vector<PropertyViolation> extra = check_sweep_cache(problem);
            found.insert(found.end(), std::make_move_iterator(extra.begin()),
                         std::make_move_iterator(extra.end()));
          }
          if (options.simd_diff) {
            std::vector<PropertyViolation> extra = check_simd_diff(problem);
            found.insert(found.end(), std::make_move_iterator(extra.begin()),
                         std::make_move_iterator(extra.end()));
          }
          if (options.lockstep_diff) {
            std::vector<PropertyViolation> extra = check_lockstep_diff(spec, problem);
            found.insert(found.end(), std::make_move_iterator(extra.begin()),
                         std::make_move_iterator(extra.end()));
          }
          if (options.delta_diff) {
            std::vector<PropertyViolation> extra = check_delta_diff(spec, problem);
            found.insert(found.end(), std::make_move_iterator(extra.begin()),
                         std::make_move_iterator(extra.end()));
          }
          if (options.stochastic_diff) {
            std::vector<PropertyViolation> extra = check_stochastic_diff(spec, problem);
            found.insert(found.end(), std::make_move_iterator(extra.begin()),
                         std::make_move_iterator(extra.end()));
          }
          if (options.mp_diff) {
            std::vector<PropertyViolation> extra = check_mp_diff(spec, problem);
            found.insert(found.end(), std::make_move_iterator(extra.begin()),
                         std::make_move_iterator(extra.end()));
          }
          return found;
        };
        std::vector<PropertyViolation> violations = check_all(build_problem(spec, tasks));
        if (violations.empty()) return;
        if (options.shrink) {
          tasks = shrink_tasks_impl(std::move(tasks), [&](const FrameTaskSet& candidate) {
            return !check_all(build_problem(spec, candidate)).empty();
          });
        }
        // Re-check the (possibly minimized) instance under a scoped metrics
        // registry so the counterexample records how much work the failing
        // solves did — the shrink search's own solves are excluded.
        obs::Registry metrics;
        {
          obs::ActiveScope scope(metrics);
          violations = check_all(build_problem(spec, tasks));
        }
        slots[round] = FuzzCounterexample{static_cast<int>(round), spec, std::move(tasks),
                                          std::move(violations), std::move(metrics)};
      },
      options.jobs);

  FuzzReport report;
  report.rounds = options.rounds;
  for (std::size_t round = 0; round < rounds; ++round) {
    report.solver_runs += runs[round];
    if (slots[round]) report.counterexamples.push_back(std::move(*slots[round]));
  }
  return report;
}

CounterexampleFile to_counterexample_file(const FuzzCounterexample& counterexample) {
  const InstanceSpec& spec = counterexample.spec;
  CounterexampleFile file;
  file.meta = {
      {"model", spec.model},
      {"idle", spec.idle == IdleDiscipline::kDormantEnable ? "enable" : "disable"},
      {"frame", fmt(spec.frame)},
      {"resolution", fmt(spec.resolution)},
      {"processors", std::to_string(spec.processor_count)},
      {"esw", fmt(spec.switch_energy)},
      {"tsw", fmt(spec.switch_time)},
      {"penalty-model", penalty_model_name(spec.penalty_model)},
      {"load", fmt(spec.load)},
      {"penalty-scale", fmt(spec.penalty_scale)},
      {"cycle-spread", fmt(spec.cycle_spread)},
      {"task-count", std::to_string(spec.task_count)},
      {"seed", std::to_string(spec.seed)},
      {"stoch-kind", spec.stoch_kind},
      {"stoch-lo", fmt(spec.stoch_lo)},
      {"stoch-hi", fmt(spec.stoch_hi)},
      {"stoch-seed", std::to_string(spec.stoch_seed)},
      {"round", std::to_string(counterexample.round)},
  };
  for (const PropertyViolation& violation : counterexample.violations) {
    file.meta.emplace_back("violation", to_string(violation));
  }
  // Deterministic solver metrics of the failing re-check (timers excluded so
  // replays of the same instance produce the same dump).
  for (const obs::MetricRow& row :
       obs::report_rows(counterexample.metrics, /*include_timers=*/false)) {
    file.meta.emplace_back("metric." + row.name, row.value);
  }
  file.tasks = counterexample.tasks;
  return file;
}

ReplayCase from_counterexample_file(const CounterexampleFile& file) {
  ReplayCase replay;
  InstanceSpec& spec = replay.spec;
  spec.model = meta_string(file, "model", spec.model);
  const std::string idle = meta_string(file, "idle", "enable");
  require(idle == "enable" || idle == "disable",
          "counterexample: idle must be 'enable' or 'disable', got '" + idle + "'");
  spec.idle = idle == "enable" ? IdleDiscipline::kDormantEnable : IdleDiscipline::kDormantDisable;
  spec.frame = meta_double(file, "frame", spec.frame);
  spec.resolution = meta_double(file, "resolution", spec.resolution);
  spec.processor_count = static_cast<int>(meta_double(file, "processors", 1.0));
  spec.switch_energy = meta_double(file, "esw", 0.0);
  spec.switch_time = meta_double(file, "tsw", 0.0);
  spec.penalty_model = penalty_model_from(meta_string(file, "penalty-model", "uniform"));
  spec.load = meta_double(file, "load", spec.load);
  spec.penalty_scale = meta_double(file, "penalty-scale", spec.penalty_scale);
  spec.cycle_spread = meta_double(file, "cycle-spread", spec.cycle_spread);
  spec.task_count = static_cast<int>(meta_double(file, "task-count",
                                                 static_cast<double>(file.tasks.size())));
  spec.seed = meta_uint64(file, "seed", 1);
  replay.stochastic = file.find("stoch-kind") != nullptr;
  spec.stoch_kind = meta_string(file, "stoch-kind", spec.stoch_kind);
  spec.stoch_lo = meta_double(file, "stoch-lo", spec.stoch_lo);
  spec.stoch_hi = meta_double(file, "stoch-hi", spec.stoch_hi);
  spec.stoch_seed = meta_uint64(file, "stoch-seed", spec.stoch_seed);
  replay.tasks = file.tasks;
  return replay;
}

std::vector<PropertyViolation> check_replay(const ReplayCase& replay,
                                            const SuiteFactory& factory) {
  const RejectionProblem problem = build_problem(replay.spec, replay.tasks);
  std::vector<PropertyViolation> violations =
      check_instance(problem, build_suite(factory, replay.spec.processor_count));
  // Dumps carrying trajectory metadata re-run the stochastic cross-check, so
  // a --stochastic-diff counterexample keeps failing on replay.
  if (replay.stochastic) {
    std::vector<PropertyViolation> extra = check_stochastic_diff(replay.spec, problem);
    violations.insert(violations.end(), std::make_move_iterator(extra.begin()),
                      std::make_move_iterator(extra.end()));
  }
  return violations;
}

}  // namespace retask
