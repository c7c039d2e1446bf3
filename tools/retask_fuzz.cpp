// retask_fuzz — differential fuzzing of the whole solver lineup.
//
//   retask_fuzz --rounds 200 --max-n 12 --seed 1        # sweep, exit 1 on bug
//   retask_fuzz --replay retask_cex_17.csv              # re-run a dump
//   retask_fuzz --inject-broken --rounds 50             # prove the harness bites
//
// Every round draws a random scenario (model, idle discipline, dormant
// overheads, processors, load, penalty shape), generates a task set, runs
// every registered solver and checks the verification properties
// (feasibility, objective recomputation, FPTAS bound, exact-solver
// agreement, oracle no-regression). Failing instances are minimized by
// drop-one-task descent and dumped as replayable counterexample files.
#include <cstdint>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/verify/differential.hpp"
#include "retask/verify/properties.hpp"

namespace {

using namespace retask;

struct FuzzCliOptions {
  FuzzOptions fuzz;
  std::string replay_path;      ///< when set, replay instead of sweeping
  std::string out_prefix = "retask_cex";
  bool inject_broken = false;   ///< add the off-by-one capacity solver
  bool help = false;
};

const char* kUsage =
    R"(retask_fuzz — differential verification fuzzer for the solver lineup

usage: retask_fuzz [options]

  --rounds R         random instances to check (default 200)
  --max-n N          largest task count, >= 2 (default 12; multiprocessor
                     rounds are clamped further to keep the exhaustive
                     oracle bounded)
  --seed S           base seed; round r uses seed S + r (default 1)
  --jobs J           worker threads (default: RETASK_JOBS, else hardware)
  --out PREFIX       counterexample file prefix (default retask_cex ->
                     retask_cex_<round>.csv)
  --no-shrink        skip drop-one-task minimization of failures
  --sweep-cache      also check the cached sweep paths (solve_sweep,
                     solve_budgeted_dp_sweep) stay bit-identical to the
                     per-point cold solves on every instance
  --simd-diff        also solve every instance under the forced-scalar
                     kernels and under every vector backend the host can
                     execute, requiring bit-identical solutions
  --lockstep-diff    also expand a same-shape fleet around every instance
                     into capacity sweeps and solve it through the lockstep
                     batch solver — solve_batch per point and the fused
                     solve_sweep_batch over the grid (lanes 4 and 8, every
                     backend, including ragged lane tails) — requiring
                     bit-identity with cold per-point solves and with each
                     instance's warm solve_sweep
  --delta-diff       also replay every instance as a serve-mode admit /
                     remove / reprice walk through the incremental
                     DeltaSolver, requiring bit-identical solutions to a
                     cold solve after every mutation
  --stochastic-diff  also draw seeded early-completion trajectories and
                     cross-check ladder-quantized vs continuous reclamation
                     policies: zero deadline misses on both backends, the
                     continuous clairvoyant lower bound, and bit-identity of
                     the engine's continuous paths with sched/reclaim;
                     counterexample dumps embed the trajectory seed and
                     distribution for exact replay
  --mp-diff          also check the multiprocessor scale path: the O(n log m)
                     heap/tournament partitioners against the linear-scan
                     reference, mp-scale bit-invariance across jobs /
                     lockstep lanes / SIMD backends, the rounds=0 composition
                     identity with mp-ltf-dp, and Lagrangian lower-bound
                     soundness
  --replay FILE      re-run one dumped counterexample and report
  --inject-broken    add a deliberately wrong solver (exact DP against an
                     off-by-one capacity); the sweep must catch it
  --help             this text

exit status: 0 clean, 1 property violations found, 2 usage error.
)";

std::int64_t parse_int(const std::string& flag, const std::string& value, std::int64_t lo,
                       std::int64_t hi) {
  std::int64_t parsed = 0;
  try {
    std::size_t used = 0;
    parsed = std::stoll(value, &used);
    require(used == value.size(), "trailing junk");
  } catch (const std::exception&) {
    throw Error(flag + " expects an integer, got '" + value + "'");
  }
  require(parsed >= lo && parsed <= hi,
          flag + " expects a value in [" + std::to_string(lo) + ", " + std::to_string(hi) +
              "], got '" + value + "'");
  return parsed;
}

FuzzCliOptions parse(const std::vector<std::string>& args) {
  FuzzCliOptions options;
  const auto value = [&](std::size_t& i, const std::string& flag) -> const std::string& {
    require(i + 1 < args.size(), flag + " expects a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--rounds") {
      options.fuzz.rounds = static_cast<int>(parse_int(arg, value(i, arg), 0, 1000000));
    } else if (arg == "--max-n") {
      options.fuzz.max_n = static_cast<int>(parse_int(arg, value(i, arg), 2, 24));
    } else if (arg == "--seed") {
      options.fuzz.seed = static_cast<std::uint64_t>(
          parse_int(arg, value(i, arg), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--jobs") {
      options.fuzz.jobs = static_cast<int>(parse_int(arg, value(i, arg), 1, 4096));
    } else if (arg == "--out") {
      options.out_prefix = value(i, arg);
    } else if (arg == "--no-shrink") {
      options.fuzz.shrink = false;
    } else if (arg == "--sweep-cache") {
      options.fuzz.sweep_cache = true;
    } else if (arg == "--simd-diff") {
      options.fuzz.simd_diff = true;
    } else if (arg == "--lockstep-diff") {
      options.fuzz.lockstep_diff = true;
    } else if (arg == "--delta-diff") {
      options.fuzz.delta_diff = true;
    } else if (arg == "--stochastic-diff") {
      options.fuzz.stochastic_diff = true;
    } else if (arg == "--mp-diff") {
      options.fuzz.mp_diff = true;
    } else if (arg == "--replay") {
      options.replay_path = value(i, arg);
    } else if (arg == "--inject-broken") {
      options.inject_broken = true;
    } else {
      throw Error("unknown option '" + arg + "' (see --help)");
    }
  }
  return options;
}

SuiteFactory make_suite_factory(bool inject_broken) {
  if (!inject_broken) return {};
  return [](int processor_count) {
    std::vector<SolverUnderTest> suite = default_suite(processor_count);
    // The broken solver is single-processor; multiprocessor rounds keep the
    // stock suite.
    if (processor_count == 1) suite.push_back(broken_capacity_solver());
    return suite;
  };
}

int run_replay(const FuzzCliOptions& options) {
  const ReplayCase replay = from_counterexample_file(read_counterexample_file(options.replay_path));
  const std::vector<PropertyViolation> violations =
      check_replay(replay, make_suite_factory(options.inject_broken));
  std::cout << "replay " << options.replay_path << ": " << replay.tasks.size() << " tasks, "
            << replay.spec.processor_count << " processor(s), model " << replay.spec.model
            << "\n";
  for (const PropertyViolation& violation : violations) {
    std::cout << "  VIOLATION " << to_string(violation) << "\n";
  }
  if (violations.empty()) {
    std::cout << "  clean: every property holds\n";
    return 0;
  }
  return 1;
}

int run_sweep(const FuzzCliOptions& options) {
  const FuzzReport report =
      run_differential_fuzz(options.fuzz, make_suite_factory(options.inject_broken));
  std::cout << "fuzz: " << report.rounds << " rounds, " << report.solver_runs
            << " solver runs, " << report.counterexamples.size() << " counterexample(s)\n";
  for (const FuzzCounterexample& counterexample : report.counterexamples) {
    std::ostringstream path;
    path << options.out_prefix << "_" << counterexample.round << ".csv";
    write_counterexample_file(path.str(), to_counterexample_file(counterexample));
    std::cout << "round " << counterexample.round << ": " << counterexample.tasks.size()
              << "-task counterexample -> " << path.str() << " (replay: retask_fuzz --replay "
              << path.str() << ")\n";
    for (const PropertyViolation& violation : counterexample.violations) {
      std::cout << "  VIOLATION " << to_string(violation) << "\n";
    }
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const FuzzCliOptions options = parse({argv + 1, argv + argc});
    if (options.help) {
      std::cout << kUsage;
      return 0;
    }
    if (options.fuzz.jobs > 0) set_default_jobs(options.fuzz.jobs);
    if (!options.replay_path.empty()) return run_replay(options);
    return run_sweep(options);
  } catch (const retask::Error& error) {
    std::cerr << "error: " << error.what() << "\n\n" << kUsage;
    return 2;
  }
}
