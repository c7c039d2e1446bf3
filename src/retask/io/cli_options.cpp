#include "retask/io/cli_options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "retask/common/error.hpp"
#include "retask/core/algorithm_registry.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/table_power.hpp"
#include "retask/sched/stochastic.hpp"

namespace retask {
namespace {

/// strtod with the failure modes closed: rejects trailing junk, literal
/// "inf"/"nan", and values strtod clamps on over/underflow (errno ERANGE),
/// so "--capacity 1e999" is an error instead of an infinite capacity.
double parse_finite_double(const std::string& flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  require(end != nullptr && *end == '\0' && !value.empty() && errno != ERANGE &&
              std::isfinite(parsed),
          flag + " expects a finite number, got '" + value + "'");
  return parsed;
}

double parse_positive_double(const std::string& flag, const std::string& value) {
  const double parsed = parse_finite_double(flag, value);
  require(parsed > 0.0, flag + " expects a positive number, got '" + value + "'");
  return parsed;
}

double parse_non_negative_double(const std::string& flag, const std::string& value) {
  const double parsed = parse_finite_double(flag, value);
  require(parsed >= 0.0, flag + " expects a non-negative number, got '" + value + "'");
  return parsed;
}

int parse_positive_int(const std::string& flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  require(end != nullptr && *end == '\0' && !value.empty() && errno != ERANGE && parsed > 0 &&
              parsed < 100000,
          flag + " expects a positive integer below 100000, got '" + value + "'");
  return static_cast<int>(parsed);
}

std::uint64_t parse_seed(const std::string& flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  require(end != nullptr && *end == '\0' && !value.empty() && errno != ERANGE &&
              value.find('-') == std::string::npos,
          flag + " expects a non-negative integer seed, got '" + value + "'");
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

std::string cli_usage() {
  return R"(retask_cli — energy-efficient real-time task scheduling with task rejection

usage: retask_cli --input FILE [options]

  --input FILE        task CSV (frame: id,cycles,penalty;
                      periodic: id,cycles,period,penalty)
  --mode MODE         frame (default) | periodic
  --solver NAME       opt-dp (default), opt-exh, fptas:<eps>, greedy,
                      ls-greedy, all-accept, rand, mp-ltf-dp, la-ltf-ff,
                      mp-greedy, mp-rand, mp-opt-exh
  --processors M      identical processors (default 1)
  --model NAME        xscale (default) | cubic | table5
  --idle MODE         enable (default, can sleep) | disable (always leaks)
  --frame D           frame mode: common deadline in time units (default 1)
  --capacity C        frame mode: cycles one processor executes at top speed
                      within the frame (default 1000)
  --esw E / --tsw T   dormant-mode switch overheads (default 0)
  --jobs N            worker threads for parallel execution paths
                      (default: RETASK_JOBS env var, else all hardware
                      threads; results are identical for every N)
  --csv               print the per-task decision table as CSV
  --stochastic SPEC   frame mode, 1 processor, continuous models: after the
                      solve, replay the accepted set with per-job actual
                      cycles drawn from SPEC = KIND:LO,HI (kind uniform,
                      normal or bimodal; LO,HI the ACET/WCET support) and
                      print a per-policy mean-energy table
  --trajectories K    stochastic replay: seeded trajectories (default 16)
  --ladder N          stochastic replay: execute on an N-level frequency
                      ladder (default 0 = ideal continuous speeds)
  --traj-seed S       stochastic replay: trajectory-draw seed (default 1)
  --help              this text
)";
}

std::unique_ptr<PowerModel> make_model_by_name(const std::string& name) {
  if (name == "xscale") return PolynomialPowerModel::xscale().clone();
  if (name == "cubic") return PolynomialPowerModel::cubic().clone();
  if (name == "table5") return TablePowerModel::xscale5().clone();
  throw Error("unknown power model '" + name + "' (expected xscale, cubic or table5)");
}

CliOptions parse_cli_options(const std::vector<std::string>& args) {
  CliOptions options;
  const auto next_value = [&](std::size_t& i, const std::string& flag) -> const std::string& {
    require(i + 1 < args.size(), flag + " expects a value");
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--input") {
      options.input_path = next_value(i, arg);
    } else if (arg == "--mode") {
      const std::string& value = next_value(i, arg);
      if (value == "frame") options.mode = CliOptions::Mode::kFrame;
      else if (value == "periodic") options.mode = CliOptions::Mode::kPeriodic;
      else throw Error("--mode expects 'frame' or 'periodic', got '" + value + "'");
    } else if (arg == "--solver") {
      options.solver = next_value(i, arg);
    } else if (arg == "--processors") {
      options.processors = parse_positive_int(arg, next_value(i, arg));
    } else if (arg == "--model") {
      options.model = next_value(i, arg);
    } else if (arg == "--idle") {
      const std::string& value = next_value(i, arg);
      if (value == "enable") options.idle = IdleDiscipline::kDormantEnable;
      else if (value == "disable") options.idle = IdleDiscipline::kDormantDisable;
      else throw Error("--idle expects 'enable' or 'disable', got '" + value + "'");
    } else if (arg == "--frame") {
      options.frame = parse_positive_double(arg, next_value(i, arg));
    } else if (arg == "--capacity") {
      options.capacity = parse_positive_double(arg, next_value(i, arg));
    } else if (arg == "--jobs") {
      options.jobs = parse_positive_int(arg, next_value(i, arg));
    } else if (arg == "--esw") {
      options.sleep.switch_energy = parse_non_negative_double(arg, next_value(i, arg));
    } else if (arg == "--tsw") {
      options.sleep.switch_time = parse_non_negative_double(arg, next_value(i, arg));
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--stochastic") {
      options.stochastic = next_value(i, arg);
    } else if (arg == "--trajectories") {
      options.trajectories = parse_positive_int(arg, next_value(i, arg));
    } else if (arg == "--ladder") {
      options.ladder = parse_positive_int(arg, next_value(i, arg));
    } else if (arg == "--traj-seed") {
      options.trajectory_seed = parse_seed(arg, next_value(i, arg));
    } else {
      throw Error("unknown option '" + arg + "' (see --help)");
    }
  }

  if (!options.help) {
    require(!options.input_path.empty(), "--input is required (see --help)");
    make_model_by_name(options.model);  // validate early
    make_solver(options.solver);
    if (!options.stochastic.empty()) {
      require(options.mode == CliOptions::Mode::kFrame,
              "--stochastic replays the frame schedule; use --mode frame");
      require(options.processors == 1, "--stochastic requires --processors 1");
      require(options.model != "table5",
              "--stochastic requires a continuous model (the --ladder flag supplies "
              "the discreteness)");
      validate(parse_distribution(options.stochastic));  // fail on bad SPEC early
    }
  }
  return options;
}

}  // namespace retask
