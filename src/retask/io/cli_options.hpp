// Command-line option parsing for the retask_cli tool (kept in the library
// so it is unit-testable).
#ifndef RETASK_IO_CLI_OPTIONS_HPP
#define RETASK_IO_CLI_OPTIONS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "retask/power/energy_curve.hpp"
#include "retask/power/power_model.hpp"

namespace retask {

/// Parsed retask_cli options.
struct CliOptions {
  enum class Mode { kFrame, kPeriodic };

  Mode mode = Mode::kFrame;
  std::string input_path;         ///< required
  std::string solver = "opt-dp";  ///< algorithm_registry name
  int processors = 1;
  std::string model = "xscale";  ///< xscale | cubic | table5
  IdleDiscipline idle = IdleDiscipline::kDormantEnable;
  double frame = 1.0;       ///< frame mode: the common deadline D
  double capacity = 1000;   ///< frame mode: cycles that fit one processor at smax
  SleepParams sleep{};      ///< --esw / --tsw
  int jobs = 0;             ///< worker threads for parallel paths; 0 = auto
  bool csv = false;         ///< emit the per-task decision table as CSV
  bool help = false;

  // Stochastic replay of the accepted set (frame mode, single processor,
  // continuous models): --stochastic KIND:LO,HI enables it.
  std::string stochastic;            ///< empty = off; else "KIND:LO,HI"
  int trajectories = 16;             ///< seeded trajectories to replay
  int ladder = 0;                    ///< 0 = continuous; N >= 1 = N-level ladder
  std::uint64_t trajectory_seed = 1; ///< trajectory-draw seed
};

/// Parses `args` (without argv[0]); throws retask::Error on unknown flags,
/// missing values, out-of-range numbers or unknown model and solver names.
/// `--help` sets `help` and skips the required-argument checks.
CliOptions parse_cli_options(const std::vector<std::string>& args);

/// Usage text shown by --help and on parse errors.
std::string cli_usage();

/// Builds the power model named by `CliOptions::model`; throws on unknown
/// names.
std::unique_ptr<PowerModel> make_model_by_name(const std::string& name);

}  // namespace retask

#endif  // RETASK_IO_CLI_OPTIONS_HPP
