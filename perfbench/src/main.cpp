// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then (traced runs) the layer table, and
// as the last line the JSON result. Exits 1 when any op failed, 2 on a
// usage error or an exception.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fig_load|fig_capacity|serve_churn|mp_many> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a number, got '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " expects a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
        usage("--seed expects a non-negative integer");
      }
      try {
        options.seed = std::stoull(value);
      } catch (const std::exception&) {
        usage("--seed out of range");
      }
    } else if (flag == "--seconds") {
      options.seconds = parse_number(flag, value);
      if (!(options.seconds > 0.0 && options.seconds <= 600.0)) usage("--seconds out of range");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  try {
    const perfbench::Outcome outcome = perfbench::run_workload(options);
    if (options.trace) perfbench::print_layer_table(std::cout, options.workload, outcome.layers);
    std::cout << "ops: attempted=" << outcome.ops.attempted << " failed=" << outcome.ops.failed
              << "\n";
    std::cout << perfbench::result_json(outcome, options.trace) << std::endl;
    return outcome.ops.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
