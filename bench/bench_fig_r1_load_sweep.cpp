// Fig. R1 — Normalized objective vs. system load (uniprocessor).
//
// The core experiment family of the task-rejection evaluation: n = 12 tasks
// on one XScale-normalized ideal DVS processor, system load swept from
// comfortably feasible (0.4) to heavily overloaded (3.2). Every algorithm's
// objective is normalized to the optimal solution (exact DP; provably
// optimal, cross-checked against exhaustive search in the test suite).
//
// Expected shape: OPT-DP pins 1.0 everywhere; FPTAS(0.1) <= 1.1; the
// greedies track the optimum closely at low load and drift upward past load
// 1 where the accept/reject combinatorics bite; RAND is worst and
// deteriorates with load.
#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace retask;

  const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  const auto lineup = standard_uniproc_lineup();
  const auto reference = [](const RejectionProblem& p) {
    return ExactDpSolver().solve(p).objective();
  };

  std::vector<bench::SweepPoint> sweep;
  for (const double load : {0.4, 0.8, 1.0, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2}) {
    sweep.push_back({load, [load, &model](std::uint64_t seed) {
                       ScenarioConfig config;
                       config.task_count = 12;
                       config.load = load;
                       config.resolution = 1500.0;
                       config.penalty_scale = 1.0;
                       config.seed = seed;
                       return make_scenario(config, model);
                     }});
  }

  std::cout << "Fig. R1: average objective ratio vs. optimal (n=12, XScale ideal DVS,\n"
               "dormant-enable, uniform penalties, 20 instances per point)\n\n";
  bench::run_sweep("Fig R1 - normalized objective vs system load", "load", sweep, lineup,
                   reference, 20);
  return 0;
}
