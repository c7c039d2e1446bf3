// Fig. R2 — Normalized objective vs. penalty-to-energy scale lambda.
//
// Fixed overload (load 1.5), penalty scale swept over two decades. At tiny
// lambda rejection is nearly free and every reasonable heuristic finds the
// near-empty accept set; at huge lambda rejection is ruinous and the feasible
// max-penalty packing dominates; the interesting regime is lambda ~ 1 where
// penalties and marginal energies are comparable and the knapsack structure
// is hardest — heuristic gaps peak there.
//
// Run for all three penalty models (uniform / proportional / inverse).
#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace retask;

  const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  const auto lineup = standard_uniproc_lineup();
  const auto reference = [](const RejectionProblem& p) {
    return ExactDpSolver().solve(p).objective();
  };

  const struct {
    PenaltyModel model;
    const char* label;
  } penalty_models[] = {
      {PenaltyModel::kUniform, "uniform penalties"},
      {PenaltyModel::kProportionalCycles, "cycle-proportional penalties"},
      {PenaltyModel::kInverseCycles, "cycle-inverse penalties"},
  };

  std::cout << "Fig. R2: average objective ratio vs. penalty scale (n=12, load 1.5,\n"
               "XScale ideal DVS, dormant-enable, 20 instances per point)\n\n";

  for (const auto& pm : penalty_models) {
    std::vector<bench::SweepPoint> sweep;
    for (const double lambda : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0}) {
      const PenaltyModel kind = pm.model;
      sweep.push_back({lambda, [lambda, kind, &model](std::uint64_t seed) {
                         ScenarioConfig config;
                         config.task_count = 12;
                         config.load = 1.5;
                         config.resolution = 1500.0;
                         config.penalty_model = kind;
                         config.penalty_scale = lambda;
                         config.seed = seed;
                         return make_scenario(config, model);
                       }});
    }
    bench::run_sweep(std::string("Fig R2 - ratio vs penalty scale (") + pm.label + ")",
                     "lambda", sweep, lineup, reference, 20);
    std::cout << '\n';
  }
  return 0;
}
