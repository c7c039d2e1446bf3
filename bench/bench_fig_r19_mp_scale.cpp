// Fig. R19 — Many-core scale-up: MP-SCALE vs the toy-scale global greedy.
//
// M sweeps 16 -> 512 processors at fixed n = 10^4 tasks, per-PE load 0.75.
// Each point reports, per solver, the mean objective ratio to the
// multiprocessor Lagrangian bound and the solve throughput (instances/sec),
// plus the MP-SCALE / MP-GREEDY throughput speedup and MP-SCALE's median
// relative bound gap. The quality columns are bit-identical at any
// RETASK_JOBS / SIMD backend (the mp-scale invariance contract); the
// throughput columns are wall-clock and machine-dependent.
//
// Expected shape: both solvers stay within a few percent of the bound (the
// gap includes the bound's integrality slack), and the speedup grows with M.
// The greedy probes all M processors per task and re-probes them across its
// improvement passes (O(n m) memo probes), while MP-SCALE's dominant cost —
// the per-PE exact relaxations, n/m tasks times an O(resolution) table each
// — is independent of M, so sweeping M at fixed n isolates exactly the
// many-core regime the solver exists for. (Fixed n is also forced by the
// generator's >= 1 cycle per task floor: growing n grows the table width
// with it, which would conflate the two axes.)
//
// `--smoke` runs a miniature grid (the tier-1 mp_scale_smoke ctest leg).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace retask;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  const PolynomialPowerModel model = PolynomialPowerModel::xscale();

  struct Point {
    int m = 0;
    int n = 0;
    int instances = 0;
  };
  const std::vector<Point> grid =
      smoke ? std::vector<Point>{{8, 300, 2}, {32, 1200, 2}}
            : std::vector<Point>{{16, 10000, 4}, {64, 10000, 4}, {256, 10000, 3},
                                 {512, 10000, 3}};

  std::cout << "Fig. R19" << (smoke ? " (smoke grid)" : "")
            << ": many-core scale-up, MP-SCALE vs MP-GREEDY\n"
               "(XScale ideal DVS, dormant-enable, per-PE load 0.75, ratio = objective /\n"
               " multiprocessor Lagrangian bound, gap50 = MP-SCALE median relative gap)\n\n";

  Table table("Fig R19 - many-core scale-up (per-PE load 0.75)",
              {"M", "n", "SCALE ratio", "SCALE inst/s", "GREEDY ratio", "GREEDY inst/s",
               "speedup", "gap50 %"});
  for (const Point& point : grid) {
    MpScaleSweepConfig config;
    config.scenario.task_count = point.n;
    config.scenario.load = 0.75 * point.m;
    // The generator needs >= 1 cycle per task; keep the per-PE DP capacity
    // (== resolution cycles) as small as the task count allows.
    config.scenario.resolution = std::max(1000.0, static_cast<double>(point.n));
    config.scenario.penalty_scale = 1.0;
    config.scenario.processor_count = point.m;
    config.solvers = {"mp-scale", "mp-greedy"};
    config.instances = point.instances;
    const MpScaleSweepResult result = run_mp_scale_sweep(config, model);
    const MpScaleSolverStats& scale = result.solvers[0];
    const MpScaleSolverStats& greedy = result.solvers[1];
    const double speedup = greedy.instances_per_sec > 0.0
                               ? scale.instances_per_sec / greedy.instances_per_sec
                               : 0.0;
    table.add_row({static_cast<double>(point.m), static_cast<double>(point.n),
                   scale.bound_ratio.mean(), scale.instances_per_sec, greedy.bound_ratio.mean(),
                   greedy.instances_per_sec, speedup, 100.0 * quantile(scale.gaps, 0.5)},
                  3);
  }
  bench::print_table(table);
  return 0;
}
