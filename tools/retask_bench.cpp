// retask_bench — pinned-workload benchmark runner with regression gating.
//
//   retask_bench                                        # run + compare
//   retask_bench --out bench/reports/NAME.json          # ... and record the report
//   retask_bench --write-baseline                       # refresh the baseline
//   retask_bench --filter greedy --repeats 9            # focus a subset
//   retask_bench --trace-out trace.json                 # chrome://tracing dump
//
// Runs a fixed suite of solver/simulator workloads (each exercising one hot
// path the ROADMAP's runtime story cares about), records median-of-k wall
// times plus the deterministic solver metrics of one run, writes the report
// as JSON (obs/bench_compare.hpp schema), and compares it against the
// checked-in baseline: exit 1 when any workload's median exceeds
// --threshold x its baseline median, or when any deterministic metric
// differs from the baseline's. A missing baseline is a bootstrap, not a
// failure. Wall times on shared CI machines are noisy — the default
// threshold is deliberately generous; the metrics are the noise-free gate
// on "did the algorithm start doing more work".
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/exhaustive.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/core/mp_scale.hpp"
#include "retask/core/multiproc.hpp"
#include "retask/exp/harness.hpp"
#include "retask/exp/stochastic_sweep.hpp"
#include "retask/exp/workload.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/obs/bench_compare.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/obs/trace.hpp"
#include "retask/sched/edf_sim.hpp"
#include "retask/serve/delta_solver.hpp"
#include "retask/simd/backend.hpp"
#include "retask/simd/kernels.hpp"
#include "retask/task/generator.hpp"

#ifndef RETASK_BENCH_BASELINE_DEFAULT
#define RETASK_BENCH_BASELINE_DEFAULT ""
#endif
#ifndef RETASK_BENCH_REPORT_DEFAULT
#define RETASK_BENCH_REPORT_DEFAULT "bench_report.json"
#endif

namespace {

using namespace retask;

struct BenchCliOptions {
  std::string out = RETASK_BENCH_REPORT_DEFAULT;
  std::string baseline = RETASK_BENCH_BASELINE_DEFAULT;
  std::string filter;
  std::string trace_out;
  double threshold = 2.5;
  int repeats = 5;
  int jobs = 1;
  bool write_baseline = false;
  bool force = false;
  bool list = false;
  bool help = false;
};

const char* kUsage =
    R"(retask_bench — pinned-workload benchmark runner with regression gating

usage: retask_bench [options]

  --out FILE         report JSON path (default bench_report.json in the
                     build directory; the directory is created). Recorded
                     reports under bench/reports/ are written only when
                     named here.
  --baseline FILE    baseline JSON to compare against (default: the
                     checked-in bench/baseline/BENCH_BASELINE.json)
  --threshold X      fail when median > X * baseline median (default 2.5)
  --repeats K        measured runs per workload, median-of-K (default 5)
  --filter SUBSTR    only run workloads whose name contains SUBSTR
  --jobs J           worker threads for the harness workload (default 1)
  --write-baseline   write this run's report to the baseline path and skip
                     the comparison (baseline refresh). Refuses to replace
                     a baseline recorded under a different SIMD backend or
                     --jobs count — such wall times are not comparable and
                     the swap would poison every later comparison; to
                     re-record under another backend or job count, delete
                     the baseline file first. Also refuses a refresh that
                     lacks a workload the baseline holds.
  --force            let --write-baseline drop the baseline workloads this
                     run lacks (a retired or renamed workload)
  --trace-out FILE   enable tracing and dump a chrome://tracing JSON
  --list             print workload names and exit
  --help             this text

exit status: 0 ok (or bootstrap: no baseline yet), 1 regression, missing
workload or metric drift vs baseline, 2 usage error.
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

double parse_double(const std::string& flag, const std::string& value, double lo) {
  double parsed = 0.0;
  try {
    std::size_t used = 0;
    parsed = std::stod(value, &used);
    require(used == value.size(), "trailing junk");
  } catch (const std::exception&) {
    throw Error(flag + " expects a number, got '" + value + "'");
  }
  require(parsed > lo, flag + " expects a value > " + std::to_string(lo));
  return parsed;
}

BenchCliOptions parse(const std::vector<std::string>& args) {
  BenchCliOptions options;
  const auto value = [&](std::size_t& i, const std::string& flag) -> const std::string& {
    require(i + 1 < args.size(), flag + " expects a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--out") {
      options.out = value(i, arg);
    } else if (arg == "--baseline") {
      options.baseline = value(i, arg);
    } else if (arg == "--threshold") {
      options.threshold = parse_double(arg, value(i, arg), 0.0);
    } else if (arg == "--repeats") {
      options.repeats = static_cast<int>(parse_int(arg, value(i, arg), 1, 1000));
    } else if (arg == "--filter") {
      options.filter = value(i, arg);
    } else if (arg == "--jobs") {
      options.jobs = static_cast<int>(parse_int(arg, value(i, arg), 1, 4096));
    } else if (arg == "--write-baseline") {
      options.write_baseline = true;
    } else if (arg == "--force") {
      options.force = true;
    } else if (arg == "--trace-out") {
      options.trace_out = value(i, arg);
    } else if (arg == "--list") {
      options.list = true;
    } else {
      throw Error("unknown option '" + arg + "' (see --help)");
    }
  }
  return options;
}

/// One pinned workload. The body runs the measured work; on the metrics
/// pass it also fills `metrics` with the deterministic counters of that
/// run (most bodies just wrap themselves in an ActiveScope).
struct Workload {
  std::string name;
  std::function<void(obs::Registry& metrics)> body;
};

RejectionProblem scenario(int task_count, double load, double resolution, std::uint64_t seed) {
  const std::unique_ptr<PowerModel> model = make_model_by_name("xscale");
  ScenarioConfig config;
  config.task_count = task_count;
  config.load = load;
  config.resolution = resolution;
  config.seed = seed;
  return make_scenario(config, *model);
}

std::vector<Workload> build_workloads(int jobs) {
  std::vector<Workload> workloads;
  // Instances are built once, outside the timed region, and shared across
  // runs; every solver is const and instance-independent, so repeated solves
  // are pure re-execution.
  const auto solver_workload = [&](std::string name, std::shared_ptr<RejectionProblem> problem,
                                   std::shared_ptr<const RejectionSolver> solver) {
    workloads.push_back({std::move(name), [problem, solver](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           solver->solve(*problem);
                         }});
  };

  solver_workload("greedy_density_n2048",
                  std::make_shared<RejectionProblem>(scenario(2048, 1.3, 4000.0, 11)),
                  std::make_shared<DensityGreedySolver>());
  solver_workload("greedy_local_search_n128",
                  std::make_shared<RejectionProblem>(scenario(128, 1.2, 2000.0, 12)),
                  std::make_shared<MarginalGreedySolver>());
  solver_workload("exact_dp_n24_cap16k",
                  std::make_shared<RejectionProblem>(scenario(24, 1.25, 16000.0, 13)),
                  std::make_shared<ExactDpSolver>());
  solver_workload("fptas_eps0.05_n48",
                  std::make_shared<RejectionProblem>(scenario(48, 1.2, 3000.0, 14)),
                  std::make_shared<FptasSolver>(0.05));
  solver_workload("exhaustive_n14",
                  std::make_shared<RejectionProblem>(scenario(14, 1.3, 800.0, 15)),
                  std::make_shared<ExhaustiveSolver>());

  {
    const auto problem = std::make_shared<RejectionProblem>(scenario(2048, 1.4, 4000.0, 16));
    workloads.push_back({"lower_bound_n2048", [problem](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           fractional_lower_bound(*problem);
                         }});
  }

  {
    // Many-core scale-up pair: one m=64 / n=10^4 instance (per-PE load
    // 0.75) solved by the toy-scale global greedy and by the partitioned
    // scale solver. The greedy probes all 64 processors per task across its
    // placement and improvement passes; mp-scale places in O(n log m) and
    // runs one exact DP per PE. The _greedy/_scale speedup line is the
    // headline number of the many-core story.
    const std::unique_ptr<PowerModel> model = make_model_by_name("xscale");
    ScenarioConfig config;
    config.task_count = 10000;
    config.load = 0.75 * 64;
    config.resolution = 10000.0;  // generator floor: >= 1 cycle per task
    config.processor_count = 64;
    config.seed = 19;
    const auto problem = std::make_shared<RejectionProblem>(make_scenario(config, *model));
    solver_workload("mp_scale_m64_greedy", problem, std::make_shared<MultiProcGreedySolver>());
    solver_workload("mp_scale_m64_scale", problem, std::make_shared<MultiProcScaleSolver>());
  }

  // A miniature R1-style comparison sweep: the full point x instance x
  // algorithm grid through the parallel harness. Metrics come from the
  // merged AlgoStats registries (deterministic at any --jobs). A
  // main-thread scope around the call would see them too, whichever
  // threads ran the cells, since the harness folds them into its caller's
  // registry; it would also see the pool's job-dependent parallel.* rows.
  workloads.push_back({"harness_r1_mini", [jobs](obs::Registry& metrics) {
                         const ProblemFactory factory = [](std::uint64_t seed) {
                           return scenario(12, 1.2, 1500.0, seed);
                         };
                         std::vector<std::unique_ptr<RejectionSolver>> lineup;
                         lineup.push_back(std::make_unique<DensityGreedySolver>());
                         lineup.push_back(std::make_unique<MarginalGreedySolver>());
                         lineup.push_back(std::make_unique<FptasSolver>(0.1));
                         const std::vector<AlgoStats> stats = run_comparison(
                             factory, lineup,
                             [](const RejectionProblem& p) { return fractional_lower_bound(p); },
                             /*instances=*/8, /*seed0=*/1, jobs);
                         for (const AlgoStats& s : stats) metrics.merge(s.metrics);
                       }});

  // Sweep-throughput pairs: the same grid of sweep points solved cold
  // (per-point, no reuse) and warm (through the sweep-aware caching layer).
  // The _cold/_warm medians are the before/after evidence for the solve
  // reuse; the warm runs' dp.warm_starts / cache.energy_* metrics prove the
  // reuse is actually happening rather than the workload being trivial.
  {
    // Capacity sweep: one task set solved by the exact DP at 16 capacities.
    // Warm fills the knapsack table once at the largest capacity. The small
    // penalty scale makes rejection cheap, so the optimum sits at a small
    // accepted load and the select sweep's energy early-exit fires quickly —
    // the energy evaluations (identical work in warm and cold) then stay
    // small next to the table fill this pair measures.
    const auto base = [] {
      const std::unique_ptr<PowerModel> model = make_model_by_name("xscale");
      ScenarioConfig config;
      config.task_count = 256;
      config.load = 1.3;
      config.resolution = 12000.0;
      config.penalty_scale = 0.01;
      config.seed = 21;
      return std::make_shared<RejectionProblem>(make_scenario(config, *model));
    }();
    std::vector<double> factors;
    for (int f = 0; f < 16; ++f) factors.push_back(0.4 + 0.04 * f);
    const auto points =
        std::make_shared<std::vector<RejectionProblem>>(make_capacity_sweep(*base, factors));
    workloads.push_back({"sweep_dp_cap16_cold", [points](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           const ExactDpSolver solver;
                           for (const RejectionProblem& point : *points) solver.solve(point);
                         }});
    workloads.push_back({"sweep_dp_cap16_warm", [points](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           std::vector<const RejectionProblem*> group;
                           group.reserve(points->size());
                           for (const RejectionProblem& point : *points) group.push_back(&point);
                           ExactDpSolver().solve_sweep(group);
                         }});
  }
  {
    // Budget sweep: one budgeted instance solved at 16 budgets. Warm fills
    // the table once and shares one energy memo across the per-budget
    // binary searches.
    const auto base = std::make_shared<RejectionProblem>(scenario(160, 1.3, 10000.0, 22));
    const auto problem = std::make_shared<BudgetedProblem>(
        BudgetedProblem{base->tasks(), base->curve(), base->work_per_cycle(), 1.0});
    const auto budgets = std::make_shared<std::vector<double>>();
    const Cycles cap = std::min(base->cycle_capacity(), base->tasks().total_cycles());
    for (int b = 0; b < 16; ++b) {
      const double fill = 0.25 + 0.05 * b;
      budgets->push_back(
          base->energy_of_cycles(static_cast<Cycles>(static_cast<double>(cap) * fill)));
    }
    workloads.push_back({"sweep_budgeted_b16_cold", [problem, budgets](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           BudgetedProblem local = *problem;
                           for (const double budget : *budgets) {
                             local.energy_budget = budget;
                             solve_budgeted_dp(local);
                           }
                         }});
    workloads.push_back({"sweep_budgeted_b16_warm", [problem, budgets](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           solve_budgeted_dp_sweep(*problem, *budgets);
                         }});
  }
  {
    // Harness-level capacity sweep: every instance carries one task set
    // across 8 capacity points, so the warm run routes each instance through
    // one solve_sweep; the cold run solves every cell on its own.
    const auto harness_sweep = [jobs](const BatchOptions& batch, obs::Registry& metrics) {
      std::vector<ProblemFactory> factories;
      for (int f = 0; f < 8; ++f) {
        const double factor = 0.65 + 0.05 * f;
        factories.push_back([factor](std::uint64_t seed) {
          const RejectionProblem base = scenario(24, 1.25, 4000.0, seed);
          const std::vector<RejectionProblem> point = make_capacity_sweep(base, {factor});
          return point.front();
        });
      }
      std::vector<std::unique_ptr<RejectionSolver>> lineup;
      lineup.push_back(std::make_unique<ExactDpSolver>());
      lineup.push_back(std::make_unique<MarginalGreedySolver>());
      const auto stats = run_comparison_batch(
          factories, lineup,
          [](const RejectionProblem& p) { return fractional_lower_bound(p); },
          /*instances=*/4, /*seed0=*/1, jobs, batch);
      for (const auto& point : stats) {
        for (const AlgoStats& s : point) metrics.merge(s.metrics);
      }
    };
    workloads.push_back({"harness_cap_sweep_cold", [harness_sweep](obs::Registry& metrics) {
                           BatchOptions batch;
                           batch.sweep_reuse = false;
                           harness_sweep(batch, metrics);
                         }});
    workloads.push_back({"harness_cap_sweep_warm", [harness_sweep](obs::Registry& metrics) {
                           harness_sweep(BatchOptions{}, metrics);
                         }});
  }

  {
    // Serve-mode admission stream: one pinned op sequence (~70% admit, ~30%
    // remove; membership decided by the rng alone, never by verdicts, so
    // both runs replay the identical stream) against the incremental
    // DeltaSolver (warm) and against a full cold exact-DP solve of the
    // resident set per request (cold). The warm run also records
    // admissions/sec and a p99 per-request latency from a log2 histogram.
    struct ServeOp {
      bool admit = true;
      int id = 0;
      Cycles cycles = 0;
      double penalty = 0.0;
    };
    const auto ops = std::make_shared<std::vector<ServeOp>>();
    {
      Rng rng(61);
      std::vector<int> resident;
      int next_id = 1;
      for (int i = 0; i < 400; ++i) {
        if (resident.empty() || rng.uniform() < 0.7) {
          const int id = next_id++;
          resident.push_back(id);
          ops->push_back({true, id, rng.uniform_int(50, 1500), rng.uniform(0.05, 3.0)});
        } else {
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(resident.size()) - 1));
          ops->push_back({false, resident[at], 0, 0.0});
          resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(at));
        }
      }
    }
    const auto serve_curve = std::make_shared<EnergyCurve>(
        *make_model_by_name("xscale"), 1.0, IdleDiscipline::kDormantEnable);
    const double serve_wpc = serve_curve->model().max_speed() / 2000.0;
    workloads.push_back({"serve_admissions_cold", [ops, serve_curve,
                                                   serve_wpc](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           std::vector<FrameTask> resident;
                           const ExactDpSolver solver;
                           for (const ServeOp& op : *ops) {
                             if (op.admit) {
                               resident.push_back({op.id, op.cycles, op.penalty});
                             } else {
                               for (std::size_t i = 0; i < resident.size(); ++i) {
                                 if (resident[i].id == op.id) {
                                   resident.erase(resident.begin() +
                                                  static_cast<std::ptrdiff_t>(i));
                                   break;
                                 }
                               }
                             }
                             solver.solve(RejectionProblem(FrameTaskSet(resident), *serve_curve,
                                                           serve_wpc, 1));
                           }
                         }});
    workloads.push_back({"serve_admissions_warm", [ops, serve_curve,
                                                   serve_wpc](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           DeltaSolver delta(*serve_curve, serve_wpc);
                           for (const ServeOp& op : *ops) {
                             if (op.admit) {
                               delta.admit({op.id, op.cycles, op.penalty});
                             } else {
                               delta.remove(op.id);
                             }
                           }
                         }});
  }

  // Scalar-vs-dispatched pairs: the same body once under the forced-scalar
  // kernel table and once under the backend runtime dispatch would pick.
  // ScopedBackend is a thread-local override, so these bodies must run
  // entirely on the calling thread (never through the harness pool).
  const simd::Backend dispatched = simd::detect_backend();
  const auto simd_pair = [&](const std::string& stem,
                             std::function<void(obs::Registry&)> body) {
    workloads.push_back({stem + "_scalar", [body](obs::Registry& metrics) {
                           simd::ScopedBackend forced(simd::Backend::kScalar);
                           body(metrics);
                         }});
    workloads.push_back({stem + "_simd", [body, dispatched](obs::Registry& metrics) {
                           simd::ScopedBackend forced(dispatched);
                           body(metrics);
                         }});
  };

  // Kernel microbenchmarks: the hot loops in isolation, big enough rows that
  // the dispatch overhead vanishes.
  simd_pair("kernel_relax_f64", [](obs::Registry&) {
    constexpr std::size_t kWidth = 1 << 15;
    std::vector<double> row(kWidth, -std::numeric_limits<double>::infinity());
    row[0] = 0.0;
    std::vector<std::uint64_t> take((kWidth + 63) / 64, 0);
    const simd::KernelTable& table = simd::kernels();
    for (std::size_t t = 0; t < 64; ++t) {
      const std::size_t shift = 97 * t + 31;
      table.relax_desc_f64(row.data(), take.data(), shift, shift, kWidth - 1,
                           1.0 + static_cast<double>(t));
    }
  });
  simd_pair("kernel_relax_i64", [](obs::Registry&) {
    constexpr std::size_t kWidth = 1 << 15;
    std::vector<std::int64_t> rej(kWidth, -1);
    rej[0] = 0;
    std::vector<double> payload(kWidth, 0.0);
    std::vector<std::uint64_t> take((kWidth + 63) / 64, 0);
    const simd::KernelTable& table = simd::kernels();
    for (std::size_t t = 0; t < 64; ++t) {
      const std::size_t shift = 89 * t + 29;
      table.relax_desc_i64(rej.data(), payload.data(), take.data(), shift, shift, kWidth - 1,
                           static_cast<std::int64_t>(t) + 3, 0.5 + static_cast<double>(t));
    }
  });
  {
    // E over a discrete (table5) curve, one energy() call per load: the
    // closed-form body reading the lower hull, which uses no SIMD kernel.
    const std::unique_ptr<PowerModel> model = make_model_by_name("table5");
    const auto curve = std::make_shared<EnergyCurve>(*model, 1.0,
                                                     IdleDiscipline::kDormantEnable);
    const double wpc = 1.0 / 4000.0;
    const auto cap = static_cast<Cycles>(curve->max_workload() / wpc * (1.0 - 1e-9));
    const auto cycles = std::make_shared<std::vector<Cycles>>();
    Rng rng(23);
    for (int i = 0; i < 16384; ++i) cycles->push_back(rng.uniform_int(0, cap));
    workloads.push_back({"energy_table5_per_load", [curve, cycles, wpc](obs::Registry&) {
                           std::vector<double> out(cycles->size());
                           for (std::size_t i = 0; i < out.size(); ++i) {
                             out[i] = curve->energy(wpc * static_cast<double>((*cycles)[i]));
                           }
                         }});
  }

  // End-to-end scalar-vs-dispatched sweeps mirroring the R1 (load), R2
  // (penalty) and R14 (budgeted) evaluation grids. Instances are prebuilt so
  // the pair measures solving, not generation.
  {
    const auto r1 = std::make_shared<std::vector<RejectionProblem>>();
    for (const double load : {0.8, 1.2, 1.6, 2.0}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        r1->push_back(scenario(48, load, 3000.0, seed));
      }
    }
    simd_pair("r1_load_sweep", [r1](obs::Registry& metrics) {
      obs::ActiveScope scope(metrics);
      const DensityGreedySolver greedy;
      const FptasSolver fptas(0.1);
      for (const RejectionProblem& problem : *r1) {
        greedy.solve(problem);
        fptas.solve(problem);
      }
    });
  }
  {
    const auto r2 = std::make_shared<std::vector<RejectionProblem>>();
    const std::unique_ptr<PowerModel> model = make_model_by_name("xscale");
    for (const double penalty_scale : {0.1, 0.3, 1.0, 3.0}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        ScenarioConfig config;
        config.task_count = 64;
        config.load = 1.4;
        config.resolution = 2500.0;
        config.penalty_scale = penalty_scale;
        config.seed = seed;
        r2->push_back(make_scenario(config, *model));
      }
    }
    simd_pair("r2_penalty_sweep", [r2](obs::Registry& metrics) {
      obs::ActiveScope scope(metrics);
      const MarginalGreedySolver greedy;
      const FptasSolver fptas(0.1);
      for (const RejectionProblem& problem : *r2) {
        greedy.solve(problem);
        fptas.solve(problem);
      }
    });
  }
  {
    // R14 on the discrete model, so the budget sweep's binary searches also
    // evaluate the discrete curve end to end.
    const std::unique_ptr<PowerModel> model = make_model_by_name("table5");
    ScenarioConfig config;
    config.task_count = 96;
    config.load = 1.3;
    config.resolution = 8000.0;
    config.seed = 31;
    const auto base = std::make_shared<RejectionProblem>(make_scenario(config, *model));
    const auto problem = std::make_shared<BudgetedProblem>(
        BudgetedProblem{base->tasks(), base->curve(), base->work_per_cycle(), 1.0});
    const auto budgets = std::make_shared<std::vector<double>>();
    const Cycles cap = std::min(base->cycle_capacity(), base->tasks().total_cycles());
    for (int b = 0; b < 12; ++b) {
      const double fill = 0.3 + 0.055 * b;
      budgets->push_back(
          base->energy_of_cycles(static_cast<Cycles>(static_cast<double>(cap) * fill)));
    }
    simd_pair("r14_budget_sweep", [problem, budgets](obs::Registry& metrics) {
      obs::ActiveScope scope(metrics);
      BudgetedProblem local = *problem;
      for (const double budget : *budgets) {
        local.energy_budget = budget;
        solve_budgeted_dp(local);
      }
    });
  }

  {
    // Stochastic reclamation sweep: one R18-style point — greedy admission,
    // then matched seeded trajectories through the full six-policy lineup on
    // the continuous backend and a 5-level ladder. Covers the whole
    // stochastic engine (draws, deferral policies, two-speed emulation) in
    // one deterministic workload.
    workloads.push_back({"stochastic_sweep_r18", [jobs](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           const std::unique_ptr<PowerModel> model = make_model_by_name("xscale");
                           StochasticSweepConfig config;
                           config.scenario.task_count = 16;
                           config.scenario.load = 1.2;
                           config.scenario.resolution = 2000.0;
                           config.solver = "greedy";
                           config.instances = 10;
                           config.trajectories = 16;
                           config.seed0 = 71;
                           config.trajectory_seed = 72;
                           config.distribution.kind = CycleDistribution::kUniform;
                           config.distribution.ratio_lo = 0.3;
                           config.distribution.ratio_hi = 0.9;
                           for (const int ladder_levels : {0, 5}) {
                             config.ladder_levels = ladder_levels;
                             run_stochastic_sweep(config, *model, jobs);
                           }
                         }});
  }

  {
    PeriodicWorkloadConfig config;
    config.task_count = 32;
    config.total_rate = 0.6;
    Rng rng(17);
    const auto tasks = std::make_shared<PeriodicTaskSet>(generate_periodic_tasks(config, rng));
    const std::unique_ptr<PowerModel> model = make_model_by_name("xscale");
    const auto curve = std::make_shared<EnergyCurve>(*model, 1.0, IdleDiscipline::kDormantEnable,
                                                     SleepParams{});
    const double speed = model->max_speed();
    workloads.push_back({"edf_sim_n32", [tasks, curve, speed](obs::Registry& metrics) {
                           obs::ActiveScope scope(metrics);
                           EdfSimConfig config_sim;
                           config_sim.speed = speed;
                           config_sim.procrastinate = true;
                           simulate_edf(*tasks, {}, config_sim, *curve);
                         }});
  }
  return workloads;
}

obs::BenchWorkloadResult run_workload(const Workload& workload, int repeats) {
  obs::BenchWorkloadResult result;
  result.name = workload.name;

  // Warmup doubles as the metrics pass: deterministic counters are
  // identical on every run, so collecting them outside the timed loop keeps
  // the measured runs free of registry churn.
  obs::Registry metrics;
  workload.body(metrics);
  for (const obs::MetricRow& row : obs::report_rows(metrics, /*include_timers=*/false)) {
    result.metrics.emplace_back(row.name, row.numeric);
  }

  obs::Registry scratch;
  for (int r = 0; r < repeats; ++r) {
    scratch.clear();
    const auto start = std::chrono::steady_clock::now();
    workload.body(scratch);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    result.runs_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  std::vector<std::uint64_t> sorted = result.runs_ns;
  std::sort(sorted.begin(), sorted.end());
  result.median_ns = sorted[sorted.size() / 2];
  return result;
}

int run(const BenchCliOptions& options) {
  std::vector<Workload> workloads = build_workloads(options.jobs);
  if (!options.filter.empty()) {
    std::erase_if(workloads, [&](const Workload& w) {
      return w.name.find(options.filter) == std::string::npos;
    });
    require(!workloads.empty(), "--filter '" + options.filter + "' matches no workload");
  }
  if (options.list) {
    for (const Workload& w : workloads) std::cout << w.name << "\n";
    return 0;
  }

  if (!options.trace_out.empty()) obs::set_trace_enabled(true);

  obs::BenchReport report;
  report.jobs = options.jobs;
  report.repeats = options.repeats;
  report.backend = std::string(simd::to_string(simd::active_backend()));
  std::cout << "simd backend: " << report.backend << "\n";
  for (const Workload& workload : workloads) {
    obs::BenchWorkloadResult result = run_workload(workload, options.repeats);
    std::cout << result.name << ": median " << result.median_ns / 1000 << " us over "
              << options.repeats << " runs\n";
    report.workloads.push_back(std::move(result));
  }

  // Before/after pairs: _cold/_warm measures the sweep-caching layer,
  // _scalar/_simd the vector kernels, _greedy/_scale the many-core solver.
  // Report the speedup of each pair.
  const auto print_speedups = [&report](const std::string& before, const std::string& after) {
    for (const obs::BenchWorkloadResult& slow : report.workloads) {
      if (slow.name.size() <= before.size() ||
          slow.name.compare(slow.name.size() - before.size(), before.size(), before) != 0) {
        continue;
      }
      const std::string stem = slow.name.substr(0, slow.name.size() - before.size());
      const obs::BenchWorkloadResult* fast = report.find(stem + after);
      if (fast == nullptr || fast->median_ns == 0) continue;
      std::cout << "speedup " << stem << ": " << after.substr(1) << " "
                << static_cast<double>(slow.median_ns) / static_cast<double>(fast->median_ns)
                << "x faster than " << before.substr(1) << " (" << slow.median_ns / 1000
                << " us -> " << fast->median_ns / 1000 << " us)\n";
    }
  };
  print_speedups("_cold", "_warm");
  print_speedups("_scalar", "_simd");
  print_speedups("_greedy", "_scale");

  if (!options.trace_out.empty()) {
    obs::write_chrome_trace_file(options.trace_out);
    std::cout << "trace: " << obs::trace_event_count() << " event(s) -> " << options.trace_out
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }

  if (options.write_baseline) {
    require(!options.baseline.empty(), "--write-baseline: no baseline path configured");
    if (std::filesystem::exists(options.baseline)) {
      const obs::BenchReport previous = obs::read_bench_report_file(options.baseline);
      // Refuse to swap the recorded config out from under future
      // comparisons: wall times measured under a different kernel backend or
      // thread count are not comparable, so silently replacing the baseline
      // would make every later regression check meaningless.
      require(previous.backend == report.backend,
              "--write-baseline: existing baseline was recorded with backend '" +
                  previous.backend + "' but this run used '" + report.backend +
                  "'; delete the baseline file to re-record it under this backend");
      require(previous.jobs == report.jobs,
              "--write-baseline: existing baseline was recorded with --jobs " +
                  std::to_string(previous.jobs) + " but this run used --jobs " +
                  std::to_string(report.jobs) +
                  "; delete the baseline file to re-record it at this job count");
      // A refresh must not silently shrink coverage: a workload present in
      // the old baseline but absent from this run (a --filter run, or a
      // renamed workload) would vanish from every later regression check.
      std::size_t dropped = 0;
      for (const obs::BenchWorkloadResult& old : previous.workloads) {
        if (report.find(old.name) == nullptr) {
          std::cout << "DROPPED " << old.name << ": in the old baseline but not in this run\n";
          ++dropped;
        }
      }
      require(dropped == 0 || options.force,
              "--write-baseline: this run is missing " + std::to_string(dropped) +
                  " workload(s) present in the baseline (listed above); rerun without "
                  "--filter, or pass --force to drop them from the baseline");
      // Show what the refresh actually rewrites, so a "routine" refresh that
      // hides a real slowdown is visible in the log.
      for (const obs::BenchWorkloadResult& current : report.workloads) {
        const obs::BenchWorkloadResult* old = previous.find(current.name);
        if (old == nullptr) {
          std::cout << "baseline add " << current.name << ": " << current.median_ns / 1000
                    << " us (new workload)\n";
          continue;
        }
        if (old->median_ns == 0) continue;
        const double ratio =
            static_cast<double>(current.median_ns) / static_cast<double>(old->median_ns);
        if (ratio < 0.95 || ratio > 1.05) {
          std::cout << "baseline change " << current.name << ": " << old->median_ns / 1000
                    << " us -> " << current.median_ns / 1000 << " us (" << ratio << "x)\n";
        }
      }
    }
    obs::write_bench_report_file(options.baseline, report);
    std::cout << "baseline written: " << options.baseline << "\n";
    return 0;
  }

  obs::write_bench_report_file(options.out, report);
  std::cout << "report written: " << options.out << "\n";

  if (options.baseline.empty() || !std::filesystem::exists(options.baseline)) {
    std::cout << "no baseline at '" << options.baseline
              << "' — bootstrap run, nothing to compare (record one with --write-baseline)\n";
    return 0;
  }

  obs::BenchReport baseline = obs::read_bench_report_file(options.baseline);
  if (!options.filter.empty()) {
    // A filtered run only measured a subset; keep the comparison to the
    // same subset so the unmeasured workloads don't read as "missing".
    std::erase_if(baseline.workloads, [&](const obs::BenchWorkloadResult& w) {
      return w.name.find(options.filter) == std::string::npos;
    });
  }
  // The metric gate needs metrics that can repeat the baseline's: a build
  // without RETASK_OBS records none, and another --jobs count moves the
  // parallel.* counters and the work pool threads do outside a main-thread
  // scope. Such a run is held to the time gate alone.
  std::string metrics_skipped;
#if !defined(RETASK_OBS_ENABLED) || !RETASK_OBS_ENABLED
  metrics_skipped = "this build has RETASK_OBS=OFF";
#endif
  if (metrics_skipped.empty() && baseline.jobs != report.jobs) {
    metrics_skipped = "the baseline was recorded at --jobs " + std::to_string(baseline.jobs) +
                      ", this run used --jobs " + std::to_string(report.jobs);
  }
  if (!metrics_skipped.empty()) {
    std::cout << "note: metrics not compared: " << metrics_skipped << "\n";
    for (obs::BenchReport* side : {&report, &baseline}) {
      for (obs::BenchWorkloadResult& workload : side->workloads) workload.metrics.clear();
    }
  }
  const obs::BenchComparison comparison =
      obs::compare_bench_reports(report, baseline, options.threshold);
  for (const obs::BenchRegression& regression : comparison.regressions) {
    std::cout << "REGRESSION " << regression.name << ": " << regression.current_ns / 1000
              << " us vs baseline " << regression.baseline_ns / 1000 << " us ("
              << regression.ratio << "x > " << options.threshold << "x)\n";
  }
  for (const std::string& name : comparison.missing) {
    std::cout << "MISSING " << name << ": in baseline but not in this run\n";
  }
  for (const obs::BenchRegression& improvement : comparison.improvements) {
    std::cout << "IMPROVEMENT " << improvement.name << ": " << improvement.current_ns / 1000
              << " us vs baseline " << improvement.baseline_ns / 1000 << " us ("
              << 1.0 / improvement.ratio << "x faster)\n";
  }
  if (!comparison.improvements.empty()) {
    std::cout << "note: " << comparison.improvements.size()
              << " workload(s) ran significantly faster than the recorded baseline —\n"
                 "      the baseline is stale and masks regressions up to the same size;\n"
                 "      consider refreshing it with --write-baseline\n";
  }
  for (const std::string& name : comparison.added) {
    std::cout << "note: new workload " << name << " (not in baseline)\n";
  }
  const auto metric_value = [](const std::optional<double>& value) {
    if (!value) return std::string("(absent)");
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << *value;
    return os.str();
  };
  for (const obs::BenchMetricDrift& drift : comparison.metric_drift) {
    std::cout << "METRIC DRIFT " << drift.workload << "/" << drift.metric << ": "
              << metric_value(drift.baseline) << " -> " << metric_value(drift.current) << "\n";
  }
  if (!comparison.metric_drift.empty()) {
    std::cout << "note: " << comparison.metric_drift.size()
              << " deterministic metric(s) differ from the baseline — the workloads did\n"
                 "      different work; if that is intended, refresh the baseline with\n"
                 "      --write-baseline and say which counters moved\n";
  }
  if (!comparison.ok()) return 1;
  std::cout << "ok: " << report.workloads.size() << " workload(s) within " << options.threshold
            << "x of baseline" << (metrics_skipped.empty() ? ", metrics equal" : "") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const BenchCliOptions options = parse({argv + 1, argv + argc});
    if (options.help) {
      std::cout << kUsage;
      return 0;
    }
    set_default_jobs(options.jobs);
    return run(options);
  } catch (const retask::Error& error) {
    std::cerr << "error: " << error.what() << "\n\n" << kUsage;
    return 2;
  }
}
