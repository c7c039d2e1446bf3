#include "fig.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>

#include "obs_read.hpp"
#include "proc.hpp"
#include "retask/cache/energy_memo.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/parallel.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/algorithm_registry.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/workload.hpp"
#include "retask/power/polynomial_power.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using retask::AlgoStats;
using retask::RejectionProblem;

/// Fig. R1's load axis.
const std::vector<double> kLoads = {0.4, 0.8, 1.0, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2};

/// The capacity axis: 16 points from 0.5x to 1.25x of the base capacity.
std::vector<double> capacity_factors() {
  std::vector<double> factors;
  for (int f = 0; f < 16; ++f) factors.push_back(0.5 + 0.05 * f);
  return factors;
}

/// Timers a lineup solve records at its top level: they never nest in one
/// another as long as every lockstep chunk is full (the family's instances
/// per call are a multiple of the lane count).
const char* const kSolveTimers[] = {
    "batch.lockstep_ns",         "batch.fused_sweep_ns",    "exact_dp.solve_ns",
    "exact_dp.solve_sweep_ns",   "fptas.solve_ns",          "greedy.density_solve_ns",
    "greedy.marginal_solve_ns"};

double solve_timers_ns(const retask::obs::Registry& registry) {
  double total = 0.0;
  for (const char* name : kSolveTimers) total += obs_timer_ns(registry, name);
  return total;
}

/// The core layer an algorithm of the lineup belongs to ("" for the
/// untimed baselines ALL-ACCEPT and RAND, whose time stays in exp.harness).
std::string core_layer(const std::string& algorithm) {
  if (algorithm == "OPT-DP") return "core.exact_dp_ns";
  if (algorithm.rfind("FPTAS", 0) == 0) return "core.fptas_ns";
  if (algorithm.find("GREEDY") != std::string::npos) return "core.greedy_ns";
  return "";
}

void push_bits(std::vector<double>& out, double value) {
  // Compared bitwise, so a NaN or -0.0 cannot hide a difference.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  out.push_back(static_cast<double>(bits >> 32));
  out.push_back(static_cast<double>(bits & 0xffffffffu));
}

}  // namespace

FigWorkload::FigWorkload(FigKind kind, std::uint64_t seed, FigSizes sizes)
    : kind_(kind), sizes_(sizes) {
  if (sizes.per_call < 1 || sizes.family < sizes.per_call || sizes.family % sizes.per_call != 0) {
    throw std::invalid_argument("FigWorkload: family must be a positive multiple of per_call");
  }
  Tracer& tracer = Tracer::instance();
  factory_layer_ = tracer.layer("exp.factory");
  reference_layer_ = tracer.layer("exp.reference");

  const retask::PolynomialPowerModel model = retask::PolynomialPowerModel::xscale();
  const auto family = static_cast<std::size_t>(sizes.family);
  family_.resize(family);
  if (kind == FigKind::kLoad) {
    // Fig. R1 as bench_fig_r1_load_sweep configures it: n = 12 on one
    // XScale processor, resolution 1500, uniform penalties at scale 1.
    lineup_ = retask::standard_uniproc_lineup();
    points_ = kLoads.size();
    for (std::size_t k = 0; k < family; ++k) {
      family_[k].reserve(points_);
      for (const double load : kLoads) {
        retask::ScenarioConfig config;
        config.task_count = 12;
        config.load = load;
        config.resolution = 1500.0;
        config.penalty_scale = 1.0;
        config.seed = retask::Rng::stream_seed(seed, k);
        family_[k].push_back(retask::make_scenario(config, model));
      }
    }
  } else {
    // The harness_cap_sweep shape: one n = 24 task set per instance at
    // load 1.25 and resolution 4000, swept over 16 capacities.
    lineup_.push_back(std::make_unique<retask::ExactDpSolver>());
    lineup_.push_back(std::make_unique<retask::MarginalGreedySolver>());
    const std::vector<double> factors = capacity_factors();
    points_ = factors.size();
    for (std::size_t k = 0; k < family; ++k) {
      retask::ScenarioConfig config;
      config.task_count = 24;
      config.load = 1.25;
      config.resolution = 4000.0;
      config.seed = retask::Rng::stream_seed(seed, k);
      family_[k] = retask::make_capacity_sweep(retask::make_scenario(config, model), factors);
    }
  }
  bounds_.resize(family);
  for (std::size_t k = 0; k < family; ++k) {
    for (const RejectionProblem& problem : family_[k]) {
      bounds_[k].push_back(retask::fractional_lower_bound(problem));
    }
  }
}

std::size_t FigWorkload::calls_per_pass() const {
  return static_cast<std::size_t>(sizes_.family / sizes_.per_call);
}

std::uint64_t FigWorkload::cells_per_call() const {
  return static_cast<std::uint64_t>(points_) * static_cast<std::uint64_t>(sizes_.per_call) *
         lineup_.size();
}

std::vector<double> FigWorkload::bound_sums(std::size_t call) const {
  const std::size_t first = (call % calls_per_pass()) * static_cast<std::size_t>(sizes_.per_call);
  std::vector<double> sums(points_, 0.0);
  for (std::size_t k = first; k < first + static_cast<std::size_t>(sizes_.per_call); ++k) {
    for (std::size_t point = 0; point < points_; ++point) sums[point] += bounds_[k][point];
  }
  return sums;
}

double FigWorkload::reference_value(const RejectionProblem& problem) {
  const SpanScope span(reference_layer_, request_);
  // The reference's own solver metrics stay out of the lineup's registries.
  const retask::obs::ActiveScope scope(reference_metrics_, /*fold_into_parent=*/false);
  ++reference_calls_;
  if (kind_ == FigKind::kLoad) return retask::ExactDpSolver().solve(problem).objective();
  return retask::fractional_lower_bound(problem);
}

FigCall FigWorkload::run_call(std::size_t call) {
  return run_call(call, [this](const RejectionProblem& problem) { return reference_value(problem); });
}

FigCall FigWorkload::run_call(std::size_t call, const retask::ReferenceObjective& reference) {
  request_ = call;
  const std::size_t first = (call % calls_per_pass()) * static_cast<std::size_t>(sizes_.per_call);
  std::vector<retask::ProblemFactory> factories;
  factories.reserve(points_);
  for (std::size_t point = 0; point < points_; ++point) {
    factories.push_back([this, first, point](std::uint64_t k) {
      const SpanScope span(factory_layer_, request_);
      return family_[first + k][point];
    });
  }
  retask::BatchOptions batch;
  if (kind_ == FigKind::kLoad) {
    // One grid-wide energy memo per call, as the R1 bench binary shares one per
    // figure: the load sweep keeps the platform fixed across points.
    batch.shared_energy_memo = std::make_shared<retask::EnergyMemo>();
  }
  FigCall out;
  try {
    out.stats = retask::run_comparison_batch(factories, lineup_, reference, sizes_.per_call,
                                             /*seed0=*/0, /*jobs=*/1, batch);
  } catch (const std::exception& error) {
    out.threw = true;
    out.error = error.what();
  }
  return out;
}

OpCount check_fig_call(const FigCall& call, std::size_t per_call, bool exact_reference,
                       const std::vector<double>& bound_sums, const std::vector<double>* expected,
                       std::vector<double>* signature) {
  OpCount ops;
  std::size_t groups = 0;
  for (const auto& point : call.stats) groups += point.size();
  if (call.threw) {
    // Nothing of the call is trustworthy; fail the whole grid it covered.
    ops.add(groups > 0 ? groups * per_call : per_call, false);
    return ops;
  }
  std::vector<double> mine;
  for (std::size_t p = 0; p < call.stats.size(); ++p) {
    for (const AlgoStats& stats : call.stats[p]) {
      bool ok = stats.ratio.count() == per_call && stats.objective.count() == per_call &&
                p < bound_sums.size();
      if (ok) {
        ok = stats.ratio.min() >= 1.0 - 1e-6;
        if (exact_reference && stats.name == "OPT-DP") ok = ok && stats.ratio.max() == 1.0;
        // No solution beats its lower bound, so no sum of them does either.
        const double objectives = stats.objective.mean() * static_cast<double>(per_call);
        ok = ok && objectives >= bound_sums[p] * (1.0 - 1e-6);
      }
      const std::size_t at = mine.size();
      if (stats.ratio.count() > 0) {
        push_bits(mine, stats.ratio.mean());
        push_bits(mine, stats.objective.mean());
        push_bits(mine, stats.acceptance.mean());
      } else {
        mine.insert(mine.end(), 6, -1.0);
      }
      if (expected != nullptr) {
        ok = ok && expected->size() >= at + 6 &&
             std::equal(mine.begin() + static_cast<std::ptrdiff_t>(at), mine.end(),
                        expected->begin() + static_cast<std::ptrdiff_t>(at));
      }
      ops.add(per_call, ok);
    }
  }
  if (signature != nullptr) *signature = std::move(mine);
  return ops;
}

Outcome run_fig(const Options& options) {
  const FigKind kind = options.workload == "fig_load" ? FigKind::kLoad : FigKind::kCapacity;
  FigSizes sizes{256, 8};
  if (kind == FigKind::kCapacity) sizes = FigSizes{32, 4};
  if (options.mini) sizes = FigSizes{8, 4};
  retask::set_default_jobs(1);
  const CpuPin pin;

  Outcome outcome;
  std::vector<double> setup_s;
  std::unique_ptr<FigWorkload> workload;
  do {
    workload.reset();
    setup_s.push_back(
        timed_setup([&] { workload = std::make_unique<FigWorkload>(kind, options.seed, sizes); }));
  } while (repeat_setup(options, setup_s));
  outcome.metrics["setup_s"] = setup_seconds(setup_s);

  const std::size_t pass = workload->calls_per_pass();
  std::vector<std::vector<double>> expected(pass);
  std::vector<char> have_expected(pass, 0);
  double ratio_sum = 0.0;
  double ratio_cells = 0.0;
  std::size_t call = 0;

  Tracer& tracer = Tracer::instance();
  const std::uint32_t harness_layer = tracer.layer("exp.harness");

  // One harness call, checked against the first pass. The span is a no-op
  // unless the tracer is on.
  const auto one_call = [&](std::vector<Unit>& units,
                            std::vector<retask::obs::Registry>* traced_metrics) {
    const std::size_t slot = call % pass;
    const double slowness = host_slowness();
    const std::int64_t start = now_ns();
    FigCall result;
    {
      const SpanScope harness(harness_layer, call);
      result = workload->run_call(call);
    }
    const std::int64_t end = now_ns();
    units.push_back({static_cast<double>(end - start),
                     static_cast<double>(workload->cells_per_call()), slowness});
    std::vector<double> signature;
    const bool first_pass = !have_expected[slot];
    outcome.ops.merge(check_fig_call(result, static_cast<std::size_t>(sizes.per_call),
                                     workload->exact_reference(), workload->bound_sums(call),
                                     first_pass ? nullptr : &expected[slot], &signature));
    if (first_pass && !result.threw) {
      expected[slot] = std::move(signature);
      have_expected[slot] = 1;
      for (const auto& point : result.stats) {
        for (const AlgoStats& stats : point) {
          ratio_sum += stats.ratio.mean() * static_cast<double>(stats.ratio.count());
          ratio_cells += static_cast<double>(stats.ratio.count());
        }
      }
    }
    if (result.threw) std::cerr << "fig: call " << call << " failed: " << result.error << "\n";
    if (traced_metrics != nullptr && !result.threw) {
      for (const auto& point : result.stats) {
        for (std::size_t a = 0; a < point.size(); ++a) (*traced_metrics)[a].merge(point[a].metrics);
      }
    }
    ++call;
  };

  // Untraced phase: every end-to-end figure comes from here.
  const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<Unit> units;
  const std::int64_t start = now_ns();
  double elapsed_s = 0.0;
  do {
    one_call(units, nullptr);
    elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  } while (elapsed_s < untraced_s || call < pass);
  std::string note;
  add_timing_metrics(units, outcome, note);

  if (!options.trace) {
    std::cout << options.workload << ": " << call << " harness calls, "
              << workload->cells_per_call() << " cells each; " << note << "\n";
    outcome.metrics["objective_ratio"] = ratio_cells > 0.0 ? ratio_sum / ratio_cells : 0.0;
    outcome.metrics["peak_rss_mib"] = peak_rss_mib();
    return outcome;
  }

  // Traced phase: spans around the harness call and its callbacks, obs
  // timers and counters from the lineup's per-cell registries.
  const std::uint32_t measure_layer = tracer.layer("exp.unattributed");
  tracer.clear();
  const std::uint64_t references_before = workload->reference_calls();
  std::vector<retask::obs::Registry> traced(workload->algorithms());
  std::vector<Unit> traced_units;
  const std::uint64_t traced_before = outcome.ops.attempted;
  tracer.set_enabled(true);
  const std::int64_t traced_start = now_ns();
  {
    const SpanScope root(measure_layer, 0);
    do {
      one_call(traced_units, &traced);
    } while (now_ns() - traced_start < static_cast<std::int64_t>(options.seconds / 2.0 * 1e9));
  }
  tracer.set_enabled(false);
  const double traced_ops_per_s = timing(traced_units).ops_per_s;

  const LayerTimes times = self_times(tracer.collect(), tracer.layer_names());
  const auto self = [&](const char* layer) {
    const auto it = times.self_ns.find(layer);
    return it == times.self_ns.end() ? 0.0 : it->second;
  };

  retask::obs::Registry lineup;
  std::map<std::string, double> core;
  double select_ns = 0.0;
  double solve_ns = 0.0;
  for (std::size_t a = 0; a < traced.size(); ++a) {
    const retask::obs::Registry& algorithm = traced[a];
    lineup.merge(algorithm);
    const std::string layer = core_layer(workload->lineup()[a]->name());
    if (layer.empty()) continue;
    const double total = solve_timers_ns(algorithm);
    const double select = obs_timer_ns(algorithm, "batch.select_scan_ns");
    core[layer] += total - select;
    select_ns += select;
    solve_ns += total;
  }

  auto& m = outcome.metrics;
  const double harness_self = self("exp.harness") - solve_ns;
  m["exp.harness_ns"] = harness_self;
  m["exp.factory_ns"] = self("exp.factory");
  m["exp.reference_ns"] = self("exp.reference");
  m["exp.reference_calls"] = static_cast<double>(workload->reference_calls() - references_before);
  m["exp.unattributed_ns"] = self("exp.unattributed");
  m["harness.solves"] = static_cast<double>(obs_counter(lineup, "harness.solves"));
  for (const char* layer : {"core.exact_dp_ns", "core.fptas_ns", "core.greedy_ns"}) {
    m[layer] = core.count(layer) != 0 ? core[layer] : 0.0;
  }
  const double touched = static_cast<double>(obs_counter(lineup, "exact_dp.cells_touched"));
  const double skipped = static_cast<double>(obs_counter(lineup, "exact_dp.cells_skipped"));
  m["exact_dp.cells_touched"] = touched;
  m["exact_dp.cells_skipped"] = skipped;
  m["exact_dp.prune_ratio"] = share(skipped, touched + skipped);
  for (const char* counter :
       {"fptas.guess_rounds", "fptas.cells_touched", "greedy.local_search_moves",
        "batch.select_energy_evals", "batch.select_scan_words", "batch.scalar_fallbacks",
        "batch.sweep_fallbacks", "cache.energy_hits", "cache.energy_misses", "dp.warm_starts"}) {
    m[counter] = static_cast<double>(obs_counter(lineup, counter));
  }
  m["batch.lockstep_ns"] = obs_timer_ns(lineup, "batch.lockstep_ns");
  m["batch.fused_sweep_ns"] = obs_timer_ns(lineup, "batch.fused_sweep_ns");
  m["batch.select_scan_ns"] = select_ns;
  const double filled = static_cast<double>(obs_counter(lineup, "batch.lanes_filled"));
  m["batch.lane_utilization"] =
      share(filled, filled + static_cast<double>(obs_counter(lineup, "batch.padding_waste")));
  m["cache.energy_hit_ratio"] =
      share(m["cache.energy_hits"], m["cache.energy_hits"] + m["cache.energy_misses"]);
  const ProcUsage usage = proc_usage();
  m["proc.cpu_s"] = usage.cpu_s;
  m["proc.minor_faults"] = static_cast<double>(usage.minor_faults);
  m["trace.overhead_ratio"] = share(m["ops_per_s"], traced_ops_per_s);

  const auto count = [&](const char* name) { return std::to_string(static_cast<std::uint64_t>(m[name])); };
  LayerTable& table = outcome.layers;
  table.wall_ns = times.root_ns;
  table.residual_name = "exp.unattributed_ns";
  table.residual_ns = m["exp.unattributed_ns"];
  table.rows = {
      {"exp.harness_ns", harness_self,
       "calls=" + std::to_string(traced_units.size()) + " solves=" + count("harness.solves")},
      {"exp.factory_ns", m["exp.factory_ns"], "problems handed out"},
      {"exp.reference_ns", m["exp.reference_ns"], "calls=" + count("exp.reference_calls")},
      {"core.exact_dp_ns", m["core.exact_dp_ns"],
       "cells_touched=" + count("exact_dp.cells_touched") +
           " prune_ratio=" + full_digits(m["exact_dp.prune_ratio"])},
      {"batch.select_scan_ns", select_ns,
       "energy_evals=" + count("batch.select_energy_evals") +
           " scan_words=" + count("batch.select_scan_words") +
           " energy_hit_ratio=" + full_digits(m["cache.energy_hit_ratio"])},
      {"core.fptas_ns", m["core.fptas_ns"], "guess_rounds=" + count("fptas.guess_rounds")},
      {"core.greedy_ns", m["core.greedy_ns"],
       "local_search_moves=" + count("greedy.local_search_moves")},
  };
  m["host.slowness"] = timing(traced_units).slowness;
  scale_times(m, m["host.slowness"]);
  divide_per_op(m, static_cast<double>(outcome.ops.attempted - traced_before));
  std::cout << options.workload << ": traced " << traced_units.size()
            << " harness calls; tracing overhead (untraced ops/s over traced ops/s) = "
            << full_digits(m["trace.overhead_ratio"]) << "\n";
  return outcome;
}

}  // namespace perfbench
