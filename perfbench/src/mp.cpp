#include "mp.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>

#include "obs_read.hpp"
#include "proc.hpp"
#include "retask/common/parallel.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/workload.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

MpWorkload::MpWorkload(std::uint64_t seed, MpSizes sizes)
    : sizes_(sizes), seed_(seed), model_(retask::PolynomialPowerModel::xscale()) {
  Tracer& tracer = Tracer::instance();
  const std::uint32_t generate_layer = tracer.layer("mp.generate");
  const std::uint32_t bound_layer = tracer.layer("mp.bound");
  bounds_.reserve(static_cast<std::size_t>(sizes.family));
  for (std::size_t k = 0; k < static_cast<std::size_t>(sizes.family); ++k) {
    const retask::MpScaleSweepConfig config = config_for(k);
    retask::ScenarioConfig scenario = config.scenario;
    scenario.seed = config.seed0;
    std::unique_ptr<retask::RejectionProblem> problem;
    {
      const SpanScope span(generate_layer, k);
      problem = std::make_unique<retask::RejectionProblem>(retask::make_scenario(scenario, model_));
    }
    const SpanScope span(bound_layer, k);
    bounds_.push_back(retask::multiproc_lower_bound(*problem));
  }
}

retask::MpScaleSweepConfig MpWorkload::config_for(std::size_t k) const {
  // Fig. R19's point shape: per-PE load 0.75, resolution max(1000, n).
  retask::MpScaleSweepConfig config;
  config.scenario.task_count = sizes_.task_count;
  config.scenario.load = 0.75 * sizes_.processors;
  config.scenario.resolution = std::max(1000.0, static_cast<double>(sizes_.task_count));
  config.scenario.penalty_scale = 1.0;
  config.scenario.processor_count = sizes_.processors;
  config.solvers = {"mp-scale"};
  config.instances = 1;
  config.seed0 = retask::Rng::stream_seed(seed_, k % static_cast<std::size_t>(sizes_.family));
  // The bounds were computed at set-up; the sweep still validates.
  config.record_bound_gap = false;
  config.validate = true;
  return config;
}

retask::MpScaleSweepResult MpWorkload::solve(std::size_t k) const {
  return retask::run_mp_scale_sweep(config_for(k), model_, /*jobs=*/1);
}

bool check_mp_solve(bool threw, const retask::MpScaleSweepResult& result, double bound,
                    const double* expected) {
  if (threw || result.solvers.size() != 1 || result.solvers[0].objective.count() != 1) return false;
  const double objective = result.solvers[0].objective.mean();
  if (!(objective >= bound * (1.0 - 1e-6))) return false;
  return expected == nullptr || std::memcmp(expected, &objective, sizeof objective) == 0;
}

Outcome run_mp(const Options& options) {
  const MpSizes sizes = options.mini ? MpSizes{3, 300, 8} : MpSizes{16, 4000, 64};
  retask::set_default_jobs(1);
  const CpuPin pin;
  Tracer& tracer = Tracer::instance();

  Outcome outcome;
  std::vector<double> setup_s;
  std::unique_ptr<MpWorkload> workload;
  do {
    workload.reset();
    // A traced run keeps the spans of its last set-up.
    tracer.clear();
    tracer.set_enabled(options.trace);
    setup_s.push_back(
        timed_setup([&] { workload = std::make_unique<MpWorkload>(options.seed, sizes); }));
    tracer.set_enabled(false);
  } while (repeat_setup(options, setup_s));
  outcome.metrics["setup_s"] = setup_seconds(setup_s);
  const LayerTimes setup_times = self_times(tracer.collect(), tracer.layer_names());
  tracer.clear();

  const std::size_t family = workload->family();
  std::vector<double> first(family, 0.0);
  std::vector<char> have_first(family, 0);
  double ratio_sum = 0.0;
  std::size_t solved = 0;
  const std::uint32_t sweep_layer = tracer.layer("mp.sweep");

  const auto one_solve = [&](std::vector<Unit>& units) {
    const std::size_t k = solved % family;
    retask::MpScaleSweepResult result;
    bool threw = false;
    const double slowness = host_slowness();
    const std::int64_t start = now_ns();
    try {
      const SpanScope span(sweep_layer, solved);
      result = workload->solve(k);
    } catch (const std::exception& error) {
      threw = true;
      std::cerr << "mp_many: instance " << k << " failed: " << error.what() << "\n";
    }
    const std::int64_t end = now_ns();
    units.push_back({static_cast<double>(end - start), 1.0, slowness});
    const bool ok = check_mp_solve(threw, result, workload->bound(k),
                                   have_first[k] ? &first[k] : nullptr);
    outcome.ops.add(1, ok);
    if (ok && !have_first[k]) {
      first[k] = result.solvers[0].objective.mean();
      have_first[k] = 1;
      ratio_sum += first[k] / workload->bound(k);
    }
    ++solved;
  };

  const double untraced_s = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<Unit> units;
  const std::int64_t start = now_ns();
  double elapsed_s = 0.0;
  do {
    one_solve(units);
    elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  } while (elapsed_s < untraced_s || solved < family);
  std::string note;
  add_timing_metrics(units, outcome, note);

  if (!options.trace) {
    std::cout << "mp_many: " << solved << " instances solved (n=" << sizes.task_count
              << ", m=" << sizes.processors << "); " << note << "\n";
    outcome.metrics["objective_ratio"] = ratio_sum / static_cast<double>(family);
    outcome.metrics["peak_rss_mib"] = peak_rss_mib();
    return outcome;
  }

  // Traced phase: one span per sweep call; the solver's phase timers come
  // from the obs registry of this (only) thread.
  const std::uint32_t measure_layer = tracer.layer("mp.unattributed");
  retask::obs::reset_all();
  std::vector<Unit> traced_units;
  tracer.set_enabled(true);
  const std::int64_t traced_start = now_ns();
  {
    const SpanScope root(measure_layer, 0);
    do {
      one_solve(traced_units);
    } while (now_ns() - traced_start < static_cast<std::int64_t>(options.seconds / 2.0 * 1e9));
  }
  tracer.set_enabled(false);
  const retask::obs::Registry obs = retask::obs::global_snapshot();
  const LayerTimes times = self_times(tracer.collect(), tracer.layer_names());
  const auto self = [](const LayerTimes& t, const char* layer) {
    const auto it = t.self_ns.find(layer);
    return it == t.self_ns.end() ? 0.0 : it->second;
  };

  auto& m = outcome.metrics;
  const double partition = obs_timer_ns(obs, "mp.partition_ns");
  const double pe_solve = obs_timer_ns(obs, "mp.pe_solve_ns");
  const double local_search = obs_timer_ns(obs, "mp.local_search_ns");
  const double select = obs_timer_ns(obs, "batch.select_scan_ns");
  m["mp.sweep_ns"] = self(times, "mp.sweep") - partition - pe_solve - local_search;
  m["mp.partition_ns"] = partition;
  m["mp.pe_solve_ns"] = pe_solve - select;
  m["batch.select_scan_ns"] = select;
  m["mp.local_search_ns"] = local_search;
  m["mp.unattributed_ns"] = self(times, "mp.unattributed");
  m["mp.bound_ns"] = self(setup_times, "mp.bound") / static_cast<double>(family);
  for (const char* counter :
       {"mp.move_probes", "mp.moves_applied", "mp.swap_probes", "mp.swaps_applied",
        "mp.probe_misses", "delta.table_adoptions", "batch.table_exports",
        "batch.select_energy_evals", "batch.select_scan_words", "batch.scalar_fallbacks",
        "cache.energy_hits", "cache.energy_misses", "exact_dp.cells_touched",
        "exact_dp.cells_skipped", "serve.delta_hits", "serve.cold_falls"}) {
    m[counter] = static_cast<double>(obs_counter(obs, counter));
  }
  m["batch.lockstep_ns"] = obs_timer_ns(obs, "batch.lockstep_ns");
  m["exact_dp.prune_ratio"] =
      share(m["exact_dp.cells_skipped"], m["exact_dp.cells_touched"] + m["exact_dp.cells_skipped"]);
  const double filled = static_cast<double>(obs_counter(obs, "batch.lanes_filled"));
  m["batch.lane_utilization"] =
      share(filled, filled + static_cast<double>(obs_counter(obs, "batch.padding_waste")));
  m["cache.energy_hit_ratio"] =
      share(m["cache.energy_hits"], m["cache.energy_hits"] + m["cache.energy_misses"]);
  m["serve.cold_fall_ratio"] =
      share(m["serve.cold_falls"], m["serve.cold_falls"] + m["serve.delta_hits"]);
  const ProcUsage usage = proc_usage();
  m["proc.cpu_s"] = usage.cpu_s;
  m["proc.minor_faults"] = static_cast<double>(usage.minor_faults);
  m["trace.overhead_ratio"] =
      share(m["ops_per_s"], timing(traced_units).ops_per_s);

  const auto count = [&](const char* name) {
    return std::to_string(static_cast<std::uint64_t>(m[name]));
  };
  LayerTable& table = outcome.layers;
  table.wall_ns = times.root_ns;
  table.residual_name = "mp.unattributed_ns";
  table.residual_ns = m["mp.unattributed_ns"];
  table.rows = {
      {"mp.sweep_ns", m["mp.sweep_ns"],
       "calls=" + std::to_string(traced_units.size()) + " (instance build, validation)"},
      {"mp.partition_ns", partition, "placement into m bins"},
      {"mp.pe_solve_ns", m["mp.pe_solve_ns"],
       "lane_utilization=" + full_digits(m["batch.lane_utilization"]) +
           " table_exports=" + count("batch.table_exports")},
      {"batch.select_scan_ns", select,
       "energy_evals=" + count("batch.select_energy_evals") +
           " energy_hit_ratio=" + full_digits(m["cache.energy_hit_ratio"])},
      {"mp.local_search_ns", local_search,
       "move_probes=" + count("mp.move_probes") + " swap_probes=" + count("mp.swap_probes") +
           " adoptions=" + count("delta.table_adoptions")},
  };
  std::cout << "mp_many: set-up spent " << full_digits(m["mp.bound_ns"] / 1e3)
            << " us per instance in multiproc_lower_bound\n";
  m["host.slowness"] = timing(traced_units).slowness;
  scale_times(m, m["host.slowness"]);
  divide_per_op(m, static_cast<double>(traced_units.size()));
  std::cout << "mp_many: traced " << traced_units.size()
            << " solves; tracing overhead (untraced ops/s over traced ops/s) = "
            << full_digits(m["trace.overhead_ratio"]) << "\n";
  return outcome;
}

}  // namespace perfbench
