// Observability layer: metric registries (determinism across job counts,
// merge algebra, scoped attribution), trace ring + Chrome JSON export, and
// the bundled JSON parser. The determinism tests are the contract the
// ROADMAP's "bit-identical at any job count" claim extends to metrics.
#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/obs/json.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/obs/trace.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

using obs::MetricKind;
using obs::MetricRow;
using obs::Registry;

TEST(Metrics, InterningIsStableAndPerKind) {
  const obs::MetricId a = obs::intern_metric(MetricKind::kCounter, "test_obs.alpha");
  const obs::MetricId a2 = obs::intern_metric(MetricKind::kCounter, "test_obs.alpha");
  EXPECT_EQ(a, a2);
  // The same name under another kind is a distinct metric space.
  const obs::MetricId g = obs::intern_metric(MetricKind::kGauge, "test_obs.alpha");
  const std::vector<std::string> counters = obs::metric_names(MetricKind::kCounter);
  const std::vector<std::string> gauges = obs::metric_names(MetricKind::kGauge);
  ASSERT_LT(a, counters.size());
  ASSERT_LT(g, gauges.size());
  EXPECT_EQ(counters[a], "test_obs.alpha");
  EXPECT_EQ(gauges[g], "test_obs.alpha");
}

TEST(Metrics, RegistryMergeIsCommutativeAndAssociative) {
  const obs::MetricId c = obs::intern_metric(MetricKind::kCounter, "test_obs.merge_c");
  const obs::MetricId g = obs::intern_metric(MetricKind::kGauge, "test_obs.merge_g");
  const obs::MetricId h = obs::intern_metric(MetricKind::kHistogram, "test_obs.merge_h");

  Registry a, b, c3;
  a.add(c, 3);
  a.gauge_max(g, 2.5);
  a.record(h, 1.0);
  b.add(c, 5);
  b.gauge_max(g, 7.25);
  b.record(h, 100.0);
  c3.record(h, 0.25);

  // (a + b) + c  vs  c + (b + a): same multiset, any order.
  Registry left = a;
  left.merge(b);
  left.merge(c3);
  Registry right = c3;
  Registry ba = b;
  ba.merge(a);
  right.merge(ba);

  const auto rows_of = [](const Registry& r) {
    std::ostringstream os;
    for (const MetricRow& row : obs::report_rows(r)) os << row.name << "=" << row.value << ";";
    return os.str();
  };
  EXPECT_EQ(rows_of(left), rows_of(right));
  EXPECT_EQ(left.counter(c), 8u);
  EXPECT_EQ(left.gauge(g), 7.25);
  ASSERT_NE(left.histogram(h), nullptr);
  EXPECT_EQ(left.histogram(h)->count, 3u);
  EXPECT_EQ(left.histogram(h)->min, 0.25);
  EXPECT_EQ(left.histogram(h)->max, 100.0);
}

TEST(Metrics, MergeDoesNotInventValuesFromEmptyRegistries) {
  Registry empty, target;
  target.merge(empty);
  EXPECT_TRUE(target.empty());
  const obs::MetricId c = obs::intern_metric(MetricKind::kCounter, "test_obs.empty_c");
  target.add(c, 1);
  Registry copy = target;
  copy.merge(empty);
  EXPECT_EQ(obs::report_rows(copy).size(), obs::report_rows(target).size());
}

TEST(Metrics, ClearEmptiesTheRegistry) {
  Registry r;
  r.add(obs::intern_metric(MetricKind::kCounter, "test_obs.clear_c"), 4);
  r.record(obs::intern_metric(MetricKind::kHistogram, "test_obs.clear_h"), 2.0);
  EXPECT_FALSE(r.empty());
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(obs::report_rows(r).empty());
}

TEST(Metrics, ReportRowsAreSortedAndExpandHistograms) {
  Registry r;
  r.record(obs::intern_metric(MetricKind::kHistogram, "test_obs.zz_hist"), 4.0);
  r.add(obs::intern_metric(MetricKind::kCounter, "test_obs.aa_count"), 1);
  r.record_time(obs::intern_metric(MetricKind::kTimer, "test_obs.bb_ns"), 123.0);

  const std::vector<MetricRow> with_timers = obs::report_rows(r, /*include_timers=*/true);
  const std::vector<MetricRow> without = obs::report_rows(r, /*include_timers=*/false);
  ASSERT_GT(with_timers.size(), without.size());
  for (std::size_t i = 1; i < with_timers.size(); ++i) {
    EXPECT_LT(with_timers[i - 1].name, with_timers[i].name);
  }
  // Histogram expands to .count/.min/.max; the timer is gone without timers.
  std::vector<std::string> names;
  for (const MetricRow& row : without) names.push_back(row.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "test_obs.zz_hist.count"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test_obs.zz_hist.min"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test_obs.zz_hist.max"), names.end());
  for (const std::string& name : names) {
    EXPECT_EQ(name.find("test_obs.bb_ns"), std::string::npos) << name;
  }
}

TEST(Metrics, ActiveScopeAttributesAndFoldsIntoParent) {
  const obs::MetricId c = obs::intern_metric(MetricKind::kCounter, "test_obs.scope_c");
  Registry outer;
  obs::ActiveScope outer_scope(outer);
  Registry inner;
  {
    obs::ActiveScope scope(inner);
    obs::active().add(c, 2);
  }
  EXPECT_EQ(inner.counter(c), 2u);
  EXPECT_EQ(outer.counter(c), 2u);  // folded on scope exit

  Registry isolated;
  {
    obs::ActiveScope scope(isolated, /*fold_into_parent=*/false);
    obs::active().add(c, 5);
  }
  EXPECT_EQ(isolated.counter(c), 5u);
  EXPECT_EQ(outer.counter(c), 2u);  // unchanged
}

#if RETASK_OBS_ENABLED

/// The deterministic report rows of `registry`, one "name=value" line each,
/// leaving out the rows whose name starts with `skip_prefix` (if given).
std::string deterministic_rows(const Registry& registry, const std::string& skip_prefix = "") {
  std::ostringstream os;
  for (const MetricRow& row : obs::report_rows(registry, /*include_timers=*/false)) {
    if (!skip_prefix.empty() && row.name.rfind(skip_prefix, 0) == 0) continue;
    os << row.name << "=" << row.value << "\n";
  }
  return os.str();
}

double lower_bound_reference(const RejectionProblem& problem) {
  return fractional_lower_bound(problem);
}

/// Notes which threads build a harness call's problems. Each build also
/// takes a millisecond, so that the pool spreads even quick instances over
/// its threads and a test sees the threads' registries merge.
class ThreadLog {
 public:
  ProblemFactory wrap(ProblemFactory factory) {
    return [this, factory = std::move(factory)](std::uint64_t seed) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        threads_.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return factory(seed);
    };
  }

  std::size_t threads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::set<std::thread::id> threads_;
};

std::vector<std::unique_ptr<RejectionSolver>> metrics_lineup() {
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<DensityGreedySolver>());
  lineup.push_back(std::make_unique<MarginalGreedySolver>());
  lineup.push_back(std::make_unique<FptasSolver>(0.1));
  lineup.push_back(std::make_unique<ExactDpSolver>());
  return lineup;
}

/// Solves every cell of a run_comparison_batch grid alone on this thread,
/// each under its own scope, and returns the merge of each (point,
/// algorithm)'s cells with the harness's own counters added. A `sweep` grid
/// is solved the way sweep reuse solves it: one solve_sweep per instance,
/// filed under the first point.
std::vector<std::vector<Registry>> merged_cells_solved_alone(
    const std::vector<ProblemFactory>& factories,
    const std::vector<std::unique_ptr<RejectionSolver>>& lineup, int instances,
    std::uint64_t seed0, bool sweep) {
  const obs::MetricId solves = obs::intern_metric(MetricKind::kCounter, "harness.solves");
  const obs::MetricId tasks = obs::intern_metric(MetricKind::kCounter, "harness.tasks_total");
  const obs::MetricId rejected =
      obs::intern_metric(MetricKind::kCounter, "harness.tasks_rejected");
  const std::size_t points = factories.size();
  std::vector<std::vector<Registry>> merged(points, std::vector<Registry>(lineup.size()));
  for (int k = 0; k < instances; ++k) {
    std::vector<RejectionProblem> problems;
    std::vector<const RejectionProblem*> group;
    for (const ProblemFactory& factory : factories) {
      problems.push_back(factory(seed0 + static_cast<std::uint64_t>(k)));
    }
    for (const RejectionProblem& problem : problems) group.push_back(&problem);
    for (std::size_t a = 0; a < lineup.size(); ++a) {
      std::vector<Registry> cells(points);
      std::vector<RejectionSolution> solutions(points);
      if (sweep) {
        obs::ActiveScope scope(cells[0], /*fold_into_parent=*/false);
        solutions = lineup[a]->solve_sweep(group);
      } else {
        for (std::size_t point = 0; point < points; ++point) {
          obs::ActiveScope scope(cells[point], /*fold_into_parent=*/false);
          solutions[point] = lineup[a]->solve(problems[point]);
        }
      }
      for (std::size_t point = 0; point < points; ++point) {
        const std::size_t size = problems[point].size();
        cells[point].add(solves, 1);
        cells[point].add(tasks, size);
        cells[point].add(rejected, size - solutions[point].accepted_count());
        merged[point][a].merge(cells[point]);
      }
    }
  }
  return merged;
}

// The harness's metrics registries must be bit-identical at any job count,
// and each (point, algorithm) registry must hold that point's cells and no
// other's: the merge of the cells solved one by one under their own scopes.
TEST(Metrics, HarnessMetricsAreBitIdenticalAcrossJobCounts) {
  const auto run_with_jobs = [](int jobs) {
    const ProblemFactory factory = [](std::uint64_t seed) {
      return test::small_instance(seed, 10, 1.4);
    };
    const std::vector<AlgoStats> stats =
        run_comparison(factory, metrics_lineup(), lower_bound_reference,
                       /*instances=*/12, /*seed0=*/1, jobs);
    std::ostringstream os;
    for (const AlgoStats& s : stats) os << s.name << "\n" << deterministic_rows(s.metrics);
    return os.str();
  };

  const std::string sequential = run_with_jobs(1);
  const std::string parallel = run_with_jobs(8);
  EXPECT_FALSE(sequential.empty());
  // The report must actually contain solver metrics, not just be
  // vacuously equal.
  EXPECT_NE(sequential.find("exact_dp.cells_touched"), std::string::npos);
  EXPECT_NE(sequential.find("fptas.guess_rounds"), std::string::npos);
  EXPECT_NE(sequential.find("harness.tasks_rejected"), std::string::npos);
  EXPECT_EQ(sequential, parallel);

  // Three-point grids: a capacity sweep, whose points share each instance's
  // task set, so sweep reuse files the whole sweep under point 0; and one
  // task set per point, so every cell is solved on its own.
  std::vector<ProblemFactory> capacities;
  std::vector<ProblemFactory> loads;
  for (const double factor : {1.0, 0.8, 0.6}) {
    capacities.push_back([factor](std::uint64_t seed) {
      return make_capacity_sweep(test::small_instance(seed, 10, 1.4), {factor}).front();
    });
  }
  for (const double load : {0.8, 1.4, 2.0}) {
    loads.push_back([load](std::uint64_t seed) { return test::small_instance(seed, 10, load); });
  }
  const struct {
    const char* name;
    const std::vector<ProblemFactory>& factories;
    bool sweep;
  } grids[] = {{"capacity sweep", capacities, true}, {"task set per point", loads, false}};
  constexpr int kInstances = 6;
  constexpr std::uint64_t kSeed0 = 3;
  const std::vector<std::unique_ptr<RejectionSolver>> lineup = metrics_lineup();
  for (const auto& grid : grids) {
    SCOPED_TRACE(grid.name);
    const std::vector<std::vector<Registry>> expected =
        merged_cells_solved_alone(grid.factories, lineup, kInstances, kSeed0, grid.sweep);
    // The exact DP's rows tell the points apart, and the sweep shares its
    // table, so a registry filed under another point cannot match.
    const std::size_t exact = lineup.size() - 1;
    EXPECT_NE(deterministic_rows(expected[0][exact]), deterministic_rows(expected[1][exact]));
    EXPECT_EQ(deterministic_rows(expected[0][exact]).find("dp.warm_starts") != std::string::npos,
              grid.sweep);
    for (const int jobs : {1, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      ThreadLog log;
      std::vector<ProblemFactory> factories;
      for (const ProblemFactory& factory : grid.factories) factories.push_back(log.wrap(factory));
      const std::vector<std::vector<AlgoStats>> stats = run_comparison_batch(
          factories, lineup, lower_bound_reference, kInstances, kSeed0, jobs);
      EXPECT_EQ(log.threads() > 1, jobs > 1);
      ASSERT_EQ(stats.size(), expected.size());
      for (std::size_t point = 0; point < stats.size(); ++point) {
        ASSERT_EQ(stats[point].size(), lineup.size());
        for (std::size_t a = 0; a < lineup.size(); ++a) {
          EXPECT_EQ(deterministic_rows(stats[point][a].metrics),
                    deterministic_rows(expected[point][a]))
              << "point " << point << ", " << stats[point][a].name;
        }
      }
    }
  }
}

// A caller's scope around the harness sees every cell's metrics, whichever
// threads ran the cells: the harness folds its registries into the caller's
// active registry after the parallel region, at any job count.
TEST(Metrics, CallerScopeSeesTheWholeHarnessCall) {
  const ProblemFactory factory = [](std::uint64_t seed) {
    return test::small_instance(seed, 10, 1.4);
  };
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<ExactDpSolver>());
  lineup.push_back(std::make_unique<FptasSolver>(0.1));
  std::vector<std::string> runs;
  for (const int jobs : {1, 4}) {
    for (int run = 0; run < 3; ++run) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " run " + std::to_string(run));
      ThreadLog log;
      Registry seen;
      std::vector<AlgoStats> stats;
      {
        obs::ActiveScope scope(seen, /*fold_into_parent=*/false);
        stats = run_comparison(log.wrap(factory), lineup, lower_bound_reference,
                               /*instances=*/32, /*seed0=*/1, jobs);
      }
      EXPECT_EQ(log.threads() > 1, jobs > 1);
      Registry returned;
      for (const AlgoStats& s : stats) returned.merge(s.metrics);
      // The pool's parallel.* counters land with the threads that drained
      // the units; every other row comes from the call's solves.
      runs.push_back(deterministic_rows(seen, "parallel."));
      EXPECT_EQ(runs.back(), deterministic_rows(returned));
    }
  }
  EXPECT_NE(runs.front().find("harness.solves=64\n"), std::string::npos);
  for (std::size_t run = 1; run < runs.size(); ++run) {
    EXPECT_EQ(runs[run], runs.front()) << "run " << run << " of jobs 1, 1, 1, 4, 4, 4";
  }
}

TEST(Metrics, SolverRunPopulatesScopedRegistry) {
  const RejectionProblem problem = test::small_instance(3, 8, 1.5);
  Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    ExactDpSolver().solve(problem);
  }
  const obs::MetricId solves = obs::intern_metric(MetricKind::kCounter, "exact_dp.solves");
  const obs::MetricId touched =
      obs::intern_metric(MetricKind::kCounter, "exact_dp.cells_touched");
  EXPECT_EQ(metrics.counter(solves), 1u);
  EXPECT_GT(metrics.counter(touched), 0u);
}

// Seeds are untimed: the marginal greedy and the FPTAS seed through the
// density pass without its solve timer, so each solve records only its own
// top-level timer, and a sum of top-level timers never counts a seed twice.
TEST(Metrics, SeededSolversRecordOnlyTheirOwnTimer) {
  const RejectionProblem problem = test::small_instance(5, 10, 1.5);
  const obs::MetricId density_timer =
      obs::intern_metric(MetricKind::kTimer, "greedy.density_solve_ns");
  const obs::MetricId density_solves =
      obs::intern_metric(MetricKind::kCounter, "greedy.density_solves");
  const MarginalGreedySolver marginal;
  const FptasSolver fptas(0.1);
  const std::pair<const RejectionSolver*, const char*> cases[] = {
      {&marginal, "greedy.marginal_solve_ns"}, {&fptas, "fptas.solve_ns"}};
  for (const auto& [solver, own_timer] : cases) {
    SCOPED_TRACE(solver->name());
    Registry metrics;
    {
      obs::ActiveScope scope(metrics);
      solver->solve(problem);
    }
    const obs::Histogram* own = metrics.timer(obs::intern_metric(MetricKind::kTimer, own_timer));
    ASSERT_NE(own, nullptr);
    EXPECT_EQ(own->count, 1u);
    EXPECT_EQ(metrics.timer(density_timer), nullptr);
    EXPECT_EQ(metrics.counter(density_solves), 1u);
  }
}

#else  // !RETASK_OBS_ENABLED

// With RETASK_OBS=OFF the macros vanish: running a solver under a scoped
// registry must record nothing at all.
TEST(Metrics, DisabledBuildRecordsNothing) {
  const RejectionProblem problem = test::small_instance(3, 8, 1.5);
  Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    ExactDpSolver().solve(problem);
    DensityGreedySolver().solve(problem);
  }
  EXPECT_TRUE(metrics.empty());
  EXPECT_TRUE(obs::report_rows(metrics).empty());
}

#endif  // RETASK_OBS_ENABLED

TEST(Trace, DisabledEmitIsDropped) {
  obs::set_trace_enabled(false);
  obs::clear_trace();
  obs::emit_trace("test_obs.dropped", 0, 1);
  { obs::ScopedTrace scope("test_obs.dropped_scope"); }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, ScopedEventsRoundTripThroughChromeJson) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    obs::ScopedTrace outer("test_obs.outer");
    obs::ScopedTrace inner("test_obs.inner");
  }
  obs::emit_trace("test_obs.manual", 10, 20);
  obs::set_trace_enabled(false);

  ASSERT_EQ(obs::trace_event_count(), 3u);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const obs::JsonValue doc = obs::parse_json(os.str());
  ASSERT_EQ(doc.type, obs::JsonValue::Type::kObject);
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 3u);
  for (const obs::JsonValue& event : events->as_array()) {
    ASSERT_EQ(event.type, obs::JsonValue::Type::kObject);
    EXPECT_EQ(event.find("ph")->as_string(), "X");
    EXPECT_GE(event.find("dur")->as_number(), 0.0);
    const std::string& name = event.find("name")->as_string();
    EXPECT_TRUE(name == "test_obs.outer" || name == "test_obs.inner" ||
                name == "test_obs.manual")
        << name;
  }
  // Events are sorted by timestamp.
  double last_ts = -1.0;
  for (const obs::JsonValue& event : events->as_array()) {
    EXPECT_GE(event.find("ts")->as_number(), last_ts);
    last_ts = event.find("ts")->as_number();
  }
  obs::clear_trace();
}

TEST(Trace, RingOverwritesOldestWhenFull) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  obs::set_trace_capacity(4);
  for (std::uint64_t i = 0; i < 10; ++i) obs::emit_trace("test_obs.ring", i, 1);
  EXPECT_EQ(obs::trace_event_count(), 4u);
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The newest 4 of the 10 events survive, in timestamp order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 6 + i);
  }
  obs::set_trace_capacity(65536);
  obs::set_trace_enabled(false);
  obs::clear_trace();
}

TEST(Json, ParsesTheSubsetTheRepoEmits) {
  const obs::JsonValue doc = obs::parse_json(
      R"({"s":"a\"bé","n":-12.5e1,"t":true,"f":false,"z":null,"arr":[1,2,3],"o":{"k":1}})");
  EXPECT_EQ(doc.find("s")->as_string(), "a\"b\xc3\xa9");
  EXPECT_EQ(doc.find("n")->as_number(), -125.0);
  EXPECT_TRUE(doc.find("t")->as_bool());
  EXPECT_FALSE(doc.find("f")->as_bool());
  EXPECT_TRUE(doc.find("z")->is_null());
  EXPECT_EQ(doc.find("arr")->as_array().size(), 3u);
  EXPECT_EQ(doc.find("o")->find("k")->as_number(), 1.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
  // \uXXXX escapes decode to UTF-8.
  EXPECT_EQ(obs::parse_json("\"\\u00e9A\"").as_string(),
            "\xc3\xa9"
            "A");
}

TEST(Json, DecodesSurrogatePairsToNonBmpCodePoints) {
  // U+1F600 (GRINNING FACE) as its UTF-16 escape pair, per RFC 8259 §7.
  EXPECT_EQ(obs::parse_json("\"\\ud83d\\ude00\"").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(obs::parse_json("\"a\\uD83D\\uDE00b\"").as_string(),
            "a\xF0\x9F\x98\x80"
            "b");
  // Supplementary-plane boundaries: U+10000 and U+10FFFF.
  EXPECT_EQ(obs::parse_json("\"\\ud800\\udc00\"").as_string(), "\xF0\x90\x80\x80");
  EXPECT_EQ(obs::parse_json("\"\\udbff\\udfff\"").as_string(), "\xF4\x8F\xBF\xBF");
}

TEST(Json, RejectsLoneAndMalformedSurrogates) {
  EXPECT_THROW(obs::parse_json("\"\\ud83d\""), Error);         // lone high at end of string
  EXPECT_THROW(obs::parse_json("\"\\ud83dxx\""), Error);       // high followed by raw text
  EXPECT_THROW(obs::parse_json("\"\\ud83d\\n\""), Error);      // high followed by another escape
  EXPECT_THROW(obs::parse_json("\"\\ud83d\\ud83d\""), Error);  // high followed by high
  EXPECT_THROW(obs::parse_json("\"\\ude00\""), Error);         // lone low
}

TEST(Trace, NonBmpEventNamesRoundTripThroughChromeJson) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  const std::string name = "test_obs.\xF0\x9F\x98\x80.kernel";  // U+1F600 in the name
  obs::emit_trace(name.c_str(), 5, 9);
  obs::set_trace_enabled(false);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const obs::JsonValue doc = obs::parse_json(os.str());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 1u);
  EXPECT_EQ(events->as_array()[0].find("name")->as_string(), name);
  obs::clear_trace();
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::parse_json(""), Error);
  EXPECT_THROW(obs::parse_json("{"), Error);
  EXPECT_THROW(obs::parse_json("{} trailing"), Error);
  EXPECT_THROW(obs::parse_json("[1,2,]"), Error);
  EXPECT_THROW(obs::parse_json(R"({"a" 1})"), Error);
  EXPECT_THROW(obs::parse_json(R"("\x")"), Error);
  EXPECT_THROW(obs::parse_json("01"), Error);
  EXPECT_THROW(obs::parse_json("nul"), Error);
}

TEST(Json, EscapeProducesParseableStrings) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
  const std::string doc = "{\"k\":\"" + obs::json_escape(nasty) + "\"}";
  EXPECT_EQ(obs::parse_json(doc).find("k")->as_string(), nasty);
}

}  // namespace
}  // namespace retask
