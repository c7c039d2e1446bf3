// Observability layer: metric registries (determinism across job counts,
// merge algebra, scoped attribution), trace ring + Chrome JSON export, and
// the bundled JSON parser. The determinism tests are the contract the
// ROADMAP's "bit-identical at any job count" claim extends to metrics.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "retask/batch/lockstep.hpp"
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
#include "retask/serve/delta_solver.hpp"
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

// The harness's metrics registries must be bit-identical at any job count:
// same multiset of per-cell registries, merged in instance order.
TEST(Metrics, HarnessMetricsAreBitIdenticalAcrossJobCounts) {
  const auto run_with_jobs = [](int jobs) {
    const ProblemFactory factory = [](std::uint64_t seed) {
      return test::small_instance(seed, 10, 1.4);
    };
    std::vector<std::unique_ptr<RejectionSolver>> lineup;
    lineup.push_back(std::make_unique<DensityGreedySolver>());
    lineup.push_back(std::make_unique<MarginalGreedySolver>());
    lineup.push_back(std::make_unique<FptasSolver>(0.1));
    lineup.push_back(std::make_unique<ExactDpSolver>());
    const std::vector<AlgoStats> stats = run_comparison(
        factory, lineup, [](const RejectionProblem& p) { return fractional_lower_bound(p); },
        /*instances=*/12, /*seed0=*/1, jobs);
    std::ostringstream os;
    for (const AlgoStats& s : stats) {
      os << s.name << "\n";
      for (const MetricRow& row : obs::report_rows(s.metrics, /*include_timers=*/false)) {
        os << "  " << row.name << "=" << row.value << "\n";
      }
    }
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

// Fused-sweep counter parity: the fused cross-instance path must report the
// same fill/warm-start work as the per-instance warm sweeps it replaces
// (exact_dp.solves, dp.warm_starts), adding only its own batch.* counters;
// below 2 lanes the fused counters stay at zero and every instance is a
// counted fallback.
TEST(Metrics, FusedSweepCountersMirrorWarmSweepsAndVanishBelowTwoLanes) {
  const std::vector<double> factors{0.5, 0.8, 1.0};
  std::vector<RejectionProblem> fleet;
  std::vector<std::vector<RejectionProblem>> sweeps;
  std::vector<std::vector<const RejectionProblem*>> grids;
  for (std::uint64_t seed = 41; seed < 45; ++seed) {
    fleet.push_back(test::small_instance(seed, 10, 1.5));
  }
  for (const RejectionProblem& instance : fleet) {
    sweeps.push_back(make_capacity_sweep(instance, factors));
    grids.emplace_back();
    for (const RejectionProblem& point : sweeps.back()) grids.back().push_back(&point);
  }
  const obs::MetricId solves = obs::intern_metric(MetricKind::kCounter, "exact_dp.solves");
  const obs::MetricId warm_starts = obs::intern_metric(MetricKind::kCounter, "dp.warm_starts");
  const obs::MetricId fused_points =
      obs::intern_metric(MetricKind::kCounter, "batch.fused_sweep_points");
  const obs::MetricId scan_words =
      obs::intern_metric(MetricKind::kCounter, "batch.select_scan_words");
  const obs::MetricId fallbacks = obs::intern_metric(MetricKind::kCounter, "batch.sweep_fallbacks");

  const ExactDpSolver exact;
  Registry solo;
  {
    obs::ActiveScope scope(solo);
    for (const auto& grid : grids) exact.solve_sweep(grid);
  }
  EXPECT_EQ(solo.counter(solves), fleet.size());
  EXPECT_EQ(solo.counter(warm_starts), fleet.size() * (factors.size() - 1));
  EXPECT_EQ(solo.counter(fused_points), 0u);

  Registry fused;
  {
    obs::ActiveScope scope(fused);
    BatchRejectionSolver(exact, BatchConfig{4}).solve_sweep_batch(grids);
  }
  // Same fill work as the warm sweeps, plus the fused-path accounting.
  EXPECT_EQ(fused.counter(solves), solo.counter(solves));
  EXPECT_EQ(fused.counter(warm_starts), solo.counter(warm_starts));
  EXPECT_EQ(fused.counter(fused_points), fleet.size() * factors.size());
  EXPECT_GT(fused.counter(scan_words), 0u);
  EXPECT_EQ(fused.counter(fallbacks), 0u);

  Registry off;
  {
    obs::ActiveScope scope(off);
    BatchRejectionSolver(exact, BatchConfig{1}).solve_sweep_batch(grids);
  }
  EXPECT_EQ(off.counter(fused_points), 0u);
  EXPECT_EQ(off.counter(scan_words), 0u);
  EXPECT_EQ(off.counter(fallbacks), fleet.size());
  // The fallback is exactly the warm per-instance path.
  EXPECT_EQ(off.counter(solves), solo.counter(solves));
  EXPECT_EQ(off.counter(warm_starts), solo.counter(warm_starts));
}

// Table handoff: a lockstep capture adopted into a DeltaSolver counts one
// delta.table_adoptions (and a delta hit), not a cold fall.
TEST(Metrics, TableAdoptionIsCounted) {
  std::vector<RejectionProblem> fleet;
  for (std::uint64_t seed = 61; seed < 65; ++seed) {
    fleet.push_back(test::small_instance(seed, 10, 1.5));
  }
  std::vector<const RejectionProblem*> ptrs;
  for (const RejectionProblem& p : fleet) ptrs.push_back(&p);
  const ExactDpSolver exact;
  LockstepTables tables;
  BatchRejectionSolver(exact, BatchConfig{4}).solve_batch(ptrs, &tables);
  ASSERT_FALSE(tables.exports[0].value.empty());
  std::vector<FrameTask> tasks;
  for (std::size_t i = 0; i < fleet[0].size(); ++i) tasks.push_back(fleet[0].tasks()[i]);

  const obs::MetricId adoptions =
      obs::intern_metric(MetricKind::kCounter, "delta.table_adoptions");
  const obs::MetricId cold_falls = obs::intern_metric(MetricKind::kCounter, "serve.cold_falls");
  Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    DeltaSolver delta(fleet[0].curve(), fleet[0].work_per_cycle());
    delta.adopt_table(tasks, std::move(tables.exports[0]));
  }
  EXPECT_EQ(metrics.counter(adoptions), 1u);
  EXPECT_EQ(metrics.counter(cold_falls), 0u);
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
