// Tests for the exact pseudo-polynomial DP: hand-checkable instances plus a
// parameterized equivalence sweep against independent exhaustive search.
#include "retask/core/exact_dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/core/exhaustive.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/table_power.hpp"
#include "retask/simd/backend.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

RejectionProblem tiny(std::vector<FrameTask> tasks, double penalty_free_capacity = 100.0) {
  EnergyCurve curve(PolynomialPowerModel::cubic(), 1.0, IdleDiscipline::kDormantEnable);
  return RejectionProblem(FrameTaskSet(std::move(tasks)), std::move(curve),
                          1.0 / penalty_free_capacity, 1);
}

TEST(ExactDp, AcceptsEverythingWhenPenaltiesDominate) {
  // Light load, huge penalties: rejecting anything is clearly wrong.
  const RejectionProblem p = tiny({{0, 20, 100.0}, {1, 30, 100.0}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), 2u);
  EXPECT_NEAR(s.objective(), 0.5 * 0.5 * 0.5, 1e-6);
}

TEST(ExactDp, RejectsEverythingWhenPenaltiesAreFree) {
  const RejectionProblem p = tiny({{0, 20, 0.0}, {1, 30, 0.0}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), 0u);
  EXPECT_NEAR(s.objective(), 0.0, 1e-12);
}

TEST(ExactDp, MustRejectUnderOverload) {
  // 80 + 80 = 160 > 100: at most one task fits.
  const RejectionProblem p = tiny({{0, 80, 1.0}, {1, 80, 2.0}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_EQ(s.accepted_count(), 1u);
  // Keeping the higher-penalty task is optimal: E(0.8) + 1.0 < E(0.8) + 2.0.
  EXPECT_TRUE(s.accepted[1]);
  EXPECT_NEAR(s.objective(), 0.8 * 0.8 * 0.8 + 1.0, 1e-6);
}

TEST(ExactDp, PicksCrossoverCorrectly) {
  // One task whose penalty sits exactly between reject-all and accept-all
  // energies: E(0.6) = 0.216. Penalty 0.3 > 0.216 -> accept.
  const RejectionProblem accept_case = tiny({{0, 60, 0.3}});
  EXPECT_EQ(ExactDpSolver().solve(accept_case).accepted_count(), 1u);
  // Penalty 0.1 < 0.216 -> reject.
  const RejectionProblem reject_case = tiny({{0, 60, 0.1}});
  EXPECT_EQ(ExactDpSolver().solve(reject_case).accepted_count(), 0u);
}

TEST(ExactDp, OversizedTaskIsAlwaysRejected) {
  const RejectionProblem p = tiny({{0, 150, 50.0}, {1, 40, 0.5}});
  const RejectionSolution s = ExactDpSolver().solve(p);
  EXPECT_FALSE(s.accepted[0]);
}

TEST(ExactDp, OversizedTableThrowsErrorBeforeAllocating) {
  // 65 tasks of 1e11 cycles under a 1e13-cycle capacity: the record list
  // holds only the 65 multiples of 1e11, but the accept masks fill up at 64
  // tasks, and the dense table for the last one at fill capacity 6.5e12 (a
  // 64-aligned value row of 6.5e12 + 64 doubles plus one row of choice bits)
  // would take 52 812 500 000 520 bytes. The fill must refuse it with an
  // Error naming that size, before allocating.
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const double work_per_cycle = curve.max_workload() / 1e13;
  std::vector<FrameTask> tasks;
  for (int i = 1; i <= 65; ++i) tasks.push_back({i, Cycles{100000000000}, 1.0});
  const RejectionProblem p(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
  try {
    ExactDpSolver().solve(p);
    FAIL() << "expected an Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("52812500000520 bytes"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(ExactDpSolver().solve_sweep({&p, &p}), Error);
}

TEST(DpTable, ByteArithmetic) {
  // Value rows are 8 bytes a cell; choice rows round their bits up to whole
  // 64-bit words.
  EXPECT_EQ(dp_table_bytes(0, 0, 0), std::optional<std::size_t>{0});
  EXPECT_EQ(dp_table_bytes(64, 1, 0), std::optional<std::size_t>{512});
  EXPECT_EQ(dp_table_bytes(64, 0, 3), std::optional<std::size_t>{24});
  EXPECT_EQ(dp_table_bytes(65, 1, 1), std::optional<std::size_t>{65 * 8 + 16});
  EXPECT_EQ(dp_table_bytes(1000, 3, 5), std::optional<std::size_t>{3 * 8000 + 5 * 16 * 8});
  // Every product and the sum are checked for size_t overflow.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(dp_table_bytes(huge / 8 + 1, 1, 0), std::nullopt);
  EXPECT_EQ(dp_table_bytes(huge / 16, 3, 0), std::nullopt);
  // huge / 16 cells: a value row of 2^63 - 8 bytes, choice rows of 2^57.
  const std::size_t take_row = std::size_t{1} << 57;
  EXPECT_EQ(dp_table_bytes(huge / 16, 0, 127), std::optional<std::size_t>{127 * take_row});
  EXPECT_EQ(dp_table_bytes(huge / 16, 0, 128), std::nullopt);
  EXPECT_EQ(dp_table_bytes(huge / 16, 1, 64), std::optional<std::size_t>{huge - 7});
  EXPECT_EQ(dp_table_bytes(huge / 16, 1, 65), std::nullopt);
  EXPECT_EQ(dp_table_bytes(huge, 0, 0), std::nullopt);
}

TEST(ExactDp, GuardsMultiprocessorInstances) {
  ScenarioConfig config;
  config.processor_count = 2;
  const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  const RejectionProblem p = make_scenario(config, model);
  EXPECT_THROW(ExactDpSolver().solve(p), Error);
}

// ---------------------------------------------------------------------------
// Word-edge instances: tables that straddle the 64-cell choice words and
// also take the prune path, on every backend.

/// Four instances at each capacity 62, 63, 64, 130 and 1000: table widths
/// 63/64/65/131/1001 straddle the 64-cell choice words. Twelve tasks of up
/// to cap / 3 cycles populate most of the table, and one task per instance
/// cannot fit (cycles > cap), so the prune path runs too.
std::vector<RejectionProblem> word_edge_instances() {
  std::vector<RejectionProblem> out;
  for (const Cycles cap : {Cycles{62}, Cycles{63}, Cycles{64}, Cycles{130}, Cycles{1000}}) {
    for (std::uint64_t v = 0; v < 4; ++v) {
      Rng rng(7000 + static_cast<std::uint64_t>(cap) + 97 * v);
      std::vector<FrameTask> tasks;
      for (int i = 0; i < 12; ++i) {
        tasks.push_back({i, rng.uniform_int(1, std::max<Cycles>(1, cap / 3)),
                         rng.uniform(0.1, 5.0)});
      }
      tasks.push_back({12, cap + 5, 1.0});
      EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
      const double work_per_cycle = curve.max_workload() / static_cast<double>(cap);
      out.emplace_back(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
      EXPECT_EQ(out.back().cycle_capacity(), cap);
    }
  }
  return out;
}

/// Word-edge instances whose fill hands off to the dense relaxation, one pair
/// per capacity of word_edge_instances(): the same twelve-task shape led by a
/// one-cycle task, whose two-entry list already outgrows (1 + 1) / 16, and 70
/// tasks of up to cap / 3 cycles, more than an accept mask holds. Each keeps
/// the task that cannot fit, so the dense phase relaxes every word-edge
/// width and takes the prune path.
std::vector<RejectionProblem> word_edge_handoff_instances() {
  std::vector<RejectionProblem> out;
  for (const Cycles cap : {Cycles{62}, Cycles{63}, Cycles{64}, Cycles{130}, Cycles{1000}}) {
    for (const int count : {12, 70}) {
      Rng rng(9000 + static_cast<std::uint64_t>(cap) + static_cast<std::uint64_t>(count));
      std::vector<FrameTask> tasks;
      for (int i = 0; i < count; ++i) {
        const Cycles cycles =
            i == 0 && count == 12 ? 1 : rng.uniform_int(1, std::max<Cycles>(1, cap / 3));
        tasks.push_back({i, cycles, rng.uniform(0.1, 5.0)});
      }
      tasks.push_back({count, cap + 5, 1.0});
      EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
      const double work_per_cycle = curve.max_workload() / static_cast<double>(cap);
      out.emplace_back(FrameTaskSet(std::move(tasks)), std::move(curve), work_per_cycle, 1);
      EXPECT_EQ(out.back().cycle_capacity(), cap);
    }
  }
  return out;
}

TEST(ExactDp, WordEdgeTablesMatchExhaustiveEveryBackend) {
  const ExactDpSolver dp;
  const ExhaustiveSolver exhaustive;
  for (const RejectionProblem& p : word_edge_instances()) {
    const double want = exhaustive.solve(p).objective();
    for (const simd::Backend backend : test::available_backends()) {
      simd::ScopedBackend forced(backend);
      SCOPED_TRACE(std::string(simd::to_string(backend)) + " / capacity " +
                   std::to_string(p.cycle_capacity()));
      EXPECT_NEAR(dp.solve(p).objective(), want, 1e-6 * std::max(1.0, want));
    }
  }
  // The hand-off instances: the twelve-task ones against exhaustive search,
  // the 70-task ones against the forced-scalar solve, bit for bit, and each
  // must run its dense phase.
  for (const RejectionProblem& p : word_edge_handoff_instances()) {
    const bool small = p.size() <= 13;
    const double want = small ? exhaustive.solve(p).objective() : 0.0;
    RejectionSolution scalar;
    {
      simd::ScopedBackend forced(simd::Backend::kScalar);
      scalar = dp.solve(p);
    }
    for (const simd::Backend backend : test::available_backends()) {
      simd::ScopedBackend forced(backend);
      SCOPED_TRACE(std::string(simd::to_string(backend)) + " / capacity " +
                   std::to_string(p.cycle_capacity()) + " / tasks " + std::to_string(p.size()));
      obs::Registry metrics;
      RejectionSolution got;
      {
        obs::ActiveScope scope(metrics);
        got = dp.solve(p);
      }
      if (small) {
        EXPECT_NEAR(got.objective(), want, 1e-6 * std::max(1.0, want));
      }
      EXPECT_EQ(got.accepted, scalar.accepted);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective()),
                std::bit_cast<std::uint64_t>(scalar.objective()));
      if (test::kObsEnabled) {
        EXPECT_EQ(test::dense_handoffs(metrics, "exact_dp"), 1u);
      }
    }
  }
}

TEST(ExactDp, WordEdgeSweepsMatchPerPointSolvesBitwiseEveryBackend) {
  const ExactDpSolver dp;
  std::vector<RejectionProblem> instances = word_edge_instances();
  const std::size_t first_handoff = instances.size();
  for (RejectionProblem& p : word_edge_handoff_instances()) instances.push_back(std::move(p));
  for (std::size_t n = 0; n < instances.size(); ++n) {
    const RejectionProblem& p = instances[n];
    const std::vector<RejectionProblem> points = make_capacity_sweep(p, {0.5, 0.8, 1.0});
    std::vector<const RejectionProblem*> group;
    for (const RejectionProblem& point : points) group.push_back(&point);
    for (const simd::Backend backend : test::available_backends()) {
      simd::ScopedBackend forced(backend);
      SCOPED_TRACE(std::string(simd::to_string(backend)) + " / capacity " +
                   std::to_string(p.cycle_capacity()) + " / tasks " + std::to_string(p.size()));
      obs::Registry metrics;
      std::vector<RejectionSolution> warm;
      {
        obs::ActiveScope scope(metrics);
        warm = dp.solve_sweep(group);
      }
      if (test::kObsEnabled && n >= first_handoff) {
        EXPECT_EQ(test::dense_handoffs(metrics, "exact_dp"), 1u);
      }
      ASSERT_EQ(warm.size(), points.size());
      for (std::size_t k = 0; k < points.size(); ++k) {
        const RejectionSolution cold = dp.solve(points[k]);
        EXPECT_EQ(warm[k].accepted, cold.accepted) << "point " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm[k].energy),
                  std::bit_cast<std::uint64_t>(cold.energy))
            << "point " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm[k].penalty),
                  std::bit_cast<std::uint64_t>(cold.penalty))
            << "point " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Staircase select == the serial rule over every row.

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

struct SerialPick {
  std::size_t best_w = 0;
  double best_objective = std::numeric_limits<double>::infinity();
  std::uint64_t energy_evals = 0;
};

/// The select before the staircase, written out: every row w in [0, cap] in
/// ascending order, skipping a row whose penalty alone reaches the best,
/// stopping at the first whose energy alone reaches it, and taking strict
/// improvements only.
SerialPick serial_select(const std::vector<double>& kept, std::size_t cap, double total,
                         const std::function<double(Cycles)>& energy) {
  SerialPick pick;
  for (std::size_t w = 0; w <= cap; ++w) {
    const double penalty = total - kept[w];
    if (penalty >= pick.best_objective) continue;
    const double e = energy(static_cast<Cycles>(w));
    ++pick.energy_evals;
    if (e >= pick.best_objective) break;
    if (e + penalty < pick.best_objective) {
      pick.best_objective = e + penalty;
      pick.best_w = w;
    }
  }
  return pick;
}

/// Value rows as fills produce them (row 0 is the empty set, kept 0): -inf
/// gaps, ties and plateaus, a record on the last row, a single row, and
/// seeded random rows mixing all of these.
std::vector<std::vector<double>> staircase_rows() {
  std::vector<std::vector<double>> rows = {
      {0.0},
      {0.0, kNegInf, kNegInf, 0.7, kNegInf, 1.1, kNegInf, kNegInf, 1.9, kNegInf},
      {0.0, 0.4, 0.4, 0.4, 0.9, 0.9, 0.3, 0.9, 1.6, 1.6, 1.6, 1.2},
      {0.0, 0.2, 0.2, kNegInf, 0.2, 0.1, 0.2, 0.2, 3.5},
      {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0},
      {0.0, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf},
  };
  Rng rng(0x57A1);
  for (int r = 0; r < 24; ++r) {
    std::vector<double> row(static_cast<std::size_t>(rng.uniform_int(1, 160)));
    row[0] = 0.0;
    for (std::size_t w = 1; w < row.size(); ++w) {
      const double u = rng.uniform();
      if (u < 0.3) {
        row[w] = kNegInf;
      } else if (u < 0.5) {
        row[w] = row[w - 1];  // a plateau (or a -inf run)
      } else {
        row[w] = std::round(rng.uniform(0.0, 4.0) * 8.0) / 8.0;  // coarse: ties recur
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(DpSelect, StaircaseMatchesTheSerialRuleOverEveryRow) {
  const EnergyCurve continuous(PolynomialPowerModel::xscale(), 1.0,
                               IdleDiscipline::kDormantEnable);
  const EnergyCurve discrete(TablePowerModel::xscale5(), 1.0, IdleDiscipline::kDormantDisable);
  const double wpc = 1.0 / 160.0;  // 160 cycles fit at top speed
  const std::vector<std::pair<const char*, std::function<double(Cycles)>>> energies = {
      {"continuous", [&](Cycles w) { return continuous.energy(wpc * static_cast<double>(w)); }},
      {"table5", [&](Cycles w) { return discrete.energy(wpc * static_cast<double>(w)); }},
      {"step", [](Cycles w) { return 0.5 * static_cast<double>(w / 7); }},
  };
  DpStaircase stairs;
  for (const std::vector<double>& kept : staircase_rows()) {
    const std::size_t top = kept.size() - 1;
    dp_staircase(kept.data(), top, stairs);
    ASSERT_FALSE(stairs.rows.empty());
    EXPECT_EQ(stairs.rows.front(), 0u);
    double max_kept = 0.0;
    for (const double k : kept) max_kept = std::max(max_kept, k);
    for (const double total : {max_kept, max_kept + 0.75, max_kept + 3.0}) {
      for (const auto& [label, energy] : energies) {
        // One staircase taken at the widest row answers every narrower cap.
        for (std::size_t cap = 0; cap <= top; ++cap) {
          SCOPED_TRACE(std::string(label) + " width " + std::to_string(kept.size()) + " cap " +
                       std::to_string(cap) + " total " + std::to_string(total));
          const SerialPick want = serial_select(kept, cap, total, energy);
          const DpPick got = dp_select(stairs, cap, total, energy);
          EXPECT_EQ(got.best_w, want.best_w);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_objective),
                    std::bit_cast<std::uint64_t>(want.best_objective));
          EXPECT_LE(got.energy_evals, want.energy_evals);
        }
      }
    }
  }
}

/// Long value rows (500 to 6 000 cells) whose staircases hold hundreds to
/// thousands of records and so span many select blocks: a rising walk in
/// steps of 1/16 with dips, plateaus and -inf runs. The last row rises at
/// almost every cell, so its staircase needs more than kDpSelectMaxBlocks
/// blocks of sqrt(n) records.
std::vector<std::vector<double>> long_staircase_rows() {
  std::vector<std::vector<double>> rows;
  Rng rng(0x10CA1);
  for (const std::size_t width : {500, 1700, 3100, 6000, 6000}) {
    const bool steep = rows.size() == 4;
    std::vector<double> row(width);
    row[0] = 0.0;
    double level = 0.0;
    std::int64_t gap = 0;  // cells left in the current -inf run
    for (std::size_t w = 1; w < width; ++w) {
      const double u = rng.uniform();
      if (gap > 0 || (!steep && u < 0.04)) {
        gap = gap > 0 ? gap - 1 : rng.uniform_int(0, 30);
        row[w] = kNegInf;
      } else if (!steep && u < 0.25) {
        row[w] = row[w - 1];  // a plateau (or the -inf run goes on)
      } else {
        const std::int64_t step = steep ? rng.uniform_int(0, 4) : rng.uniform_int(-2, 6);
        level += static_cast<double>(step) / 16.0;
        row[w] = level;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Caps in [0, top] at which a select cuts the staircase `stairs` at a block
/// edge (at, one past and one before a multiple of its block size) or at
/// B^2 - 1, B^2 and B^2 + 1 records, each cap both on the last record it
/// keeps and on the row before the next record.
std::vector<std::size_t> block_edge_caps(const DpStaircase& stairs, std::size_t top) {
  const std::size_t records = stairs.rows.size();
  std::vector<std::size_t> counts;  // records at or below the cap
  for (std::size_t m = 1; m <= records; ++m) {
    const std::size_t size = dp_select_block_size(m);
    const std::size_t into_block = m % size;
    if (into_block <= 1 || into_block == size - 1) counts.push_back(m);
  }
  for (std::size_t b = 1; b * b <= records + 1; ++b) {
    for (const std::size_t m : {b * b - 1, b * b, b * b + 1}) {
      if (m >= 1 && m <= records) counts.push_back(m);
    }
  }
  std::vector<std::size_t> caps;
  for (const std::size_t m : counts) {
    caps.push_back(stairs.rows[m - 1]);
    caps.push_back(m < records ? stairs.rows[m] - 1 : top);
  }
  std::sort(caps.begin(), caps.end());
  caps.erase(std::unique(caps.begin(), caps.end()), caps.end());
  return caps;
}

TEST(DpSelect, BlockedWalkMatchesTheSerialRuleOnLongStaircases) {
  DpStaircase stairs;
  std::size_t checked = 0;
  for (const std::vector<double>& kept : long_staircase_rows()) {
    const std::size_t top = kept.size() - 1;
    dp_staircase(kept.data(), top, stairs);
    ASSERT_GE(stairs.rows.size(), 100u);
    double max_kept = 0.0;
    for (const double k : kept) max_kept = std::max(max_kept, k);
    // Step energies on the 1/16 grid of the kept values, so objectives are
    // exact and equal ones recur far apart; their slopes put the optimum
    // early, in the middle and late. The continuous curve fits the whole row
    // at top speed.
    const double slope = max_kept / static_cast<double>(top);
    const EnergyCurve continuous(PolynomialPowerModel::xscale(), 1.0,
                                 IdleDiscipline::kDormantEnable);
    const double wpc = 1.0 / static_cast<double>(top);
    std::vector<std::pair<std::string, std::function<double(Cycles)>>> energies = {
        {"continuous", [&](Cycles w) { return continuous.energy(wpc * static_cast<double>(w)); }}};
    for (const double factor : {0.5, 1.0, 2.0}) {
      const double step = std::max(1.0, std::round(factor * slope * 7.0 * 16.0)) / 16.0;
      energies.emplace_back("step " + std::to_string(step),
                            [step](Cycles w) { return step * static_cast<double>(w / 7); });
    }
    const std::vector<std::size_t> caps = block_edge_caps(stairs, top);
    for (const double total : {max_kept, max_kept + 2.0}) {
      for (const auto& [label, energy] : energies) {
        for (const std::size_t cap : caps) {
          SCOPED_TRACE(label + " width " + std::to_string(kept.size()) + " cap " +
                       std::to_string(cap) + " total " + std::to_string(total));
          const SerialPick want = serial_select(kept, cap, total, energy);
          const DpPick got = dp_select(stairs, cap, total, energy);
          ASSERT_EQ(got.best_w, want.best_w);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.best_objective),
                    std::bit_cast<std::uint64_t>(want.best_objective));
          ASSERT_LE(got.energy_evals, want.energy_evals);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(DpSelect, StaircaseKeepsOnlyStrictPrefixRecords) {
  const std::vector<double> kept = {0.0, kNegInf, 0.5, 0.5, 0.2, 1.0, kNegInf, 1.0, 2.0};
  DpStaircase stairs;
  dp_staircase(kept.data(), kept.size() - 1, stairs);
  EXPECT_EQ(stairs.rows, (std::vector<std::size_t>{0, 2, 5, 8}));
  EXPECT_EQ(stairs.kept, (std::vector<double>{0.0, 0.5, 1.0, 2.0}));
  dp_staircase(kept.data(), 4, stairs);  // a narrower cap, reusing the buffers
  EXPECT_EQ(stairs.rows, (std::vector<std::size_t>{0, 2}));
}

TEST(DpSelect, StaircaseOfAStrictlyRisingRowKeepsEveryRowAcrossReuses) {
  // Every row is a record, so the output grows through every chunk of the
  // scan to the row's full width; the same buffers then serve a wide, a
  // narrow and a wide scan again.
  std::vector<double> rising(4097);
  for (std::size_t w = 0; w < rising.size(); ++w) rising[w] = 0.25 * static_cast<double>(w);
  DpStaircase stairs;
  for (const std::size_t cap : {4096, 4096, 3, 0, 4096, 255, 256, 257}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    dp_staircase(rising.data(), cap, stairs);
    ASSERT_EQ(stairs.rows.size(), cap + 1);
    ASSERT_EQ(stairs.kept.size(), cap + 1);
    for (std::size_t w = 0; w <= cap; ++w) {
      ASSERT_EQ(stairs.rows[w], w);
      ASSERT_EQ(stairs.kept[w], rising[w]);
    }
  }
}

// ---------------------------------------------------------------------------
// Property sweep: DP == exhaustive optimum on random instances across loads,
// penalty scales and idle disciplines.

struct DpSweepCase {
  double load;
  double penalty_scale;
  IdleDiscipline idle;
};

class ExactDpEquivalence : public ::testing::TestWithParam<DpSweepCase> {};

TEST_P(ExactDpEquivalence, MatchesExhaustiveOptimum) {
  const DpSweepCase& c = GetParam();
  const ExactDpSolver dp;
  const ExhaustiveSolver exhaustive;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RejectionProblem p =
        test::small_instance(seed, 9, c.load, c.penalty_scale, 1, c.idle);
    const RejectionSolution a = dp.solve(p);
    const RejectionSolution b = exhaustive.solve(p);
    EXPECT_NEAR(a.objective(), b.objective(), 1e-6 * std::max(1.0, b.objective()))
        << "seed " << seed << " load " << c.load << " scale " << c.penalty_scale;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadsAndScales, ExactDpEquivalence,
    ::testing::Values(DpSweepCase{0.6, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.0, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.6, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{2.5, 1.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.4, 0.2, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.4, 5.0, IdleDiscipline::kDormantEnable},
                      DpSweepCase{1.2, 1.0, IdleDiscipline::kDormantDisable},
                      DpSweepCase{2.0, 0.5, IdleDiscipline::kDormantDisable}));

}  // namespace
}  // namespace retask
