// Tests for the SIMD kernel layer: the AVX2 backend (where the host runs it)
// must reproduce the scalar reference kernels bit for bit at every width
// (including the vector-width edges), and whole solvers must be backend- and
// thread-count-invariant down to the last bit.
#include "retask/simd/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/table_power.hpp"
#include "retask/simd/backend.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Row widths covering the interesting edges: below, at and above the AVX2
/// width (4 lanes), the 16-row step of the f64 relaxation and their
/// multiples, the take-bit word boundary, and bulk sizes.
const std::vector<std::size_t> kWidths = {1,  2,  3,  4,  5,  7,  8,   9,   15,  16,  17,  31,
                                          32, 33, 48, 49, 50, 63, 64,  65,  79,  80,  81,  127,
                                          128, 129, 130, 4096, 4097};

/// Bitwise equality for doubles (distinguishes -0.0 from 0.0 and compares
/// NaN/inf payloads exactly).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

/// A random DP value row: mostly finite values, ~25% -inf sentinels.
std::vector<double> random_f64_row(Rng& rng, std::size_t width) {
  std::vector<double> row(width);
  for (double& v : row) {
    v = rng.uniform() < 0.25 ? -kInf : rng.uniform(-50.0, 50.0);
  }
  return row;
}

TEST(SimdBackend, ParseNamesRoundTrip) {
  simd::Backend b = simd::Backend::kScalar;
  EXPECT_TRUE(simd::parse_backend("off", b));
  EXPECT_EQ(b, simd::Backend::kScalar);
  EXPECT_TRUE(simd::parse_backend("scalar", b));
  EXPECT_EQ(b, simd::Backend::kScalar);
  EXPECT_TRUE(simd::parse_backend("avx2", b));
  EXPECT_EQ(b, simd::Backend::kAvx2);
  // "auto" and "" defer to detection: recognized but not a fixed backend.
  EXPECT_FALSE(simd::parse_backend("auto", b));
  EXPECT_FALSE(simd::parse_backend("", b));
  // Only scalar and avx2 name a backend; sse2 and neon are errors too.
  for (const char* name : {"avx512", "sse2", "neon"}) {
    EXPECT_THROW(simd::parse_backend(name, b), Error) << name;
  }
  EXPECT_EQ(simd::to_string(simd::Backend::kScalar), "scalar");
  EXPECT_EQ(simd::to_string(simd::Backend::kAvx2), "avx2");
}

TEST(SimdBackend, ScalarAlwaysAvailableAndDetectIsAvailable) {
  EXPECT_TRUE(simd::backend_available(simd::Backend::kScalar));
  EXPECT_TRUE(simd::backend_available(simd::detect_backend()));
  EXPECT_EQ(simd::detect_backend() == simd::Backend::kAvx2,
            simd::backend_available(simd::Backend::kAvx2));
  simd::ScopedBackend forced(simd::Backend::kScalar);
  EXPECT_EQ(&simd::kernels(), &simd::kernels_for(simd::Backend::kScalar));
}

TEST(SimdBackend, ScopedOverrideNestsAndRestores) {
  const simd::Backend ambient = simd::active_backend();
  {
    simd::ScopedBackend outer(simd::Backend::kScalar);
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
    if (simd::backend_available(simd::Backend::kAvx2)) {
      simd::ScopedBackend inner(simd::Backend::kAvx2);
      EXPECT_EQ(simd::active_backend(), simd::Backend::kAvx2);
    }
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  }
  EXPECT_EQ(simd::active_backend(), ambient);
}

TEST(SimdKernels, RelaxF64MatchesScalarAtEveryWidth) {
  const simd::KernelTable& scalar = simd::kernels_for(simd::Backend::kScalar);
  for (const simd::Backend backend : test::available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t width : kWidths) {
      Rng rng(0xC0FFEE ^ (width * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 8; ++rep) {
        const auto shift = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(width) - 1));
        const std::vector<double> base = random_f64_row(rng, width);
        const std::size_t words = (width + 63) / 64;
        std::vector<std::uint64_t> base_take(words);
        for (auto& w : base_take) w = rng();
        const double add = rng.uniform(0.1, 20.0);

        std::vector<double> row_a = base;
        std::vector<double> row_b = base;
        std::vector<std::uint64_t> take_a = base_take;
        std::vector<std::uint64_t> take_b = base_take;
        scalar.relax_desc_f64(row_a.data(), take_a.data(), shift, shift, width - 1, add);
        table.relax_desc_f64(row_b.data(), take_b.data(), shift, shift, width - 1, add);
        for (std::size_t w = 0; w < width; ++w) {
          ASSERT_TRUE(bits_equal(row_a[w], row_b[w]))
              << simd::to_string(backend) << " width=" << width << " shift=" << shift
              << " w=" << w;
        }
        ASSERT_EQ(take_a, take_b) << simd::to_string(backend) << " width=" << width;
      }
    }
  }
}

TEST(SimdKernels, RelaxF64MatchesScalarAtEveryShiftAndWordOffset) {
  // Shifts 0-17 put a step's sources inside the rows it writes, and 64
  // consecutive upper ends start the steps at every bit offset of a take
  // word, so the OR that straddles two words runs at each offset.
  const simd::KernelTable& scalar = simd::kernels_for(simd::Backend::kScalar);
  constexpr std::size_t kWidth = 300;
  for (const simd::Backend backend : test::available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    Rng rng(0x5171F7 ^ static_cast<std::size_t>(backend));
    for (std::size_t shift = 0; shift <= 17; ++shift) {
      for (std::size_t offset = 0; offset < 64; ++offset) {
        const std::size_t hi = kWidth - 1 - offset;
        const std::size_t lo = shift + offset % 5;
        const std::vector<double> base = random_f64_row(rng, kWidth);
        std::vector<std::uint64_t> base_take((kWidth + 63) / 64);
        for (auto& w : base_take) w = rng() & rng();  // sparse, so new bits show
        const double add = shift == 0 ? rng.uniform(-1.0, 1.0) : rng.uniform(0.1, 20.0);

        std::vector<double> row_a = base;
        std::vector<double> row_b = base;
        std::vector<std::uint64_t> take_a = base_take;
        std::vector<std::uint64_t> take_b = base_take;
        scalar.relax_desc_f64(row_a.data(), take_a.data(), shift, lo, hi, add);
        table.relax_desc_f64(row_b.data(), take_b.data(), shift, lo, hi, add);
        for (std::size_t w = 0; w < kWidth; ++w) {
          ASSERT_TRUE(bits_equal(row_a[w], row_b[w]))
              << simd::to_string(backend) << " shift=" << shift << " hi=" << hi << " w=" << w;
        }
        ASSERT_EQ(take_a, take_b) << simd::to_string(backend) << " shift=" << shift
                                  << " hi=" << hi;
      }
    }
  }
}

TEST(SimdKernels, RelaxF64EmptyRangeIsANoop) {
  for (const simd::Backend backend : test::available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    std::vector<double> row = {1.0, 2.0, 3.0};
    std::vector<std::uint64_t> take = {0};
    // hi < lo: the descending loop never executes.
    table.relax_desc_f64(row.data(), take.data(), 2, 2, 1, 5.0);
    EXPECT_EQ(row, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(take[0], 0u);
  }
}

TEST(SimdKernels, RelaxI64MatchesScalarAtEveryWidth) {
  const simd::KernelTable& scalar = simd::kernels_for(simd::Backend::kScalar);
  for (const simd::Backend backend : test::available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t width : kWidths) {
      Rng rng(0xBADD1E ^ (width * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 8; ++rep) {
        const auto shift = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(width) - 1));
        std::vector<std::int64_t> base_rej(width);
        std::vector<double> base_pay(width);
        for (std::size_t w = 0; w < width; ++w) {
          base_rej[w] = rng.uniform() < 0.3 ? -1 : rng.uniform_int(0, 1000000);
          base_pay[w] = rng.uniform(0.0, 100.0);
        }
        const std::size_t words = (width + 63) / 64;
        std::vector<std::uint64_t> base_take(words);
        for (auto& w : base_take) w = rng();
        const std::int64_t add_cycles = rng.uniform_int(1, 5000);
        const double add_pay = rng.uniform(0.1, 10.0);

        std::vector<std::int64_t> rej_a = base_rej;
        std::vector<std::int64_t> rej_b = base_rej;
        std::vector<double> pay_a = base_pay;
        std::vector<double> pay_b = base_pay;
        std::vector<std::uint64_t> take_a = base_take;
        std::vector<std::uint64_t> take_b = base_take;
        scalar.relax_desc_i64(rej_a.data(), pay_a.data(), take_a.data(), shift, shift, width - 1,
                              add_cycles, add_pay);
        table.relax_desc_i64(rej_b.data(), pay_b.data(), take_b.data(), shift, shift, width - 1,
                             add_cycles, add_pay);
        ASSERT_EQ(rej_a, rej_b) << simd::to_string(backend) << " width=" << width;
        for (std::size_t w = 0; w < width; ++w) {
          ASSERT_TRUE(bits_equal(pay_a[w], pay_b[w]))
              << simd::to_string(backend) << " width=" << width << " w=" << w;
        }
        ASSERT_EQ(take_a, take_b) << simd::to_string(backend) << " width=" << width;
      }
    }
  }
}

/// A discrete-model rejection instance.
RejectionProblem hull_instance(std::uint64_t seed, int task_count = 12, double load = 1.6) {
  ScenarioConfig config;
  config.task_count = task_count;
  config.load = load;
  config.resolution = 400.0;
  config.seed = seed;
  return make_scenario(config, TablePowerModel::xscale5());
}

TEST(SimdSolvers, EveryBackendReproducesForcedScalarBitwise) {
  std::vector<std::unique_ptr<RejectionSolver>> solvers;
  solvers.push_back(std::make_unique<ExactDpSolver>());
  solvers.push_back(std::make_unique<FptasSolver>(0.1));
  solvers.push_back(std::make_unique<DensityGreedySolver>());
  solvers.push_back(std::make_unique<MarginalGreedySolver>());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Both model families: continuous and discrete. The exact DP's list
    // phase solves these without a kernel, so two shapes it hands off to the
    // dense relaxation follow: an mp-scale PE and more than 64 tasks.
    const std::vector<RejectionProblem> problems = {
        test::small_instance(seed, 12, 1.6), hull_instance(seed), test::mp_pe_instance(seed),
        test::mask_width_instance(seed)};
    constexpr std::size_t kFirstHandoff = 2;
    for (std::size_t p = 0; p < problems.size(); ++p) {
      for (std::size_t s = 0; s < solvers.size(); ++s) {
        const RejectionSolver& solver = *solvers[s];
        SCOPED_TRACE(solver.name() + " seed=" + std::to_string(seed) +
                     " problem=" + std::to_string(p));
        RejectionSolution reference;
        {
          simd::ScopedBackend forced(simd::Backend::kScalar);
          reference = solver.solve(problems[p]);
        }
        for (const simd::Backend backend : test::available_backends()) {
          simd::ScopedBackend forced(backend);
          obs::Registry metrics;
          RejectionSolution got;
          {
            obs::ActiveScope scope(metrics);
            got = solver.solve(problems[p]);
          }
          EXPECT_EQ(got.accepted, reference.accepted) << simd::to_string(backend);
          EXPECT_TRUE(bits_equal(got.energy, reference.energy)) << simd::to_string(backend);
          EXPECT_TRUE(bits_equal(got.penalty, reference.penalty)) << simd::to_string(backend);
          if (test::kObsEnabled && s == 0 && p >= kFirstHandoff) {
            EXPECT_EQ(test::dense_handoffs(metrics, "exact_dp"), 1u) << simd::to_string(backend);
          }
        }
      }
    }
  }
}

TEST(SimdSolvers, BudgetedDpIsBackendInvariant) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // As above, the last two shapes run the dense phase of the fill.
    const std::vector<RejectionProblem> sources = {
        hull_instance(seed, 10, 1.4), test::mp_pe_instance(seed), test::mask_width_instance(seed)};
    for (std::size_t p = 0; p < sources.size(); ++p) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " problem=" + std::to_string(p));
      const RejectionProblem& source = sources[p];
      BudgetedProblem problem{
          source.tasks(), source.curve(), source.work_per_cycle(),
          /*energy_budget=*/0.6 * source.energy_of_cycles(
              std::min(source.tasks().total_cycles(), source.cycle_capacity()))};
      BudgetedSolution reference;
      {
        simd::ScopedBackend forced(simd::Backend::kScalar);
        reference = solve_budgeted_dp(problem);
      }
      for (const simd::Backend backend : test::available_backends()) {
        simd::ScopedBackend forced(backend);
        obs::Registry metrics;
        BudgetedSolution got;
        {
          obs::ActiveScope scope(metrics);
          got = solve_budgeted_dp(problem);
        }
        EXPECT_EQ(got.accepted, reference.accepted) << simd::to_string(backend);
        EXPECT_TRUE(bits_equal(got.value, reference.value)) << simd::to_string(backend);
        EXPECT_TRUE(bits_equal(got.energy, reference.energy)) << simd::to_string(backend);
        if (test::kObsEnabled && p > 0) {
          EXPECT_EQ(test::dense_handoffs(metrics, "budgeted"), 1u) << simd::to_string(backend);
        }
      }
    }
  }
}

/// Restores the process-wide backend on scope exit (the jobs-invariance test
/// must force worker threads too, which the thread-local override cannot).
class GlobalBackendGuard {
 public:
  explicit GlobalBackendGuard(simd::Backend forced) : saved_(simd::active_backend()) {
    simd::set_backend(forced);
  }
  ~GlobalBackendGuard() { simd::set_backend(saved_); }
  GlobalBackendGuard(const GlobalBackendGuard&) = delete;
  GlobalBackendGuard& operator=(const GlobalBackendGuard&) = delete;

 private:
  simd::Backend saved_;
};

TEST(SimdSolvers, HarnessStatsAreJobCountInvariantUnderEveryBackend) {
  const auto factory = [](std::uint64_t seed) { return hull_instance(seed, 10, 1.5); };
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  for (const simd::Backend backend : test::available_backends()) {
    SCOPED_TRACE(std::string("backend=") + std::string(simd::to_string(backend)));
    GlobalBackendGuard forced(backend);
    std::vector<std::unique_ptr<RejectionSolver>> lineup;
    lineup.push_back(std::make_unique<DensityGreedySolver>());
    lineup.push_back(std::make_unique<FptasSolver>(0.1));
    constexpr int kInstances = 24;
    const auto sequential = run_comparison(factory, lineup, reference, kInstances, 1, /*jobs=*/1);
    const auto parallel = run_comparison(factory, lineup, reference, kInstances, 1, /*jobs=*/8);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t a = 0; a < sequential.size(); ++a) {
      SCOPED_TRACE(sequential[a].name);
      EXPECT_EQ(sequential[a].ratio.mean(), parallel[a].ratio.mean());
      EXPECT_EQ(sequential[a].ratio.variance(), parallel[a].ratio.variance());
      EXPECT_EQ(sequential[a].objective.mean(), parallel[a].objective.mean());
      EXPECT_EQ(sequential[a].objective.min(), parallel[a].objective.min());
      EXPECT_EQ(sequential[a].objective.max(), parallel[a].objective.max());
    }
  }
}

}  // namespace
}  // namespace retask
