#include "retask/core/fptas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/common/bit_matrix.hpp"
#include "retask/common/error.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/core/greedy.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/obs/trace.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

/// One scaled-DP round under the guess G. Returns the best solution found
/// (always a genuine feasible solution) or an empty optional-like flag via
/// `found`.
RejectionSolution scaled_round(const RejectionProblem& problem, double guess, double eps_int,
                               bool& found, FptasScratch& scratch) {
  const std::size_t n = problem.size();
  const double delta = eps_int * guess / static_cast<double>(n);
  RETASK_ASSERT(delta > 0.0);

  // Tasks with penalty above the guess cannot be rejected by any solution of
  // value <= guess: force-accept them. The scaled penalty floor(penalty /
  // delta) is computed once here and shared by the DP fill and the
  // reconstruction, so the two sites can never disagree.
  std::vector<std::size_t>& movable = scratch.movable;
  std::vector<std::size_t>& quant = scratch.quant;
  movable.clear();
  quant.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const FrameTask& task = problem.tasks()[i];
    if (task.penalty <= guess) {
      movable.push_back(i);
      quant.push_back(static_cast<std::size_t>(std::floor(task.penalty / delta)));
    }
  }

  // Rows 0 ..= ceil(guess / delta) + movable. The width is formed in double
  // first: casting one past size_t's range would be undefined, and below
  // 2^53 every integer-valued double casts exactly. The two value rows and
  // the choice bits then go through the table budget before any allocation.
  const double cells = std::ceil(guess / delta) + static_cast<double>(movable.size()) + 1.0;
  if (!(cells < 0x1p53)) {
    throw Error("FptasSolver: DP table of " + std::to_string(cells) +
                " cells overflows size_t bytes");
  }
  const auto width = static_cast<std::size_t>(cells);
  require_dp_table_budget("FptasSolver", width, 2, movable.size());

  constexpr Cycles kNone = -1;
  // rej[r]: max cycles rejectable at scaled penalty exactly r; true_pen[r]
  // carries the exact penalty of that set so candidates are evaluated
  // without rounding error.
  std::vector<Cycles>& rej = scratch.rej;
  std::vector<double>& true_pen = scratch.true_pen;
  rej.assign(width, kNone);
  true_pen.assign(width, 0.0);
  rej[0] = 0;
  BitMatrix& take = scratch.take;
  take.reset(movable.size(), width);

  // reachable: largest row index any processed task combination can have
  // filled so far; rows above it are all kNone, so the relaxation skips
  // them without even reading.
  std::size_t reachable = 0;
  const simd::KernelTable& kernels = simd::kernels();
  RETASK_OBS_ONLY(std::uint64_t cells_touched = 0;)
  for (std::size_t k = 0; k < movable.size(); ++k) {
    const FrameTask& task = problem.tasks()[movable[k]];
    const std::size_t q = quant[k];
    if (q >= width) continue;  // cannot fit any budget row
    const std::size_t top = std::min(width - 1, reachable + q);
    RETASK_OBS_ONLY(cells_touched += top + 1 - q;)
    // Vectorized descending relaxation over the int64 row with the exact
    // penalty carried as the paired payload.
    kernels.relax_desc_i64(rej.data(), true_pen.data(), take.row_words(k), q, q, top,
                           task.cycles, task.penalty);
    reachable = top;
  }
  RETASK_COUNT("fptas.cells_touched", cells_touched);
  RETASK_COUNT("fptas.movable_tasks", movable.size());
  RETASK_RECORD("fptas.table_width", width);

  // Sweep rows in ascending order and keep the first row of least TRUE
  // objective, starting from the incumbent's value (the guess): rows that
  // cannot strictly beat it would be discarded by solve() anyway, so `found`
  // means "found an improving row". A row with true_pen >= guess has
  // objective >= guess (energy >= 0) and is skipped before its energy is
  // evaluated. The skip tests the round-start guess, not the running best,
  // so fptas.energy_evals counts every row that could beat the incumbent.
  const Cycles total = problem.tasks().total_cycles();
  double best_objective = guess;
  std::size_t best_r = width;
  RETASK_OBS_ONLY(std::uint64_t energy_evals = 0;)
  for (std::size_t r = 0; r < width; ++r) {
    if (rej[r] == kNone) continue;
    const Cycles accepted_cycles = total - rej[r];
    if (accepted_cycles > problem.cycle_capacity()) continue;
    if (true_pen[r] >= guess) continue;
    RETASK_OBS_ONLY(++energy_evals;)
    const double objective = problem.energy_of_cycles(accepted_cycles) + true_pen[r];
    if (objective < best_objective) {
      best_objective = objective;
      best_r = r;
    }
  }
  RETASK_COUNT("fptas.energy_evals", energy_evals);
  if (best_r == width) {
    found = false;
    return RejectionSolution{};
  }
  found = true;

  // Reconstruct the rejected set backwards.
  std::vector<bool> accepted(n, true);
  std::size_t r = best_r;
  for (std::size_t k = movable.size(); k-- > 0;) {
    if (take.test(k, r)) {
      accepted[movable[k]] = false;
      r -= quant[k];
    }
  }
  RETASK_ASSERT(r == 0);
  return make_solution_on_one(problem, std::move(accepted));
}

}  // namespace

FptasSolver::FptasSolver(double epsilon) : epsilon_(epsilon) {
  require(epsilon > 0.0, "FptasSolver: epsilon must be positive");
}

std::string FptasSolver::name() const {
  std::ostringstream os;
  os << "FPTAS(" << epsilon_ << ")";
  return os.str();
}

RejectionSolution FptasSolver::solve(const RejectionProblem& problem) const {
  RETASK_SCOPED_TIMER("fptas.solve_ns");
  RETASK_TRACE_SCOPE("fptas.solve");
  require(problem.processor_count() == 1, "FptasSolver: single-processor algorithm");

  // Upper bound from a genuine heuristic solution.
  RejectionSolution best = make_solution_on_one(problem, density_greedy_accepted(problem));
  RETASK_OBS_ONLY(const double seed_objective = best.objective();)
  const double eps_int = epsilon_ / (1.0 + epsilon_);
  RETASK_COUNT("fptas.solves", 1);

  // A zero objective is already optimal (nothing to approximate).
  if (best.objective() <= 0.0) return best;

  FptasScratch& scratch = fptas_scratch();
  constexpr int kMaxRounds = 40;
  RETASK_OBS_ONLY(std::uint64_t rounds = 0;)
  for (int round = 0; round < kMaxRounds; ++round) {
    RETASK_OBS_ONLY(++rounds;)
    bool found = false;
    const RejectionSolution candidate =
        scaled_round(problem, best.objective(), eps_int, found, scratch);
    if (!found) break;
    const double improvement = best.objective() - candidate.objective();
    if (candidate.objective() < best.objective()) best = candidate;
    // Fixpoint: the guess can no longer shrink meaningfully.
    if (improvement <= 1e-12 * std::max(1.0, best.objective())) break;
  }
  RETASK_COUNT("fptas.guess_rounds", rounds);
  // How much the guess refinement tightened the greedy seed: seed/final - 1
  // is the seed's relative error certified by the rounds actually run.
  RETASK_OBS_ONLY(if (best.objective() > 0.0) {
    RETASK_RECORD("fptas.seed_gap", seed_objective / best.objective() - 1.0);
  })
  return best;
}

}  // namespace retask
