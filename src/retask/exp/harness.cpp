#include "retask/exp/harness.hpp"

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/solution.hpp"

namespace retask {
namespace {

/// Scores one solved cell into its slot: revalidates the solution, guards
/// the reference, and feeds the per-cell accumulators.
void score_cell(const RejectionProblem& problem, const RejectionSolution& solution, double ref,
                AlgoStats& slot) {
  check_solution(problem, solution);
  const double obj = solution.objective();
  const double ratio = ref > 0.0 ? obj / ref : (obj > 0.0 ? 2.0 : 1.0);
  // Guard against a buggy "reference": no algorithm may beat an optimal
  // reference by more than numerical noise. Lower bounds are <= obj by
  // construction, so the same check applies.
  require(ratio >= 1.0 - 1e-6, "run_comparison: algorithm beat the reference objective");
  slot.ratio.add(ratio);
  slot.acceptance.add(solution.acceptance_ratio());
  slot.objective.add(obj);
}

}  // namespace

void AlgoStats::merge(const AlgoStats& other) {
  ratio.merge(other.ratio);
  acceptance.merge(other.acceptance);
  objective.merge(other.objective);
  metrics.merge(other.metrics);
}

std::vector<std::vector<AlgoStats>> run_comparison_batch(
    const std::vector<ProblemFactory>& factories,
    const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
    const ReferenceObjective& reference, int instances, std::uint64_t seed0, int jobs,
    const BatchOptions& options) {
  require(!factories.empty(), "run_comparison: at least one sweep point required");
  require(instances >= 1, "run_comparison: at least one instance required");
  require(!lineup.empty(), "run_comparison: empty algorithm lineup");

  const std::size_t points = factories.size();
  const std::size_t algos = lineup.size();
  const auto reps = static_cast<std::size_t>(instances);

  // One slot per point x instance x algorithm cell, written by exactly one
  // worker; reduced in index order below so the aggregates do not depend on
  // the parallel interleaving. The parallel unit is one instance (one seed
  // across every sweep point), which keeps the state sweep reuse shares
  // between points on a single thread.
  std::vector<AlgoStats> slots(points * reps * algos);
  const auto slot_at = [&](std::size_t point, std::size_t k, std::size_t a) -> AlgoStats& {
    return slots[((point * reps + k) * algos) + a];
  };

  parallel_for(reps, [&](std::size_t k) {
    std::vector<RejectionProblem> problems;
    std::vector<double> refs(points);
    problems.reserve(points);
    for (std::size_t point = 0; point < points; ++point) {
      problems.push_back(factories[point](seed0 + static_cast<std::uint64_t>(k)));
      if (options.shared_energy_memo != nullptr) {
        problems.back().attach_energy_memo(options.shared_energy_memo);
      }
    }
    for (std::size_t point = 0; point < points; ++point) {
      refs[point] = reference(problems[point]);
      require(refs[point] >= 0.0, "run_comparison: negative reference objective");
    }
    // Sweep-reuse grouping: points carrying one task set (a capacity /
    // work_per_cycle sweep) are handed to the solver as a batch so it can
    // share work across them (e.g. the exact DP's warm-started table).
    bool reuse = options.sweep_reuse && points > 1;
    for (std::size_t point = 1; point < points && reuse; ++point) {
      reuse = same_task_sets(problems[0].tasks(), problems[point].tasks());
    }
    std::vector<const RejectionProblem*> group;
    if (reuse) {
      for (const RejectionProblem& problem : problems) group.push_back(&problem);
    }

    for (std::size_t a = 0; a < algos; ++a) {
      std::vector<RejectionSolution> solutions(points);
      if (reuse) {
        // Shared work has no per-point attribution, so the whole sweep's
        // solver metrics land in the first point's slot (documented on
        // BatchOptions::sweep_reuse).
        obs::ActiveScope scope(slot_at(0, k, a).metrics);
        solutions = lineup[a]->solve_sweep(group);
        RETASK_ASSERT(solutions.size() == points);
      }
      for (std::size_t point = 0; point < points; ++point) {
        const RejectionProblem& problem = problems[point];
        AlgoStats& slot = slot_at(point, k, a);
        {
          // Attribute the solver's metrics to this point x instance x algo
          // cell. The whole cell runs on one thread, so the scoped registry
          // sees exactly this solve; on scope exit it also folds into the
          // thread's default registry, keeping process totals complete.
          obs::ActiveScope scope(slot.metrics);
          if (!reuse) solutions[point] = lineup[a]->solve(problem);
          RETASK_COUNT("harness.solves", 1);
          RETASK_COUNT("harness.tasks_total", problem.size());
          RETASK_COUNT("harness.tasks_rejected",
                       problem.size() - solutions[point].accepted_count());
        }
        score_cell(problem, solutions[point], refs[point], slot);
      }
    }
  }, jobs);

  std::vector<std::vector<AlgoStats>> stats(points, std::vector<AlgoStats>(algos));
  for (std::size_t point = 0; point < points; ++point) {
    for (std::size_t a = 0; a < algos; ++a) stats[point][a].name = lineup[a]->name();
    for (std::size_t k = 0; k < reps; ++k) {
      for (std::size_t a = 0; a < algos; ++a) {
        stats[point][a].merge(slot_at(point, k, a));
      }
    }
  }
  return stats;
}

std::vector<AlgoStats> run_comparison(const ProblemFactory& factory,
                                      const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
                                      const ReferenceObjective& reference, int instances,
                                      std::uint64_t seed0, int jobs) {
  auto stats = run_comparison_batch({factory}, lineup, reference, instances, seed0, jobs);
  return std::move(stats.front());
}

}  // namespace retask
