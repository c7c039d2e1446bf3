#include "retask/exp/harness.hpp"

#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/solution.hpp"

namespace retask {
namespace {

/// The scores of one point x instance x algorithm cell.
struct CellScores {
  OnlineStats ratio;
  OnlineStats acceptance;
  OnlineStats objective;
};

/// Scores one solved cell into its slot: revalidates the solution, guards
/// the reference, and feeds the per-cell accumulators.
void score_cell(const RejectionProblem& problem, const RejectionSolution& solution, double ref,
                CellScores& slot) {
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

/// The solver-metrics registries of one thread that runs instances of a
/// harness call: one per point x algorithm, at index point * algos + a.
struct ThreadMetrics {
  std::thread::id thread;
  std::vector<obs::Registry> registries;
};

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
  std::vector<CellScores> slots(points * reps * algos);
  const auto slot_at = [&](std::size_t point, std::size_t k, std::size_t a) -> CellScores& {
    return slots[((point * reps + k) * algos) + a];
  };

  // Solver metrics need no per-instance order (their merges commute), so
  // each thread records the cells of one point x algorithm into one
  // registry across all the instances it runs, instead of growing a fresh
  // registry per cell. A deque keeps each thread's entry in place while
  // later threads append theirs.
  std::mutex thread_metrics_mutex;
  std::deque<ThreadMetrics> thread_metrics;
  const auto registries_of_this_thread = [&]() -> std::vector<obs::Registry>& {
    const std::thread::id self = std::this_thread::get_id();
    const std::lock_guard<std::mutex> lock(thread_metrics_mutex);
    for (ThreadMetrics& entry : thread_metrics) {
      if (entry.thread == self) return entry.registries;
    }
    thread_metrics.push_back({self, std::vector<obs::Registry>(points * algos)});
    return thread_metrics.back().registries;
  };

  const auto run_instance = [&](std::size_t k) {
    std::vector<obs::Registry>& metrics = registries_of_this_thread();
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
        // solver metrics land in the first point's registry (documented on
        // BatchOptions::sweep_reuse).
        obs::ActiveScope scope(metrics[a], /*fold_into_parent=*/false);
        solutions = lineup[a]->solve_sweep(group);
        RETASK_ASSERT(solutions.size() == points);
      }
      for (std::size_t point = 0; point < points; ++point) {
        const RejectionProblem& problem = problems[point];
        {
          // Attribute the solver's metrics to this point x algorithm. The
          // whole cell runs on one thread, so the scoped registry sees
          // exactly this solve; the registries fold into the caller's once
          // the call is done.
          obs::ActiveScope scope(metrics[(point * algos) + a], /*fold_into_parent=*/false);
          if (!reuse) solutions[point] = lineup[a]->solve(problem);
          RETASK_COUNT("harness.solves", 1);
          RETASK_COUNT("harness.tasks_total", problem.size());
          RETASK_COUNT("harness.tasks_rejected",
                       problem.size() - solutions[point].accepted_count());
        }
        score_cell(problem, solutions[point], refs[point], slot_at(point, k, a));
      }
    }
  };
  try {
    parallel_for(reps, run_instance, jobs);
  } catch (...) {
    // A failed call returns no stats, but what its solves recorded still
    // counts in the caller's totals.
    obs::Registry& caller = obs::active();
    for (const ThreadMetrics& entry : thread_metrics) {
      for (const obs::Registry& registry : entry.registries) caller.merge(registry);
    }
    throw;
  }

  std::vector<std::vector<AlgoStats>> stats(points, std::vector<AlgoStats>(algos));
  for (std::size_t point = 0; point < points; ++point) {
    for (std::size_t a = 0; a < algos; ++a) {
      AlgoStats& out = stats[point][a];
      out.name = lineup[a]->name();
      for (std::size_t k = 0; k < reps; ++k) {
        const CellScores& cell = slot_at(point, k, a);
        out.ratio.merge(cell.ratio);
        out.acceptance.merge(cell.acceptance);
        out.objective.merge(cell.objective);
      }
    }
  }
  // The threads' registries merge in any order to the same deterministic
  // rows; the first thread's are moved rather than merged into empty ones.
  // Each merged registry then folds once into the caller's active registry,
  // so a caller's obs::ActiveScope sees the whole call at any job count.
  for (std::size_t t = 0; t < thread_metrics.size(); ++t) {
    std::vector<obs::Registry>& registries = thread_metrics[t].registries;
    for (std::size_t point = 0; point < points; ++point) {
      for (std::size_t a = 0; a < algos; ++a) {
        obs::Registry& merged = stats[point][a].metrics;
        obs::Registry& mine = registries[(point * algos) + a];
        if (t == 0) {
          merged = std::move(mine);
        } else {
          merged.merge(mine);
        }
      }
    }
  }
  obs::Registry& caller = obs::active();
  for (const std::vector<AlgoStats>& point : stats) {
    for (const AlgoStats& algorithm : point) caller.merge(algorithm.metrics);
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
