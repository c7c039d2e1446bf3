// retask_cli — solve task-rejection instances from task-set files.
//
//   retask_cli --input tasks.csv --solver opt-dp --capacity 100
//   retask_cli --input periodic.csv --mode periodic --solver fptas:0.05
//
// The tool reads the task set, builds the requested scheduling instance,
// solves it, prints the decision report, and (periodic mode) re-executes the
// accepted set in the EDF simulator to certify schedulability.
#include <iomanip>
#include <iostream>

#include "retask/io/cli_options.hpp"
#include "retask/io/task_io.hpp"
#include "retask/retask.hpp"
#include "retask/simd/backend.hpp"

namespace {

using namespace retask;

// --stochastic: replay the accepted set under every stochastic policy with
// matched seeded actual-cycle trajectories and print the per-policy
// mean-energy table. The same trajectories feed every policy, so the rows
// are matched-pair comparable, and the seed makes the table replayable.
void print_stochastic_replay(const RejectionProblem& problem, const RejectionSolution& solution,
                             const CliOptions& options) {
  const TrajectoryDistribution dist = parse_distribution(options.stochastic);
  std::vector<FrameTask> accepted;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    if (solution.accepted[i]) accepted.push_back(problem.tasks()[i]);
  }
  std::cout << "\n# stochastic replay: " << accepted.size() << " accepted task(s), "
            << options.trajectories << " trajectories of " << options.stochastic
            << " (mean ACET/WCET " << dist.mean_ratio() << "), "
            << (options.ladder > 0 ? std::to_string(options.ladder) + "-level ladder"
                                   : std::string("continuous speeds"))
            << ", seed " << options.trajectory_seed << "\n";
  if (accepted.empty()) {
    std::cout << "nothing accepted, nothing to execute\n";
    return;
  }

  Rng rng(options.trajectory_seed);
  std::vector<std::vector<Cycles>> trajectories;
  trajectories.reserve(static_cast<std::size_t>(options.trajectories));
  for (int t = 0; t < options.trajectories; ++t) {
    trajectories.push_back(draw_trajectory(accepted, dist, rng));
  }

  std::unique_ptr<FreqLadder> ladder;
  if (options.ladder > 0) {
    ladder = std::make_unique<FreqLadder>(
        FreqLadder::from_model(problem.curve().model(), options.ladder));
  }

  std::cout << std::left << std::setw(18) << "policy" << std::right << std::setw(14)
            << "mean energy" << std::setw(18) << "mean completion" << std::setw(10) << "misses"
            << "\n";
  for (const StochasticPolicy policy : all_stochastic_policies()) {
    StochasticFrameConfig config;
    config.policy = policy;
    config.ladder = ladder.get();
    config.expected_ratio = dist.mean_ratio();
    OnlineStats energy;
    OnlineStats completion;
    std::int64_t misses = 0;
    for (const std::vector<Cycles>& actual : trajectories) {
      const StochasticFrameResult run = simulate_frame_stochastic(
          accepted, actual, problem.work_per_cycle(), problem.curve(), config);
      energy.add(run.energy);
      completion.add(run.completion);
      if (!run.deadline_met) ++misses;
    }
    std::cout << std::left << std::setw(18) << to_string(policy) << std::right
              << std::setw(14) << std::setprecision(6) << energy.mean() << std::setw(18)
              << completion.mean() << std::setw(10) << misses << "\n";
  }
}

int run(const CliOptions& options) {
  // Resolve the kernel backend before reading the input, so a bad
  // RETASK_SIMD fails every run alike, whether or not its solve reaches a
  // kernel.
  static_cast<void>(simd::active_backend());
  if (options.jobs > 0) set_default_jobs(options.jobs);
  const std::unique_ptr<PowerModel> model = make_model_by_name(options.model);
  const std::unique_ptr<RejectionSolver> solver = make_solver(options.solver);

  if (options.mode == CliOptions::Mode::kFrame) {
    const FrameTaskSet tasks = read_frame_tasks_file(options.input_path);
    EnergyCurve curve(*model, options.frame, options.idle, options.sleep);
    const double work_per_cycle = model->max_speed() * options.frame / options.capacity;
    const RejectionProblem problem(tasks, std::move(curve), work_per_cycle,
                                   options.processors);
    const RejectionSolution solution = solver->solve(problem);
    check_solution(problem, solution);

    std::cout << "# retask frame instance: " << tasks.size() << " tasks, "
              << options.processors << " processor(s), model " << model->name() << "\n";
    std::cout << "# solver " << solver->name() << "\n";
    std::cout << "objective " << solution.objective() << " = energy " << solution.energy
              << " + penalty " << solution.penalty << "\n";
    std::cout << "accepted " << solution.accepted_count() << "/" << tasks.size() << " (ratio "
              << solution.acceptance_ratio() << ")\n";
    if (options.csv) {
      write_solution_csv(std::cout, problem, solution);
    } else {
      for (std::size_t i = 0; i < problem.size(); ++i) {
        const FrameTask& task = problem.tasks()[i];
        std::cout << "  task " << task.id << " (" << task.cycles << " cycles, penalty "
                  << task.penalty << "): "
                  << (solution.accepted[i]
                          ? "accept on processor " + std::to_string(solution.processor_of[i])
                          : "reject")
                  << "\n";
      }
    }
    if (!options.stochastic.empty()) print_stochastic_replay(problem, solution, options);
    return 0;
  }

  const PeriodicTaskSet tasks = read_periodic_tasks_file(options.input_path);
  const PeriodicRejectionAdapter adapter(tasks, *model, options.idle, options.processors);
  const RejectionSolution solution = solver->solve(adapter.frame_problem());
  check_solution(adapter.frame_problem(), solution);

  std::cout << "# retask periodic instance: " << tasks.size() << " tasks, hyper-period "
            << adapter.hyper_period() << ", " << options.processors << " processor(s), model "
            << model->name() << "\n";
  std::cout << "# solver " << solver->name() << "\n";
  std::cout << "objective " << solution.objective() << " = energy " << solution.energy
            << " + penalty " << solution.penalty << " per hyper-period\n";
  std::cout << "accepted " << solution.accepted_count() << "/" << tasks.size() << "\n";

  bool all_verified = true;
  for (int p = 0; p < options.processors; ++p) {
    const double speed = adapter.execution_speed_on(solution, p);
    std::cout << "processor " << p << ": demanded rate " << adapter.demanded_rate_on(solution, p)
              << ", EDF speed " << speed;
    if (speed > 0.0) {
      // Per-processor verification needs the per-processor selection mask.
      std::vector<bool> on_proc(tasks.size(), false);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        on_proc[i] = solution.accepted[i] && solution.processor_of[i] == p;
      }
      EdfSimConfig sim;
      sim.speed = speed;
      const EdfSimResult run = simulate_edf(tasks, on_proc, sim,
                                            adapter.frame_problem().curve());
      std::cout << ", EDF check: " << run.jobs_released << " jobs, " << run.deadline_misses
                << " misses";
      all_verified = all_verified && run.deadline_misses == 0;
    }
    std::cout << "\n";
  }
  if (options.csv) write_solution_csv(std::cout, adapter.frame_problem(), solution);
  if (!all_verified) {
    std::cerr << "ERROR: EDF verification failed\n";
    return 1;
  }
  return 0;
}

}  // namespace

// Exit codes: 0 success, 1 an error while solving (or a failed EDF check),
// 2 a usage error, which also prints the usage text.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions options;
  try {
    options = parse_cli_options(args);
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n\n" << cli_usage();
    return 2;
  }
  if (options.help) {
    std::cout << cli_usage();
    return 0;
  }
  try {
    return run(options);
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
