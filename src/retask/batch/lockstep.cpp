#include "retask/batch/lockstep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/greedy.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

constexpr double kPosInf = std::numeric_limits<double>::infinity();

std::atomic<int> g_lanes{-1};  // -1: not yet resolved from the environment

int resolve_lanes() {
  const char* env = std::getenv("RETASK_BATCH");
  const std::string name = env != nullptr ? std::string(env) : std::string();
  if (name.empty() || name == "auto") return 4;
  if (name == "off") return 0;
  char* end = nullptr;
  const long parsed = std::strtol(name.c_str(), &end, 10);
  if (end == name.c_str() || *end != '\0' || parsed < 0 || parsed > 64) {
    throw Error("RETASK_BATCH: unknown value '" + name + "' (expected off|auto|<lanes>)");
  }
  return static_cast<int>(parsed);
}

/// Fills lane k of `tables` over chunk[k]'s tasks at cap[k] (one dp_fill
/// lane each, the solo solver's relaxation; see core/dp_table.hpp for the
/// lane-major layout and the export capture). The exact_dp.* counters
/// mirror the solo fill lane by lane, so obs reports stay comparable whether
/// or not the harness batched the solves.
void lockstep_fill(const std::vector<const RejectionProblem*>& chunk,
                   const std::vector<std::size_t>& cap, DpScratch& tables,
                   std::vector<DpTableExport>* exports) {
  const std::size_t m = chunk.size();
  std::vector<DpFillLane> lanes(m);
  for (std::size_t k = 0; k < m; ++k) lanes[k] = {chunk[k]->tasks().tasks().data(), cap[k]};
  [[maybe_unused]] const DpFillCounts counts =
      dp_fill(tables, chunk[0]->size(), lanes.data(), m, exports);
  RETASK_COUNT("exact_dp.solves", m);
  RETASK_COUNT("exact_dp.cells_touched", counts.cells_touched);
  RETASK_COUNT("exact_dp.cells_skipped", counts.cells_skipped);
  RETASK_COUNT("exact_dp.tasks_pruned", counts.tasks_pruned);
  RETASK_OBS_ONLY({
    std::size_t table_exports = 0;
    for (std::size_t k = 0; exports != nullptr && k < m; ++k) {
      if (!(*exports)[k].value.empty()) ++table_exports;
    }
    RETASK_COUNT("batch.table_exports", table_exports);
    for (std::size_t k = 0; k < m; ++k) RETASK_RECORD("exact_dp.table_width", cap[k] + 1);
  })
}

/// Select over filled lane tables: walks lane k's staircase over the records
/// w <= select_cap[k], evaluating energies through chunk[k], and backtracks
/// each lane's accept set. `chunk[k]` supplies lane k's tasks and THIS
/// point's platform — the fused-sweep caller runs one select per sweep point
/// over a single fill, which the table's prefix property makes bit-identical
/// to a dedicated fill at select_cap[k]. Every lane reproduces the
/// single-instance ExactDpSolver bit for bit, energy evaluations included.
std::vector<RejectionSolution> lockstep_select(const std::vector<const RejectionProblem*>& chunk,
                                               const DpScratch& tables,
                                               const std::vector<std::size_t>& select_cap) {
  const std::size_t m = chunk.size();
  // Select attribution: retask_bench divides this by the enclosing batch
  // timer to report the select's share of lockstep / fused-sweep time
  // (timers never enter the gated bench metrics).
  RETASK_SCOPED_TIMER("batch.select_scan_ns");
  [[maybe_unused]] std::uint64_t energy_evals = 0;
  std::vector<RejectionSolution> out;
  out.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const RejectionProblem& problem = *chunk[k];
    const DpPick pick =
        dp_select(tables.stairs[k], select_cap[k], problem.tasks().total_penalty(),
                  [&problem](Cycles w) { return problem.energy_of_cycles(w); });
    energy_evals += pick.energy_evals;
    std::vector<bool> accepted;
    dp_backtrack(tables.take, k * tables.stride, problem.tasks().tasks().data(), problem.size(),
                 pick.best_w, accepted);
    out.push_back(make_solution_on_one(problem, std::move(accepted)));
  }
  RETASK_COUNT("batch.select_energy_evals", energy_evals);
  return out;
}

/// Lockstep exact DP over one same-shape chunk: one shared fill, one select
/// per lane, optionally capturing each lane's table for adoption.
std::vector<RejectionSolution> lockstep_exact_dp(const std::vector<const RejectionProblem*>& chunk,
                                                 std::vector<DpTableExport>* exports) {
  const std::size_t m = chunk.size();
  std::vector<std::size_t> cap(m);
  for (std::size_t k = 0; k < m; ++k) {
    cap[k] = static_cast<std::size_t>(dp_fill_capacity(*chunk[k]));
  }
  DpScratch tables;
  lockstep_fill(chunk, cap, tables, exports);
  return lockstep_select(chunk, tables, cap);
}

/// One fused-sweep chunk: grid[k] points at lane k's sweep points (one task
/// set per lane, capacities/platforms varying by point; per point, all
/// lanes share a shape). Each lane fills ONCE at its widest point and takes
/// its staircase once — the warm start of ExactDpSolver::solve_sweep — and
/// every point walks each lane's records w <= that point's capacity.
/// Returns out[k][p], bit-identical to per-lane warm sweeps (and so to
/// per-point solo solves).
std::vector<std::vector<RejectionSolution>> lockstep_fused_sweep(
    const std::vector<const std::vector<const RejectionProblem*>*>& grid) {
  const std::size_t m = grid.size();
  const std::size_t points = grid[0]->size();
  std::vector<std::vector<std::size_t>> cap(m, std::vector<std::size_t>(points));
  std::vector<std::size_t> fill_cap(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t p = 0; p < points; ++p) {
      cap[k][p] = static_cast<std::size_t>(dp_fill_capacity(*(*grid[k])[p]));
      fill_cap[k] = std::max(fill_cap[k], cap[k][p]);
    }
  }
  // The fill depends only on the task vector (cycles + penalties), never on
  // the platform, so one fill serves every point of a lane even though the
  // points' curves differ; the per-point energies enter at the select, which
  // reads them through that point's problems.
  std::vector<const RejectionProblem*> lane(m);
  for (std::size_t k = 0; k < m; ++k) lane[k] = (*grid[k])[0];
  DpScratch tables;
  lockstep_fill(lane, fill_cap, tables, nullptr);
  RETASK_COUNT("dp.warm_starts", m * (points - 1));
  RETASK_COUNT("batch.fused_sweep_points", m * points);

  std::vector<std::vector<RejectionSolution>> out(m);
  for (std::size_t k = 0; k < m; ++k) out[k].reserve(points);
  std::vector<std::size_t> point_cap(m);
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t k = 0; k < m; ++k) {
      lane[k] = (*grid[k])[p];
      point_cap[k] = cap[k][p];
    }
    std::vector<RejectionSolution> solved = lockstep_select(lane, tables, point_cap);
    for (std::size_t k = 0; k < m; ++k) out[k].push_back(std::move(solved[k]));
  }
  return out;
}

/// Lockstep density greedy: per-lane density orders and feasibility
/// rejection, then one position-by-position pass where the two energy
/// probes of every live lane are fused into one batched evaluation.
/// Returns the accept masks (also the marginal solver's seed).
std::vector<std::vector<bool>> lockstep_density_masks(
    const std::vector<const RejectionProblem*>& chunk) {
  const std::size_t m = chunk.size();
  const std::size_t n = chunk[0]->size();
  std::vector<std::vector<std::size_t>> order(m);
  std::vector<std::vector<bool>> accepted(m);
  std::vector<Cycles> load(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    require(chunk[k]->processor_count() == 1, "lockstep: single-processor algorithm");
    order[k] = density_order(*chunk[k]);
    accepted[k].assign(n, true);
    load[k] = reject_until_feasible(*chunk[k], order[k], accepted[k]);
  }
  // Parity with the serial density pass (the marginal solver also seeds
  // through it, so both lockstep callers inherit the count here).
  RETASK_COUNT("greedy.density_solves", m);

  std::vector<Cycles> probes;
  std::vector<double> energies;
  RETASK_OBS_ONLY(std::uint64_t rejections = 0;)
  for (std::size_t j = 0; j < n; ++j) {
    probes.clear();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = order[k][j];
      if (!accepted[k][i]) continue;
      probes.push_back(load[k]);
      probes.push_back(load[k] - chunk[k]->tasks()[i].cycles);
    }
    if (probes.empty()) continue;
    energies.resize(probes.size());
    chunk[0]->energy_of_cycles_batch(probes.data(), energies.data(), probes.size());
    std::size_t p = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = order[k][j];
      if (!accepted[k][i]) continue;
      const double saving = energies[p] - energies[p + 1];
      p += 2;
      const FrameTask& task = chunk[k]->tasks()[i];
      if (saving > task.penalty) {
        accepted[k][i] = false;
        load[k] -= task.cycles;
        RETASK_OBS_ONLY(++rejections;)
      }
    }
  }
  RETASK_COUNT("greedy.density_rejections", rejections);
  return accepted;
}

std::vector<RejectionSolution> lockstep_density(
    const std::vector<const RejectionProblem*>& chunk) {
  std::vector<std::vector<bool>> masks = lockstep_density_masks(chunk);
  std::vector<RejectionSolution> out;
  out.reserve(chunk.size());
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    out.push_back(make_solution_on_one(*chunk[k], std::move(masks[k])));
  }
  return out;
}

/// Lockstep marginal greedy: density-seeded steepest descent, one round per
/// iteration across all live lanes, with every probe load of every lane
/// fused into one batched energy call. Each lane runs exactly the serial
/// round sequence (same probes, same deltas, same argmin, same stopping
/// round), lanes that converge drop out of the batch.
std::vector<RejectionSolution> lockstep_marginal(
    const std::vector<const RejectionProblem*>& chunk) {
  const std::size_t m = chunk.size();
  const std::size_t n = chunk[0]->size();
  std::vector<std::vector<bool>> accepted = lockstep_density_masks(chunk);
  std::vector<Cycles> load(m, 0);
  std::vector<char> done(m, 0);
  for (std::size_t k = 0; k < m; ++k) load[k] = chunk[k]->accepted_cycles(accepted[k]);
  RETASK_COUNT("greedy.marginal_solves", m);

  const simd::KernelTable& kernels = simd::kernels();
  const std::size_t max_moves = 4 * n * n + 16;
  std::vector<Cycles> probes;
  std::vector<double> energies;
  std::vector<double> delta(n, kPosInf);
  for (std::size_t move = 0; move < max_moves; ++move) {
    probes.clear();
    for (std::size_t k = 0; k < m; ++k) {
      if (done[k]) continue;
      probes.push_back(load[k]);  // E at the current load, hoisted per round
      for (std::size_t i = 0; i < n; ++i) {
        const FrameTask& task = chunk[k]->tasks()[i];
        if (accepted[k][i]) {
          probes.push_back(load[k] - task.cycles);
        } else if (load[k] + task.cycles <= chunk[k]->cycle_capacity()) {
          probes.push_back(load[k] + task.cycles);
        }
      }
    }
    if (probes.empty()) break;  // every lane converged
    energies.resize(probes.size());
    chunk[0]->energy_of_cycles_batch(probes.data(), energies.data(), probes.size());

    std::size_t p = 0;
    for (std::size_t k = 0; k < m; ++k) {
      if (done[k]) continue;
      const double energy_at_load = energies[p++];
      const double objective = energy_at_load + chunk[k]->rejected_penalty(accepted[k]);
      delta.assign(n, kPosInf);
      for (std::size_t i = 0; i < n; ++i) {
        const FrameTask& task = chunk[k]->tasks()[i];
        if (accepted[k][i]) {
          delta[i] = task.penalty - (energy_at_load - energies[p++]);
        } else if (load[k] + task.cycles <= chunk[k]->cycle_capacity()) {
          delta[i] = (energies[p++] - energy_at_load) - task.penalty;
        }
      }
      const double threshold = -1e-12 * std::max(objective, 1.0);
      const std::size_t best_index = kernels.argmin_strided_f64(delta.data(), n, 1, threshold);
      if (best_index == simd::kNpos) {
        done[k] = 1;
        continue;
      }
      if (accepted[k][best_index]) {
        accepted[k][best_index] = false;
        load[k] -= chunk[k]->tasks()[best_index].cycles;
      } else {
        accepted[k][best_index] = true;
        load[k] += chunk[k]->tasks()[best_index].cycles;
      }
    }
  }

  std::vector<RejectionSolution> out;
  out.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    out.push_back(make_solution_on_one(*chunk[k], std::move(accepted[k])));
  }
  return out;
}

enum class LockstepKind { kNone, kExactDp, kDensity, kMarginal };

LockstepKind kind_of(const RejectionSolver& solver) {
  if (dynamic_cast<const ExactDpSolver*>(&solver) != nullptr) return LockstepKind::kExactDp;
  if (dynamic_cast<const DensityGreedySolver*>(&solver) != nullptr) return LockstepKind::kDensity;
  if (dynamic_cast<const MarginalGreedySolver*>(&solver) != nullptr) {
    return LockstepKind::kMarginal;
  }
  return LockstepKind::kNone;
}

}  // namespace

int lockstep_lanes() {
  int lanes = g_lanes.load(std::memory_order_acquire);
  if (lanes < 0) {
    lanes = resolve_lanes();  // deterministic: a first-use race is benign
    g_lanes.store(lanes, std::memory_order_release);
  }
  return lanes;
}

void set_lockstep_lanes(int lanes) {
  require(lanes >= 0 && lanes <= 64, "set_lockstep_lanes: lanes must be in [0, 64]");
  g_lanes.store(lanes, std::memory_order_release);
}

bool same_shape(const RejectionProblem& a, const RejectionProblem& b) {
  // Platform equality (curve/work_per_cycle; see cache/sweep.hpp) plus the
  // lane-layout constraints: same task count and the single-processor form.
  return a.size() == b.size() && a.processor_count() == 1 && b.processor_count() == 1 &&
         a.cycle_capacity() == b.cycle_capacity() && same_platforms(a, b);
}

BatchRejectionSolver::BatchRejectionSolver(const RejectionSolver& base, BatchConfig config)
    : base_(&base), config_(config) {}

std::string BatchRejectionSolver::name() const { return base_->name() + "+LOCKSTEP"; }

std::vector<RejectionSolution> BatchRejectionSolver::solve_batch(
    const std::vector<const RejectionProblem*>& problems) const {
  return solve_batch(problems, nullptr);
}

std::vector<RejectionSolution> BatchRejectionSolver::solve_batch(
    const std::vector<const RejectionProblem*>& problems, LockstepTables* tables) const {
  const std::size_t count = problems.size();
  std::vector<RejectionSolution> out(count);
  if (tables != nullptr) {
    tables->exports.clear();
    tables->exports.resize(count);
  }
  const int lanes_cfg = config_.lanes < 0 ? lockstep_lanes() : config_.lanes;
  const LockstepKind kind = kind_of(*base_);
  if (lanes_cfg < 2 || kind == LockstepKind::kNone || count < 2) {
    for (std::size_t i = 0; i < count; ++i) out[i] = base_->solve(*problems[i]);
    RETASK_COUNT("batch.scalar_fallbacks", count);
    return out;
  }
  RETASK_SCOPED_TIMER("batch.lockstep_ns");
  const auto lanes = static_cast<std::size_t>(lanes_cfg);

  // First-fit shape grouping; groups and their chunks keep input order, so
  // lane assignment is deterministic for a fixed batch.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < count; ++i) {
    bool placed = false;
    for (std::vector<std::size_t>& group : groups) {
      if (same_shape(*problems[group[0]], *problems[i])) {
        group.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }
  RETASK_COUNT("batch.solves", 1);
  RETASK_COUNT("batch.groups", groups.size());

  std::vector<const RejectionProblem*> chunk;
  for (const std::vector<std::size_t>& group : groups) {
    for (std::size_t pos = 0; pos < group.size(); pos += lanes) {
      const std::size_t chunk_size = std::min(lanes, group.size() - pos);
      if (chunk_size < 2) {
        out[group[pos]] = base_->solve(*problems[group[pos]]);
        RETASK_COUNT("batch.scalar_fallbacks", 1);
        continue;
      }
      chunk.assign(chunk_size, nullptr);
      for (std::size_t j = 0; j < chunk_size; ++j) chunk[j] = problems[group[pos + j]];
      std::vector<RejectionSolution> solved;
      std::vector<DpTableExport> chunk_exports;
      switch (kind) {
        case LockstepKind::kExactDp:
          if (tables != nullptr) {
            chunk_exports.resize(chunk_size);
            solved = lockstep_exact_dp(chunk, &chunk_exports);
            for (std::size_t j = 0; j < chunk_size; ++j) {
              tables->exports[group[pos + j]] = std::move(chunk_exports[j]);
            }
          } else {
            solved = lockstep_exact_dp(chunk, nullptr);
          }
          break;
        case LockstepKind::kDensity:
          solved = lockstep_density(chunk);
          break;
        case LockstepKind::kMarginal:
          solved = lockstep_marginal(chunk);
          break;
        case LockstepKind::kNone:
          break;  // unreachable: handled above
      }
      for (std::size_t j = 0; j < chunk_size; ++j) {
        out[group[pos + j]] = std::move(solved[j]);
      }
      RETASK_COUNT("batch.lockstep_chunks", 1);
      RETASK_COUNT("batch.lanes_filled", chunk_size);
      RETASK_COUNT("batch.padding_waste", lanes - chunk_size);
    }
  }
  return out;
}

std::vector<std::vector<RejectionSolution>> BatchRejectionSolver::solve_sweep_batch(
    const std::vector<std::vector<const RejectionProblem*>>& grids) const {
  const std::size_t count = grids.size();
  std::vector<std::vector<RejectionSolution>> out(count);
  std::vector<char> solved(count, 0);
  const auto fallback = [&](std::size_t i) {
    out[i] = base_->solve_sweep(grids[i]);
    solved[i] = 1;
    RETASK_COUNT("batch.sweep_fallbacks", 1);
  };

  const int lanes_cfg = config_.lanes < 0 ? lockstep_lanes() : config_.lanes;
  if (lanes_cfg < 2 || count < 2 || kind_of(*base_) != LockstepKind::kExactDp) {
    for (std::size_t i = 0; i < count; ++i) fallback(i);
    return out;
  }
  const auto lanes = static_cast<std::size_t>(lanes_cfg);

  // A lane must be a genuine warm sweep — single-processor points carrying
  // one task set (the fill is a function of nothing else). Anything odd
  // takes the base fallback, which degrades the same way internally.
  std::vector<char> eligible(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<const RejectionProblem*>& instance = grids[i];
    bool ok = !instance.empty();
    for (std::size_t p = 0; p < instance.size() && ok; ++p) {
      ok = instance[p]->processor_count() == 1;
    }
    for (std::size_t p = 1; p < instance.size() && ok; ++p) {
      ok = same_task_sets(instance[0]->tasks(), instance[p]->tasks());
    }
    eligible[i] = ok ? 1 : 0;
  }

  // First-fit grouping by per-point shape, as solve_batch groups instances:
  // two lanes may share a chunk only when every sweep point pairs same-shape
  // problems.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < count; ++i) {
    if (!eligible[i]) continue;
    bool placed = false;
    for (std::vector<std::size_t>& group : groups) {
      const std::vector<const RejectionProblem*>& lead = grids[group[0]];
      bool match = lead.size() == grids[i].size();
      for (std::size_t p = 0; p < lead.size() && match; ++p) {
        match = same_shape(*lead[p], *grids[i][p]);
      }
      if (match) {
        group.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }

  for (const std::vector<std::size_t>& group : groups) {
    for (std::size_t pos = 0; pos < group.size(); pos += lanes) {
      const std::size_t chunk_size = std::min(lanes, group.size() - pos);
      if (chunk_size < 2) {
        fallback(group[pos]);
        continue;
      }
      std::vector<const std::vector<const RejectionProblem*>*> chunk(chunk_size);
      for (std::size_t j = 0; j < chunk_size; ++j) chunk[j] = &grids[group[pos + j]];
      std::vector<std::vector<RejectionSolution>> fused;
      {
        RETASK_SCOPED_TIMER("batch.fused_sweep_ns");
        fused = lockstep_fused_sweep(chunk);
      }
      for (std::size_t j = 0; j < chunk_size; ++j) {
        out[group[pos + j]] = std::move(fused[j]);
        solved[group[pos + j]] = 1;
      }
      RETASK_COUNT("batch.lockstep_chunks", 1);
      RETASK_COUNT("batch.lanes_filled", chunk_size);
      RETASK_COUNT("batch.padding_waste", lanes - chunk_size);
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!solved[i]) fallback(i);
  }
  return out;
}

}  // namespace retask
