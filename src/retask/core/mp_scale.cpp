#include "retask/core/mp_scale.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/serve/delta_solver.hpp"

namespace retask {
namespace {

/// Per-round cap on move probes (the highest-penalty locally-rejected tasks
/// are probed first) and on the more expensive two-PE swap probes.
constexpr std::size_t kMaxMoveProbes = 4096;
constexpr std::uint64_t kMaxSwapProbes = 256;
/// Per-round cap on escalated exact probes. A screened-out candidate can
/// still be admittable by rearranging the target PE — the relaxation sees
/// evictions the marginal screen cannot — but the first probe on a PE pays a
/// full DeltaSolver seed, so only the highest-penalty screen failures get
/// one.
constexpr std::uint64_t kMaxExactProbes = 16;

/// Per-PE state of the local search. `member`/`accepted` mirror the PE's
/// resident set in order; once `delta` exists it is the source of truth and
/// refresh_from_delta re-derives both from it.
struct PeState {
  std::vector<std::size_t> member;  ///< global task indices, resident order
  std::vector<char> accepted;       ///< local accept mask, aligned with member
  double objective = 0.0;           ///< E(load) + locally rejected penalties
  Cycles accepted_load = 0;
  std::unique_ptr<DeltaSolver> delta;
  /// Local index of the accepted member with the most cycles (ties: lowest
  /// index), member.size() when none accepted; valid unless largest_stale.
  std::size_t largest = 0;
  bool largest_stale = true;
};

}  // namespace

RejectionSolution MultiProcScaleSolver::solve(const RejectionProblem& problem) const {
  const std::size_t n = problem.size();
  const auto m = static_cast<std::size_t>(problem.processor_count());
  const Cycles capacity = problem.cycle_capacity();
  RETASK_COUNT("mp.scale_solves", 1);

  // --- Phase 1: capacity pruning + O(n log m) placement -------------------
  // location[i]: PE index, or -1 for tasks entering the solve rejected
  // (oversized, or FFD overflow). Oversized tasks can never be accepted on
  // any PE, so they skip placement entirely instead of skewing bin loads.
  std::vector<int> location(n, -1);
  std::vector<char> oversized(n, 0);
  std::vector<std::size_t> placeable;
  placeable.reserve(n);
  std::uint64_t oversized_rejected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (problem.tasks()[i].cycles > capacity) {
      oversized[i] = 1;
      ++oversized_rejected;
    } else {
      placeable.push_back(i);
    }
  }
  RETASK_COUNT("mp.oversized_rejected", oversized_rejected);

  std::vector<PeState> pe(m);
  {
    RETASK_SCOPED_TIMER("mp.partition_ns");
    std::vector<double> weights(placeable.size());
    for (std::size_t k = 0; k < placeable.size(); ++k) {
      weights[k] = static_cast<double>(problem.tasks()[placeable[k]].cycles);
    }
    const bool capacity_policy = config_.partition == PartitionPolicy::kFirstFit ||
                                 config_.partition == PartitionPolicy::kBestFit ||
                                 config_.partition == PartitionPolicy::kFirstFitDecreasing;
    const Partition partition =
        partition_items(weights, problem.processor_count(), config_.partition,
                        capacity_policy ? static_cast<double>(capacity) : 0.0);
    std::uint64_t overflow_rejected = 0;
    for (std::size_t k = 0; k < placeable.size(); ++k) {
      const int b = partition.bin_of[k];
      if (b < 0) {
        ++overflow_rejected;  // FFD rejection: fits on no PE at current loads
        continue;
      }
      location[placeable[k]] = b;
    }
    RETASK_COUNT("mp.overflow_rejected", overflow_rejected);
    // Bucket by PE in one pass; global index order becomes resident order.
    for (std::size_t i = 0; i < n; ++i) {
      if (location[i] >= 0) pe[static_cast<std::size_t>(location[i])].member.push_back(i);
    }
  }

  // --- Phase 2: per-PE exact rejection -------------------------------------
  // The m subproblems are independent: one ExactDpSolver::solve per PE,
  // sharded across the pool. Each solution is a pure function of its
  // subproblem, so the job count cannot change a bit.
  std::vector<std::unique_ptr<RejectionProblem>> sub(m);
  for (std::size_t p = 0; p < m; ++p) {
    if (pe[p].member.empty()) continue;
    std::vector<FrameTask> local;
    local.reserve(pe[p].member.size());
    for (const std::size_t i : pe[p].member) local.push_back(problem.tasks()[i]);
    sub[p] = std::make_unique<RejectionProblem>(FrameTaskSet(std::move(local)), problem.curve(),
                                                problem.work_per_cycle(), 1);
  }

  std::vector<RejectionSolution> pe_solution(m);
  {
    RETASK_SCOPED_TIMER("mp.pe_solve_ns");
    const ExactDpSolver dp;
    parallel_for(
        m,
        [&](std::size_t p) {
          if (sub[p] != nullptr) pe_solution[p] = dp.solve(*sub[p]);
        },
        config_.jobs);
  }
  for (std::size_t p = 0; p < m; ++p) {
    if (sub[p] == nullptr) continue;
    const RejectionSolution& sol = pe_solution[p];
    pe[p].accepted.assign(pe[p].member.size(), 0);
    Cycles load = 0;
    for (std::size_t k = 0; k < pe[p].member.size(); ++k) {
      if (sol.accepted[k]) {
        pe[p].accepted[k] = 1;
        load += problem.tasks()[pe[p].member[k]].cycles;
      }
    }
    pe[p].objective = sol.energy + sol.penalty;
    pe[p].accepted_load = load;
  }

  // --- Phase 3: move/swap local search over per-PE DeltaSolvers -----------
  std::uint64_t move_probes = 0;
  std::uint64_t swap_probes = 0;
  std::uint64_t moves_applied = 0;
  std::uint64_t swaps_applied = 0;
  std::uint64_t delta_built = 0;
  if (config_.local_search_rounds > 0 && m >= 2 && n > 0) {
    RETASK_SCOPED_TIMER("mp.local_search_ns");
    std::unordered_map<int, std::size_t> index_of_id;
    index_of_id.reserve(n);
    for (std::size_t i = 0; i < n; ++i) index_of_id.emplace(problem.tasks()[i].id, i);

    // The screens read the least-loaded PEs and a PE's largest accepted task
    // for every candidate, but a PE changes only on a commit, a solver seed
    // or a swap probe, so both facts are cached and rescanned on the first
    // read after changed().
    std::size_t least[2] = {};  // the two least-loaded PEs by (load, index)
    bool least_stale = true;
    const auto changed = [&](std::size_t p) {
      pe[p].largest_stale = true;
      least_stale = true;
    };

    const auto refresh_from_delta = [&](std::size_t p) {
      PeState& state = pe[p];
      const RejectionSolution& sol = state.delta->solution();
      state.member.clear();
      state.accepted.assign(state.delta->resident().size(), 0);
      for (std::size_t k = 0; k < state.delta->resident().size(); ++k) {
        const std::size_t gi = index_of_id.at(state.delta->resident()[k].id);
        state.member.push_back(gi);
        state.accepted[k] = sol.accepted[k] ? 1 : 0;
        location[gi] = static_cast<int>(p);
      }
      state.objective = sol.energy + sol.penalty;
      state.accepted_load = state.delta->accepted_load();
      changed(p);
    };

    const auto ensure_delta = [&](std::size_t p) -> DeltaSolver& {
      PeState& state = pe[p];
      if (state.delta == nullptr) {
        // A checkpoint every quarter of the residents, at most every 16: a
        // swap probe removes the PE's largest accepted task, wherever it sits
        // in the resident order, and with a stride at or above the resident
        // count no checkpoint precedes it, so every such removal would replay
        // the whole PE.
        DeltaSolver::Config delta_config;
        const std::size_t quarter = (state.member.size() + 3) / 4;
        delta_config.checkpoint_stride =
            static_cast<int>(std::clamp<std::size_t>(quarter, 1, 16));
        state.delta = std::make_unique<DeltaSolver>(problem.curve(), problem.work_per_cycle(),
                                                    delta_config);
        std::vector<FrameTask> resident;
        resident.reserve(state.member.size());
        for (const std::size_t i : state.member) resident.push_back(problem.tasks()[i]);
        state.delta->admit_all(resident);
        // For untouched PEs the seed replays the phase-2 fill exactly; after
        // direct screened commits the tracked assignment is feasible but
        // not necessarily optimal for the member set, so the seed's optimum
        // may only ever be better (up to rounding in the tracked sum).
        RETASK_ASSERT(state.member.empty() ||
                      state.delta->solution().energy + state.delta->solution().penalty <=
                          state.objective + 1e-6 * std::max(1.0, std::abs(state.objective)));
        refresh_from_delta(p);
        ++delta_built;
      }
      return *state.delta;
    };

    // Marginal-energy screen: the same E(cycles) evaluation the delta
    // solvers perform.
    const auto screen_energy = [&](Cycles cycles) {
      return problem.curve().energy(problem.work_per_cycle() * static_cast<double>(cycles));
    };
    // Marginal cost of adding `extra` cycles to PE `target_pe` at its
    // current accepted load, +inf when it cannot fit. An exact delta probe
    // can beat this estimate (the DP may evict a cheaper task), but a
    // candidate whose marginal cost already exceeds its penalty almost
    // never survives one — screening those out keeps the O(W) probe +
    // select machinery for the candidates with a real chance.
    const auto marginal_cost = [&](std::size_t target_pe, Cycles removed, Cycles added) {
      const Cycles before = pe[target_pe].accepted_load;
      const Cycles after = before - removed + added;
      if (after > capacity) return std::numeric_limits<double>::infinity();
      return screen_energy(after) - screen_energy(before);
    };

    // Commit helpers. A screened commit is exact for its action (the accept
    // sets change only as stated, so the marginals ARE the objective
    // deltas) and needs no relaxation replay — direct O(1) state updates.
    // PEs that already own a DeltaSolver route through it instead so the
    // solver's resident set stays authoritative; its optimum can only
    // improve on the screened action.
    const auto accept_on = [&](std::size_t q, std::size_t gi, double gain) {
      PeState& state = pe[q];
      const FrameTask& t = problem.tasks()[gi];
      if (state.delta != nullptr) {
        state.delta->admit(t);
        refresh_from_delta(q);
      } else {
        state.member.push_back(gi);
        state.accepted.push_back(1);
        state.accepted_load += t.cycles;
        state.objective += gain;
        location[gi] = static_cast<int>(q);
        changed(q);
      }
    };
    const auto drop_rejected = [&](std::size_t p, std::size_t gi) {
      PeState& state = pe[p];
      if (state.delta != nullptr) {
        state.delta->remove(problem.tasks()[gi].id);
        refresh_from_delta(p);
      } else {
        const auto it = std::find(state.member.begin(), state.member.end(), gi);
        RETASK_ASSERT(it != state.member.end());
        const auto k = static_cast<std::size_t>(it - state.member.begin());
        RETASK_ASSERT(!state.accepted[k]);
        state.member.erase(it);
        state.accepted.erase(state.accepted.begin() + static_cast<std::ptrdiff_t>(k));
        state.objective -= problem.tasks()[gi].penalty;
        changed(p);
      }
      location[gi] = -1;  // the caller re-places it immediately
    };
    const auto relocate_accepted = [&](std::size_t q, std::size_t r, std::size_t gj,
                                       double q_gain, double r_gain) {
      PeState& state = pe[q];
      const FrameTask& t = problem.tasks()[gj];
      if (state.delta != nullptr) {
        state.delta->remove(t.id);
        refresh_from_delta(q);
      } else {
        const auto it = std::find(state.member.begin(), state.member.end(), gj);
        RETASK_ASSERT(it != state.member.end());
        const auto k = static_cast<std::size_t>(it - state.member.begin());
        RETASK_ASSERT(state.accepted[k]);
        state.member.erase(it);
        state.accepted.erase(state.accepted.begin() + static_cast<std::ptrdiff_t>(k));
        state.accepted_load -= t.cycles;
        state.objective += q_gain;
        changed(q);
      }
      accept_on(r, gj, r_gain);
    };

    // Least-loaded target PE (ties: lowest index), excluding `skip`: the
    // least-loaded PE, or the runner-up when that is `skip` (m >= 2 here).
    const auto least_loaded_except = [&](int skip) -> int {
      if (least_stale) {
        least[0] = pe[1].accepted_load < pe[0].accepted_load ? 1 : 0;
        least[1] = 1 - least[0];
        for (std::size_t q = 2; q < m; ++q) {
          if (pe[q].accepted_load < pe[least[0]].accepted_load) {
            least[1] = least[0];
            least[0] = q;
          } else if (pe[q].accepted_load < pe[least[1]].accepted_load) {
            least[1] = q;
          }
        }
        least_stale = false;
      }
      return static_cast<int>(least[0] == static_cast<std::size_t>(skip) ? least[1] : least[0]);
    };

    // PeState::largest of PE q, rescanned when stale.
    const auto largest_accepted = [&](std::size_t q) -> std::size_t {
      PeState& state = pe[q];
      if (state.largest_stale) {
        state.largest = state.member.size();
        Cycles cycles = -1;
        for (std::size_t k = 0; k < state.member.size(); ++k) {
          if (state.accepted[k] && problem.tasks()[state.member[k]].cycles > cycles) {
            state.largest = k;
            cycles = problem.tasks()[state.member[k]].cycles;
          }
        }
        state.largest_stale = false;
      }
      return state.largest;
    };

    std::vector<std::pair<double, std::size_t>> candidates;  // (-penalty, index)
    for (int round = 0; round < config_.local_search_rounds; ++round) {
      std::uint64_t applied_this_round = 0;
      // Candidates: every task currently paying its penalty (locally
      // rejected or unplaced), except the hopeless oversized ones; highest
      // penalty first — the most to gain from a better PE.
      candidates.clear();
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t k = 0; k < pe[p].member.size(); ++k) {
          if (!pe[p].accepted[k]) candidates.emplace_back(-problem.tasks()[pe[p].member[k]].penalty,
                                                          pe[p].member[k]);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (location[i] < 0 && !oversized[i]) candidates.emplace_back(-problem.tasks()[i].penalty, i);
      }
      std::sort(candidates.begin(), candidates.end());
      if (candidates.size() > kMaxMoveProbes) candidates.resize(kMaxMoveProbes);

      std::uint64_t swap_budget = kMaxSwapProbes;
      std::uint64_t exact_budget = kMaxExactProbes;
      for (const auto& [neg_penalty, gi] : candidates) {
        (void)neg_penalty;
        const FrameTask& task = problem.tasks()[gi];
        const int p = location[gi];
        if (p >= 0) {
          // The candidate list is a snapshot; a commit may have changed this
          // task's status since. Re-check against the live mask.
          const PeState& source = pe[static_cast<std::size_t>(p)];
          const auto it = std::find(source.member.begin(), source.member.end(), gi);
          RETASK_ASSERT(it != source.member.end());
          if (source.accepted[static_cast<std::size_t>(it - source.member.begin())]) continue;
        }
        const int q = least_loaded_except(p);
        const auto qs = static_cast<std::size_t>(q);

        // Screened move: accepting gi on q as-is changes the objective by
        // exactly marginal - penalty (removing a locally rejected task
        // cannot change its source's accept set, so that side is a pure
        // -penalty). A passing screen commits directly.
        if (marginal_cost(qs, 0, task.cycles) < task.penalty) {
          const Cycles q_load = pe[qs].accepted_load;
          const double gain = screen_energy(q_load + task.cycles) - screen_energy(q_load);
          if (p >= 0) drop_rejected(static_cast<std::size_t>(p), gi);
          accept_on(qs, gi, gain);
          ++moves_applied;
          ++applied_this_round;
          continue;
        }

        // Screened swap: make room on q by relocating its largest accepted
        // task j to the least-loaded third PE r, then accept gi on q. Both
        // marginals are exact for the as-is accept sets, so this commits
        // directly too.
        const std::size_t j_local = largest_accepted(qs);
        if (j_local != pe[qs].member.size()) {
          const std::size_t gj = pe[qs].member[j_local];
          const FrameTask& jtask = problem.tasks()[gj];
          const int r = least_loaded_except(q);
          if (r != p &&
              marginal_cost(qs, jtask.cycles, task.cycles) +
                      marginal_cost(static_cast<std::size_t>(r), 0, jtask.cycles) <
                  task.penalty) {
            const auto rs = static_cast<std::size_t>(r);
            const Cycles q_load = pe[qs].accepted_load;
            const Cycles r_load = pe[rs].accepted_load;
            const double q_drop =
                screen_energy(q_load - jtask.cycles) - screen_energy(q_load);
            const double q_add = screen_energy(q_load - jtask.cycles + task.cycles) -
                                 screen_energy(q_load - jtask.cycles);
            const double r_add = screen_energy(r_load + jtask.cycles) - screen_energy(r_load);
            relocate_accepted(qs, rs, gj, q_drop, r_add);
            if (p >= 0) drop_rejected(static_cast<std::size_t>(p), gi);
            accept_on(qs, gi, q_add);
            ++swaps_applied;
            ++applied_this_round;
            continue;
          }
        }

        // Escalation: the exact relaxation can admit gi by rearranging q
        // (evicting cheaper tasks), which no marginal screen sees. The
        // first probe on a PE pays a full DeltaSolver seed, so only the
        // highest-penalty screen failures — the candidates with the most
        // to gain — get one.
        if (exact_budget == 0) continue;
        --exact_budget;
        ++move_probes;
        // A probe reads the solver without changing it (probe_admit), so the
        // solver is written only when the move pays.
        DeltaSolver& target = ensure_delta(qs);
        const double q_before = pe[qs].objective;
        const double q_after = target.probe_admit(task);
        const double move_delta = (q_after - q_before) - task.penalty;
        const double tol = -1e-12 * std::max(1.0, q_before + task.penalty);
        if (move_delta < tol) {
          if (p >= 0) drop_rejected(static_cast<std::size_t>(p), gi);
          target.admit(task);
          refresh_from_delta(qs);
          ++moves_applied;
          ++applied_this_round;
          continue;
        }

        // Exact swap probe behind the same escalation gate: j really leaves
        // q, then gi is probed on q and j on r.
        if (swap_budget == 0 || j_local == pe[qs].member.size()) continue;
        const std::size_t gj = pe[qs].member[j_local];
        const FrameTask& jtask = problem.tasks()[gj];
        const int r = least_loaded_except(q);
        if (r == p) continue;  // no third PE to absorb j
        const auto rs = static_cast<std::size_t>(r);
        --swap_budget;
        ++swap_probes;
        DeltaSolver& third = ensure_delta(rs);
        const double r_before = pe[rs].objective;
        target.remove(jtask.id);
        const double q_swapped = target.probe_admit(task);
        const double r_after = third.probe_admit(jtask);
        const double swap_delta =
            (q_swapped - q_before) + (r_after - r_before) - task.penalty;
        const double swap_tol = -1e-12 * std::max(1.0, q_before + r_before + task.penalty);
        if (swap_delta < swap_tol) {
          target.admit(task);
          third.admit(jtask);
          if (p >= 0) drop_rejected(static_cast<std::size_t>(p), gi);
          refresh_from_delta(qs);
          refresh_from_delta(rs);
          ++swaps_applied;
          ++applied_this_round;
          continue;
        }
        // Put j back. Re-admitting appends it at the end of q's resident
        // order — same set, same optimum value; the value row is rebuilt
        // deterministically, so the search stays reproducible.
        target.admit(jtask);
        refresh_from_delta(qs);
      }
      if (applied_this_round == 0) break;
    }
  }
  RETASK_COUNT("mp.move_probes", move_probes);
  RETASK_COUNT("mp.swap_probes", swap_probes);
  RETASK_COUNT("mp.moves_applied", moves_applied);
  RETASK_COUNT("mp.swaps_applied", swaps_applied);
  RETASK_COUNT("mp.delta_solvers_built", delta_built);

  // --- Final assembly -----------------------------------------------------
  std::vector<bool> accepted(n, false);
  std::vector<int> processor_of(n, -1);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t k = 0; k < pe[p].member.size(); ++k) {
      if (pe[p].accepted[k]) {
        accepted[pe[p].member[k]] = true;
        processor_of[pe[p].member[k]] = static_cast<int>(p);
      }
    }
  }
  RejectionSolution solution = make_solution(problem, std::move(accepted), std::move(processor_of));
  if (config_.record_bound_gap) {
    const double bound = multiproc_lower_bound(problem);
    if (bound > 0.0) {
      RETASK_RECORD("mp.bound_gap_permille",
                    std::max(0.0, (solution.objective() / bound - 1.0) * 1000.0));
    }
  }
  return solution;
}

}  // namespace retask
