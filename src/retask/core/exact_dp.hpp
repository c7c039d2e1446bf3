// Pseudo-polynomial exact algorithm for single-processor task rejection.
//
// Hardness note (the paper's "hardness analysis"): with a linear energy
// curve E(W) = e * W the problem reads
//
//     min over R subset of T:  e * (W(T) - W(R)) + rho(R)
//     s.t.  W(T) - W(R) <= Wmax
//
// i.e. "pick rejected tasks maximizing saved energy minus paid penalty under
// a knapsack capacity" — exactly 0/1 knapsack, so the rejection problem is
// NP-hard, and a convex curve only generalizes the objective. NP-hardness in
// the ordinary sense is matched by this pseudo-polynomial DP, which is why
// the problem is NOT strongly NP-hard and admits the FPTAS in fptas.hpp.
//
// The DP: because the objective depends on the accept set only through its
// total cycles W and its rejected penalty, it suffices to know, for every
// achievable accepted cycle count w <= Wcap, the maximum total penalty that
// can be kept accepted. That is a 0/1-knapsack table over cycles,
// O(n * Wcap) time, after which one sweep over w picks
// min E(w) + (rho_total - kept(w)). Only the table's Pareto records can win,
// so the fill (core/dp_table.hpp) merges those records task by task and
// relaxes the dense table only once they cover much of it.
#ifndef RETASK_CORE_EXACT_DP_HPP
#define RETASK_CORE_EXACT_DP_HPP

#include "retask/core/solver.hpp"

namespace retask {

/// Optimal single-processor solver: O(n * Wcap) time and O(n * Wcap / 8)
/// bytes for choice reconstruction at worst, O(records) per task while the
/// record list stays short.
class ExactDpSolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "OPT-DP"; }

  /// Warm-started sweep: when every point shares one task set (capacity /
  /// work_per_cycle sweeps), the knapsack table is filled once at the
  /// largest capacity and each point's answer is read off the shared
  /// prefix — the table rows w <= cap are bit-identical to a dedicated
  /// fill at cap, so results match per-point solve() exactly. Points with
  /// differing task sets fall back to the per-point loop.
  std::vector<RejectionSolution> solve_sweep(
      const std::vector<const RejectionProblem*>& points) const override;
};

}  // namespace retask

#endif  // RETASK_CORE_EXACT_DP_HPP
