// fig_load and fig_capacity: figure sweeps through run_comparison_batch.
//
// Set-up generates the whole instance family (every grid point of every
// instance) from the run seed and computes each problem's fractional lower
// bound; the harness factories then hand out copies of the prebuilt
// problems, and the bounds check the harness's answers independently of its
// reference. One unit of work is one run_comparison_batch
// call over every grid point for `per_call` instances of the family, and
// one op is one harness cell (point x instance x algorithm) solved and
// scored.
#ifndef PERFBENCH_FIG_HPP
#define PERFBENCH_FIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "retask/core/problem.hpp"
#include "retask/core/solver.hpp"
#include "retask/exp/harness.hpp"
#include "retask/obs/metrics.hpp"

namespace perfbench {

enum class FigKind { kLoad, kCapacity };

struct FigSizes {
  int family = 0;    ///< instances per grid point; a multiple of per_call
  int per_call = 0;  ///< instances per run_comparison_batch call
};

/// Outcome of one harness call.
struct FigCall {
  bool threw = false;
  std::string error;
  std::vector<std::vector<retask::AlgoStats>> stats;  ///< [point][algorithm]
};

class FigWorkload {
 public:
  /// Set-up: generates the family from `seed` and computes its bounds.
  FigWorkload(FigKind kind, std::uint64_t seed, FigSizes sizes);

  std::size_t algorithms() const { return lineup_.size(); }
  std::size_t calls_per_pass() const;
  std::uint64_t cells_per_call() const;
  /// Per grid point, the sum of fractional_lower_bound over the instances
  /// of call `call` (modulo the pass).
  std::vector<double> bound_sums(std::size_t call) const;
  /// True when the reference is the exact optimum (fig_load), so OPT-DP
  /// must match it exactly.
  bool exact_reference() const { return kind_ == FigKind::kLoad; }
  const std::vector<std::unique_ptr<retask::RejectionSolver>>& lineup() const { return lineup_; }

  /// Runs call `call` (modulo the pass) with the workload's reference.
  FigCall run_call(std::size_t call);
  /// Same, with a caller-supplied reference.
  FigCall run_call(std::size_t call, const retask::ReferenceObjective& reference);

  /// Reference callbacks made so far. Their solves record their metrics
  /// into a registry of their own, not into the lineup's.
  std::uint64_t reference_calls() const { return reference_calls_; }

 private:
  double reference_value(const retask::RejectionProblem& problem);

  FigKind kind_;
  FigSizes sizes_;
  std::size_t points_ = 0;
  std::vector<std::unique_ptr<retask::RejectionSolver>> lineup_;
  std::vector<std::vector<retask::RejectionProblem>> family_;  ///< [instance][point]
  std::vector<std::vector<double>> bounds_;                    ///< [instance][point]
  retask::obs::Registry reference_metrics_;
  std::uint64_t reference_calls_ = 0;
  std::uint32_t factory_layer_ = 0;
  std::uint32_t reference_layer_ = 0;
  std::uint64_t request_ = 0;
};

/// Checks one call and counts its ops. A call that threw fails every cell.
/// Otherwise each (point, algorithm) group of `per_call` cells fails when
/// it does not hold `per_call` scored cells, when a ratio beats the
/// reference, when OPT-DP misses an exact reference, when its objectives
/// sum to less than the point's `bound_sums` entry, or when its aggregates
/// differ from `expected` (the same call's first-pass signature). A null
/// `expected` skips that comparison; `signature`, when given, receives this
/// call's aggregates.
OpCount check_fig_call(const FigCall& call, std::size_t per_call, bool exact_reference,
                       const std::vector<double>& bound_sums, const std::vector<double>* expected,
                       std::vector<double>* signature);

}  // namespace perfbench

#endif  // PERFBENCH_FIG_HPP
