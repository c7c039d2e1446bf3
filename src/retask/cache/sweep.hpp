// Sweep-construction helpers shared by the harness, the benches, the fuzzer
// and the tests.
//
// A "sweep" here is a family of RejectionProblem points that differ in one
// knob but share their task set — the shape the reconstructed experiment
// grids (R1-style load/capacity sweeps) and the bench throughput workloads
// re-solve over and over. The helpers answer the two questions every
// sweep-aware cache needs: "do these points share an identical task set?"
// (the precondition for the prefix-DP warm start) and "give me the capacity
// variants of this instance" (the canonical sweep used by benches/tests).
#ifndef RETASK_CACHE_SWEEP_HPP
#define RETASK_CACHE_SWEEP_HPP

#include <vector>

#include "retask/core/problem.hpp"

namespace retask {

/// Exact task-set equality: same size and identical (id, cycles, penalty)
/// triples in order; true at once for copies sharing one task vector. This
/// is the warm-start precondition — the prefix-DP table depends on nothing
/// else about the instance.
bool same_task_sets(const FrameTaskSet& a, const FrameTaskSet& b);

/// Capacity-sweep variants of `base`: every point keeps (and shares) the task
/// set, the energy curve and the processor count, and scales work_per_cycle by
/// 1/factor so point i's cycle capacity is ~factor x the base capacity
/// (factor in (0, 1] sweeps "same tasks, tighter processor"). Factors must
/// be positive.
std::vector<RejectionProblem> make_capacity_sweep(const RejectionProblem& base,
                                                  const std::vector<double>& factors);

}  // namespace retask

#endif  // RETASK_CACHE_SWEEP_HPP
