// Deterministic parallel execution for the experiment harness.
//
// The primitive is parallel_for(n, fn): run fn(0) ... fn(n-1) on a small
// reusable worker pool. Scheduling is a single shared atomic ticket counter
// (no work stealing, no per-thread queues), so every index runs exactly
// once, on exactly one thread, in an unspecified interleaving. Callers that
// want thread-count-independent results write fn(i)'s output into slot i of
// a pre-sized buffer and reduce the slots in index order afterwards — see
// run_comparison in exp/harness.cpp.
//
// Job-count resolution: an explicit `jobs` argument wins, then
// set_default_jobs(), then the RETASK_JOBS environment variable, then
// std::thread::hardware_concurrency(). jobs = 1 bypasses the pool entirely
// and runs the loop inline on the calling thread, preserving the exact
// behavior (including exception timing) of a plain sequential loop.
#ifndef RETASK_COMMON_PARALLEL_HPP
#define RETASK_COMMON_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace retask {

/// Worker threads used when parallel_for is called with jobs = 0: the
/// set_default_jobs() override if set, else RETASK_JOBS (clamped to >= 1),
/// else hardware_concurrency(). Always >= 1.
int default_jobs();

/// Process-wide override for default_jobs(); pass 0 to restore automatic
/// detection. Values < 0 are rejected.
void set_default_jobs(int jobs);

/// Runs fn(i) for every i in [0, n) exactly once. `jobs` = 0 uses
/// default_jobs(); `jobs` = 1 (or n <= 1, or a call nested inside another
/// parallel_for) runs inline in index order on the calling thread. If any
/// fn(i) throws, the exception for the smallest failing index is rethrown
/// on the calling thread after all workers have drained — the same
/// exception a sequential loop would have surfaced first.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn, int jobs = 0);

}  // namespace retask

#endif  // RETASK_COMMON_PARALLEL_HPP
