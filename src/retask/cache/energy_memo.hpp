// Shared energy memo: a per-problem cache of E(cycles) evaluations.
//
// A memo pays only where a hit costs much less than an evaluation, and one
// E(W) evaluation is a closed form for every power model (continuous or
// discrete, power/energy_curve.hpp) that costs about as much as a hash hit.
// So the library attaches no memo of its own: a memo is only ever one a
// caller attaches through RejectionProblem::attach_energy_memo, directly or
// as BatchOptions::shared_energy_memo for a whole harness grid.
//
// The memo keeps two hard guarantees:
//
//  * Bit-identity. E(W) is a pure function of (curve, work_per_cycle,
//    cycles); the memo only ever returns a value the cold path computed, so
//    cached and uncached runs produce the same bits in every consumer.
//  * Lock-free sharding. One memo may be shared across the worker pool (a
//    caller-shared grid attaches one memo to every cell — see
//    exp/harness.hpp). Each thread owns a private shard selected by a
//    stable per-thread slot, so recording never takes a lock and never
//    races: a thread only reads and writes its own shard. Threads
//    therefore do not see each other's entries — sharing across threads
//    trades perfect reuse for zero synchronization, which is the right
//    trade when each shard converges to the same hot working set anyway.
//    A thread's slot is recycled when it exits, so the next thread inherits
//    the slot together with the dead thread's shard.
//
// Sharing contract: attach one memo only to problems with identical
// (EnergyCurve, work_per_cycle). The memo cannot verify this; the caller
// that attaches it vouches for it.
#ifndef RETASK_CACHE_ENERGY_MEMO_HPP
#define RETASK_CACHE_ENERGY_MEMO_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <unordered_map>

#include "retask/task/task.hpp"

namespace retask {

/// Per-thread-sharded memo of cycles -> energy. Copyable problems share it
/// through a shared_ptr (see RejectionProblem::attach_energy_memo).
class EnergyMemo {
 public:
  EnergyMemo() = default;
  ~EnergyMemo();
  EnergyMemo(const EnergyMemo&) = delete;
  EnergyMemo& operator=(const EnergyMemo&) = delete;

  /// Returns the memoized energy for `cycles`, calling `compute(cycles)` on
  /// a miss and recording the result in the calling thread's shard. Safe to
  /// call concurrently from any number of threads; obs counters
  /// cache.energy_hits / cache.energy_misses track the reuse.
  template <typename Fn>
  double get_or_compute(Cycles cycles, const Fn& compute) {
    Shard* shard = local_shard();
    if (shard == nullptr) {  // more live threads than shard slots
      count_shards_exhausted();
      return compute(cycles);
    }
    const auto it = shard->values.find(cycles);
    if (it != shard->values.end()) {
      count_hit();
      return it->second;
    }
    count_miss();
    const double energy = compute(cycles);
    shard->values.emplace(cycles, energy);
    return energy;
  }

  /// Entries in the calling thread's shard (tests; other shards are not
  /// safely readable from here).
  std::size_t local_size();

  /// Shards allocated so far (grows monotonically; tests).
  std::size_t shard_count() const;

 private:
  struct Shard {
    std::unordered_map<Cycles, double> values;
  };

  /// Live threads beyond this count fall back to the cold path, counted as
  /// cache.fallback.shards_exhausted; far above the worker-pool sizes the
  /// harness uses. Exited threads return their slots (SlotPool in the .cpp).
  static constexpr std::size_t kMaxShards = 256;

  Shard* local_shard();
  static void count_hit();
  static void count_miss();
  static void count_shards_exhausted();

  std::array<std::atomic<Shard*>, kMaxShards> shards_{};
};

}  // namespace retask

#endif  // RETASK_CACHE_ENERGY_MEMO_HPP
