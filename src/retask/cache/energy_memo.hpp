// Shared energy memo: a per-problem cache of E(cycles) evaluations.
//
// Every solver in core/ spends most of its time in
// RejectionProblem::energy_of_cycles — each call optimizes a speed schedule
// over the curve's hull — and a sweep grid evaluates the *same* curve at the
// same cycle counts thousands of times: the DP objective sweep, the FPTAS
// guess rounds, the marginal greedy's flip loop, the exhaustive mask loop
// and the harness's reference solve all revisit overlapping loads. The memo
// turns those repeats into hash lookups while keeping two hard guarantees:
//
//  * Bit-identity. E(W) is a pure function of (curve, work_per_cycle,
//    cycles); the memo only ever returns a value the cold path computed, so
//    cached and uncached runs produce the same bits in every consumer.
//  * Lock-free sharding. One memo may be shared across the worker pool (a
//    whole sweep's cells attach the same memo when their curves are
//    identical — see exp/harness.hpp). Each thread owns a private shard
//    selected by a stable per-thread slot, so recording never takes a lock
//    and never races: a thread only reads and writes its own shard. Threads
//    therefore do not see each other's entries — sharing across threads
//    trades perfect reuse for zero synchronization, which is the right
//    trade when each shard converges to the same hot working set anyway.
//    A thread's slot is recycled when it exits, so the next thread inherits
//    the slot together with the dead thread's shard.
//
// Sharing contract: attach one memo only to problems with identical
// (EnergyCurve, work_per_cycle). The memo cannot verify this; the attach
// sites in exp/harness and the benches are the audited callers.
#ifndef RETASK_CACHE_ENERGY_MEMO_HPP
#define RETASK_CACHE_ENERGY_MEMO_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

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

  /// Switches lookups for cycles in [0, max_cycles] to a dense per-shard
  /// array (indexed load + validity bit) instead of the hash map. The exact
  /// select sweeps evaluate E over nearly every load in that range, often
  /// millions of times per solve — the mp-scale local search alone replays
  /// tens of millions of rows — and at that density the hash probe IS the
  /// cost. Pure speedup: the stored values are the same bits either way.
  /// Call before heavy use (entries already in the hash map are not
  /// migrated — a later dense lookup recomputes them, bit-identically).
  /// Requests beyond kDenseLimit entries are ignored and the memo stays on
  /// the hash path; the bound may grow monotonically across calls.
  void reserve_dense(Cycles max_cycles);

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
    const std::size_t width = dense_width_.load(std::memory_order_relaxed);
    if (width != 0 && cycles >= 0 && static_cast<std::size_t>(cycles) < width) {
      ensure_dense(*shard, width);
      const auto w = static_cast<std::size_t>(cycles);
      if ((shard->dense_set[w >> 6] >> (w & 63)) & 1u) {
        count_hit();
        return shard->dense[w];
      }
      count_miss();
      const double energy = compute(cycles);
      shard->dense[w] = energy;
      shard->dense_set[w >> 6] |= std::uint64_t{1} << (w & 63);
      return energy;
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

  /// Non-computing lookup in the calling thread's shard for the batched
  /// paths: on a hit stores the memoized value in `energy` and returns true
  /// (counting a hit); on a miss returns false (counting a miss). When the
  /// shard slots are exhausted, returns false and counts
  /// cache.fallback.shards_exhausted — matching get_or_compute's cold
  /// fallback.
  bool lookup(Cycles cycles, double& energy);

  /// Records a cold-path result in the calling thread's shard (no-op when
  /// slots are exhausted or the entry already exists — E is pure, so a
  /// duplicate is bit-identical by construction).
  void record(Cycles cycles, double energy);

  /// Entries in the calling thread's shard (tests; other shards are not
  /// safely readable from here).
  std::size_t local_size();

  /// Shards allocated so far (grows monotonically; tests).
  std::size_t shard_count() const;

 private:
  struct Shard {
    std::unordered_map<Cycles, double> values;
    std::vector<double> dense;              ///< energies for cycles < dense_width_
    std::vector<std::uint64_t> dense_set;   ///< validity bitmap for `dense`
  };

  /// Live threads beyond this count fall back to the cold path, counted as
  /// cache.fallback.shards_exhausted; far above the worker-pool sizes the
  /// harness uses. Exited threads return their slots (SlotPool in the .cpp).
  static constexpr std::size_t kMaxShards = 256;

  /// Densest range reserve_dense accepts: 2^22 entries = 32 MiB of doubles
  /// per shard. Larger requests keep the hash path.
  static constexpr std::size_t kDenseLimit = std::size_t{1} << 22;

  Shard* local_shard();
  /// Grows the calling thread's shard-local dense arrays to `width` (the
  /// shard is thread-private, so the resize cannot race; existing entries
  /// and bits are preserved).
  static void ensure_dense(Shard& shard, std::size_t width);
  static void count_hit();
  static void count_miss();
  static void count_shards_exhausted();

  std::array<std::atomic<Shard*>, kMaxShards> shards_{};
  /// Dense-range width (max_cycles + 1); 0 = hash-only. Monotonic.
  std::atomic<std::size_t> dense_width_{0};
};

}  // namespace retask

#endif  // RETASK_CACHE_ENERGY_MEMO_HPP
