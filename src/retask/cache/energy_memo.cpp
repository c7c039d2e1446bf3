#include "retask/cache/energy_memo.hpp"

#include <mutex>
#include <vector>

#include "retask/obs/metrics.hpp"

namespace retask {
namespace {

/// Process-wide pool of shard slots: a thread takes a slot on first use and
/// hands it back when it exits, so a later thread reuses the slot — and, in
/// every memo, the dead thread's shard (E is pure, so its entries are as good
/// as fresh ones). Only more than kMaxShards live threads run out.
class SlotPool {
 public:
  std::size_t acquire() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) return next_++;
    const std::size_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void release(std::size_t slot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(slot);
  }

 private:
  std::mutex mutex_;
  std::vector<std::size_t> free_;
  std::size_t next_ = 0;
};

/// Never destroyed: threads still running during static destruction (a
/// process-lifetime worker pool) release their slots into it on exit.
SlotPool& slot_pool() {
  static SlotPool* const pool = new SlotPool();
  return *pool;
}

/// Holds the calling thread's slot for the thread's lifetime. The mutex in
/// release/acquire orders the dead thread's shard writes before the next
/// owner's reads.
struct SlotLease {
  SlotLease() = default;
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;
  ~SlotLease() { slot_pool().release(slot); }

  const std::size_t slot = slot_pool().acquire();
};

std::size_t thread_slot() {
  thread_local const SlotLease lease;
  return lease.slot;
}

}  // namespace

EnergyMemo::~EnergyMemo() {
  for (std::atomic<Shard*>& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

EnergyMemo::Shard* EnergyMemo::local_shard() {
  const std::size_t slot = thread_slot();
  if (slot >= kMaxShards) return nullptr;
  Shard* shard = shards_[slot].load(std::memory_order_acquire);
  if (shard == nullptr) {
    shard = new Shard();
    // The slot is owned by this thread, so the store cannot race another
    // writer; release pairs with the destructor's acquire.
    shards_[slot].store(shard, std::memory_order_release);
  }
  return shard;
}

std::size_t EnergyMemo::local_size() {
  Shard* shard = local_shard();
  if (shard == nullptr) return 0;
  return shard->values.size();
}

std::size_t EnergyMemo::shard_count() const {
  std::size_t count = 0;
  for (const std::atomic<Shard*>& slot : shards_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

void EnergyMemo::count_hit() { RETASK_COUNT("cache.energy_hits", 1); }

void EnergyMemo::count_miss() { RETASK_COUNT("cache.energy_misses", 1); }

void EnergyMemo::count_shards_exhausted() { RETASK_COUNT("cache.fallback.shards_exhausted", 1); }

}  // namespace retask
