#ifndef SKEENA_COMMON_SHARDED_COUNTER_H_
#define SKEENA_COMMON_SHARDED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/spin_latch.h"

namespace skeena {

/// A statistics counter sharded across cache-line-padded slots so hot-path
/// increments never contend on a shared cache line: each thread is hashed
/// (via a process-wide thread index) onto its own shard and does a relaxed
/// fetch-add there; Read() folds the shards. Increments are never lost and
/// Read() is monotonic over quiescent points, but a concurrent Read() is
/// only an instantaneous approximation — exactly what stats counters need
/// and nothing more.
class ShardedCounter {
 public:
  ShardedCounter() = default;

  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n) { Shard().fetch_add(n, std::memory_order_relaxed); }

  /// Increments the calling thread's shard and returns that shard's new
  /// value (NOT the folded total). The shard-local value is a cheap
  /// periodic-trigger clock: "every N increments by this thread" without
  /// folding or touching shared state.
  uint64_t Increment() {
    return Shard().fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Folds all shards: O(kShards) relaxed loads.
  uint64_t Read() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 64;
  static_assert((kShards & (kShards - 1)) == 0, "kShards must be power of 2");

  static size_t ThreadShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    return idx;
  }

  std::atomic<uint64_t>& Shard() {
    return shards_[ThreadShardIndex()].value;
  }

  Padded<std::atomic<uint64_t>> shards_[kShards];
};

}  // namespace skeena

#endif  // SKEENA_COMMON_SHARDED_COUNTER_H_
