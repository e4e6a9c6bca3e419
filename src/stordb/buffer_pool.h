#ifndef SKEENA_STORDB_BUFFER_POOL_H_
#define SKEENA_STORDB_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "log/storage_device.h"
#include "stordb/page.h"

namespace skeena::stordb {

/// Page identifier across all table spaces: (table << 32) | page_no.
using PageId = uint64_t;

inline constexpr PageId kInvalidPageId = ~0ull;

inline PageId MakePageId(TableId table, uint32_t page_no) {
  return (static_cast<uint64_t>(table) << 32) | page_no;
}
inline TableId PageIdTable(PageId pid) {
  return static_cast<TableId>(pid >> 32);
}
inline uint32_t PageIdNo(PageId pid) { return static_cast<uint32_t>(pid); }

class BufferPool;

/// RAII pin on a buffer-pool frame. Callers latch the page in shared or
/// exclusive mode while reading/writing row bytes. A guard is only handed
/// out for a frame in the `kResident` state whose identity matched the
/// requested page id, and the pin blocks every lifecycle transition
/// (eviction, reload, Free) until it is dropped.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return pool_ != nullptr; }
  uint8_t* data() const { return data_; }

  // The latch methods are deliberately outside thread-safety analysis:
  // they acquire/release a frame latch reached through pool_->frames_[i],
  // a capability expression TSA cannot resolve, and the lock lifetime
  // spans guard method calls by design (caller-managed hand-over).
  void LockShared() SKEENA_NO_THREAD_SAFETY_ANALYSIS;
  void UnlockShared() SKEENA_NO_THREAD_SAFETY_ANALYSIS;
  void LockExclusive() SKEENA_NO_THREAD_SAFETY_ANALYSIS;
  /// Marks the page dirty and releases the exclusive latch. The dirty bit
  /// is published before the latch release, so any flusher or evictor that
  /// acquires the latch (or claims the frame once the pin drops) observes
  /// it.
  void UnlockExclusive() SKEENA_NO_THREAD_SAFETY_ANALYSIS;
  /// Releases the exclusive latch without marking the page dirty, for a
  /// holder that decided not to write.
  void UnlockExclusiveClean() SKEENA_NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t frame_idx, uint8_t* data)
      : pool_(pool), frame_idx_(frame_idx), data_(data) {}

  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
  uint8_t* data_ = nullptr;
};

/// Sharded buffer pool with clock eviction and dirty write-back, modeling
/// InnoDB's buffer pool instances. The storage-resident experiments size it
/// below the working set so row accesses traverse the storage stack — the
/// central cost asymmetry of the paper's fast-slow architecture.
///
/// Frame lifecycle (see DESIGN.md "Buffer pool frame lifecycle"): every
/// frame carries one atomic word packing {state, pin count}, and all
/// transitions are CASes against that word:
///
///   kFree ──claim──▶ kLoading ──load done──▶ kResident
///     ▲                  │  ▲                    │
///     └──load failed─────┘  └────────claim───────┤ (clean victim)
///                           kEvicting ◀──────────┘ (via write-back)
///
/// An evicting thread that must write back a dirty victim records
/// `old_pid → flush ticket` in its shard's in-flight write-back table
/// before dropping the shard mutex; a fetcher that misses on a pid with an
/// in-flight flush spins-then-parks on the ticket until the write-back has
/// reached the device, which makes read-after-evict linearizable with the
/// last `UnlockExclusive` of the evicted page.
class BufferPool {
 public:
  /// Resolves the device a page should be read from / written to. Supplied
  /// by the engine (one device per table space).
  using DeviceResolver = std::function<StorageDevice*(TableId)>;

  BufferPool(size_t num_pages, DeviceResolver resolver,
             size_t num_shards = 8);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page, reading it from its device on a miss.
  Result<PageGuard> FetchPage(PageId pid);

  /// Pins a brand-new zero-filled page (no device read). The caller must
  /// initialize it; it will reach the device on eviction / flush.
  Result<PageGuard> NewPage(PageId pid);

  /// Writes back all dirty pages (clean shutdown / checkpoint). Safe
  /// against concurrent fetchers/evictors: each frame is CAS-pinned via
  /// the state word and write-back happens under the shared page latch.
  /// Returns the first error but keeps flushing the remaining frames.
  Status FlushAll();

  size_t capacity() const { return frames_.size(); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Fetches that parked behind an in-flight write-back of the same page.
  uint64_t flush_waits() const {
    return flush_waits_.load(std::memory_order_relaxed);
  }
  /// Dirty eviction write-backs that reached the device.
  uint64_t write_backs() const {
    return write_backs_.load(std::memory_order_relaxed);
  }
  double HitRatio() const {
    uint64_t h = hits(), m = misses();
    return h + m == 0 ? 1.0 : static_cast<double>(h) / static_cast<double>(h + m);
  }
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    flush_waits_.store(0, std::memory_order_relaxed);
    write_backs_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class PageGuard;

  enum class FrameState : uint32_t {
    kFree = 0,      // no identity; data meaningless
    kLoading = 1,   // mapped; owner holds the exclusive latch during I/O
    kResident = 2,  // mapped; data valid
    kEvicting = 3,  // unmapped; owner writing the old image back
  };

  // State word layout: pins in the low 32 bits (so pin/unpin are +-1 on
  // the word), state above them. Every transition out of an observed
  // {state, pins} is a CAS — never a blind store — so pins taken without
  // the shard mutex (FlushAll) and the evictor's claim resolve atomically.
  static constexpr uint64_t kPinsMask = 0xffffffffull;
  static constexpr uint64_t PackWord(FrameState s, uint32_t pins) {
    return (static_cast<uint64_t>(s) << 32) | pins;
  }
  static constexpr FrameState WordState(uint64_t w) {
    return static_cast<FrameState>(w >> 32);
  }
  static constexpr uint32_t WordPins(uint64_t w) {
    return static_cast<uint32_t>(w & kPinsMask);
  }

  struct Frame {
    SharedMutex latch;
    std::atomic<uint64_t> word{PackWord(FrameState::kFree, 0)};
    std::atomic<bool> dirty{false};
    // Identity; valid iff state != kFree. Written only by the frame's
    // claim owner while holding the exclusive latch, read under the
    // shared latch (guard validation, FlushAll) or after an acquire load
    // of `word` by the next claim owner.
    PageId pid = kInvalidPageId;
    bool referenced = false;  // clock bit; touched only under the shard mutex
    uint8_t* data = nullptr;
  };

  /// One in-flight dirty write-back. `done` flips 0 -> 1 once the old
  /// image has reached the device or the eviction was rolled back, then
  /// wakes ONE parked fetcher; each woken fetcher wakes the next (baton
  /// chain), so waiters re-run the fetch staggered instead of as a
  /// thundering herd, and all but the first pick up the reloaded frame
  /// from the loader's exclusive latch.
  struct FlushTicket {
    std::atomic<uint32_t> done{0};
  };

  struct Shard {
    Mutex mu;
    std::unordered_map<PageId, size_t> table
        SKEENA_GUARDED_BY(mu);  // pid -> frame index
    // pid -> ticket for evictions whose dirty write-back has left the
    // mutex but not yet reached the device. Disjoint from `table`.
    std::unordered_map<PageId, std::shared_ptr<FlushTicket>> inflight
        SKEENA_GUARDED_BY(mu);
    // Frames owned by this shard. Immutable after construction, but the
    // clock sweep reads it with mu held anyway; keep it guarded so the
    // sweep's invariants stay checkable.
    std::vector<size_t> frame_idx SKEENA_GUARDED_BY(mu);
    size_t clock_hand SKEENA_GUARDED_BY(mu) = 0;
  };

  Result<PageGuard> FetchInternal(PageId pid, bool create_new);
  void Unpin(size_t frame_idx, bool dirty);

  /// Pins a frame found through the shard table (caller holds the shard
  /// mutex, so the frame is kLoading or kResident and cannot be claimed).
  /// Returns the state the pin observed.
  static FrameState PinMapped(Frame* f);
  /// CAS transition `from` -> `to` preserving the pin count. The caller
  /// must own the frame (claimed it, or holds it in kLoading/kEvicting).
  static void TransitionState(Frame* f, FrameState from, FrameState to);
  /// Marks the ticket done and wakes every parked fetcher.
  static void CompleteTicket(FlushTicket& ticket);

  DeviceResolver resolver_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<Shard> shards_;
  std::unique_ptr<uint8_t[]> arena_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> flush_waits_{0};
  std::atomic<uint64_t> write_backs_{0};
};

}  // namespace skeena::stordb

#endif  // SKEENA_STORDB_BUFFER_POOL_H_
