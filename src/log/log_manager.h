#ifndef SKEENA_LOG_LOG_MANAGER_H_
#define SKEENA_LOG_LOG_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/parking_lot.h"
#include "common/thread_annotations.h"
#include "common/sharded_counter.h"
#include "common/status.h"
#include "common/types.h"
#include "log/storage_device.h"

namespace skeena {

/// Frame header: [u32 payload length][u32 payload check]. The check lets
/// recovery distinguish a torn tail (partial frame, arbitrary bytes) from a
/// complete record, which matters once the log lives in preallocated
/// segments whose unwritten tail reads as zeros — a zero length is the
/// end-of-log sentinel, a bad check is a torn frame.
inline constexpr size_t kLogFrameHeaderSize = 2 * sizeof(uint32_t);

/// Per-frame payload check (FNV-1a seeded with the length). Not a
/// cryptographic digest: it only has to make a torn/stale tail byte pattern
/// vanishingly unlikely to parse as a valid frame.
uint32_t LogFrameCheck(std::span<const uint8_t> payload);

/// Append-only write-ahead log with self-clocked group commit.
///
/// Workers append framed records into an in-memory reservation ring and
/// immediately continue — this is the foundation of the pipelined commit
/// protocol (paper Section 4.5, after Aether [34]): transactions never
/// issue their own flush; a background flusher ships the completed prefix
/// to the device and advances `durable_lsn()`, which a committing thread
/// waits on (WaitDurable) before its results are released to the client.
///
/// Group commit is self-clocked: the flusher sleeps until bytes are staged,
/// flushes everything staged, and repeats. There is no batch window —
/// whatever arrives while one flush is on the device forms the next batch,
/// so the batch size follows the device's own latency (an fsync amortizes
/// over every commit that arrived during it). A lone commit on an idle log
/// is flushed at once.
///
/// Flushes start at least kMinFlushPeriod apart. On a device that syncs
/// that fast (memory, tmpfs) the flusher would otherwise flush per commit:
/// every commit then costs a flusher wake-up plus a waiter wake-up, and
/// commit throughput follows how quickly the scheduler turns threads
/// around (on a 4-vCPU VM it spread ~7 % between runs and fell ~30 % with
/// one CPU taken away). With the floor, a saturated log flushes on a
/// steady period and each flush releases every commit that arrived during
/// it. A device whose flush takes longer than the floor never sees it.
///
/// Append fast path (no mutex, no shared writes beyond three atomics):
///  1. one fetch_add on the reservation word claims [lsn-len, lsn);
///  2. the frame is memcpy'd into the ring at `lsn % capacity`;
///  3. completion publishes via a release fetch_add on the per-block
///     release count covering the claimed bytes.
/// The flusher walks blocks from the flushed prefix: a block whose release
/// count equals its reserved span is fully copied (release counts are read
/// *before* the reservation word, so a count can never appear complete on
/// the strength of bytes reserved later). Ring space is recycled once the
/// prefix is on the device; appenders that outrun the flusher spin-then-park
/// on a space eventcount (one fetch_add per flush, no syscall when nobody
/// waits).
///
/// LSNs are byte offsets: a record's LSN is the offset one past its last
/// byte, so `durable_lsn() >= lsn` means the record is fully persistent.
///
/// On construction the log scans the device's frames and truncates a torn
/// tail (a crash mid-flush must not leave garbage that a later append would
/// bury mid-log), resuming LSN allocation at the valid end.
class LogManager {
 public:
  /// Shortest time between the starts of two background flushes (see the
  /// class comment). The flusher sleeps off the rest of it, so the kernel's
  /// timer slack (50 us by default on Linux) stretches the period further.
  static constexpr std::chrono::microseconds kMinFlushPeriod{50};

  struct Options {
    /// Deprecated, ignored: the ceiling of the removed adaptive batch
    /// window. Kept for one release so benchmark code that still reads it
    /// compiles; delete together with Stats::window_us.
    uint64_t max_flush_interval_us = 1000;
    /// Reservation ring capacity (rounded up to a power of two, min 64 KiB).
    /// With auto_flush off, the total un-flushed bytes must stay under
    /// capacity minus one block or Append parks forever.
    size_t buffer_bytes = 1 << 20;
    /// Completion-tracking granularity (rounded to a power of two dividing
    /// the capacity). Smaller blocks let the flusher ship a prefix sooner
    /// when a straggling appender is still copying; larger blocks cost
    /// fewer release-count updates per append.
    size_t block_bytes = 32 * 1024;
    /// Issue a device Sync() after each flush batch.
    bool sync_on_flush = true;
    /// When false the background flusher never runs; only explicit Flush()
    /// advances durability (tests of durability gating).
    bool auto_flush = true;
  };

  /// Raw-speed counters (relaxed increments; folded on read). Ratios like
  /// bytes/flush or the inter-flush gap are left to the caller.
  struct Stats {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;  // framed bytes (payload + headers)
    uint64_t flushes = 0;
    uint64_t flushed_bytes = 0;
    uint64_t max_batch_bytes = 0;
    /// Appends that waited for ring space (flusher behind).
    uint64_t space_waits = 0;
    /// Batched unparks issued to release WaitDurable callers (at most one
    /// per durable advance; none when nobody parked).
    uint64_t durable_wakes = 0;
    /// Deprecated, always 0: the removed adaptive batch window. Kept for
    /// one release alongside Options::max_flush_interval_us.
    uint64_t window_us = 0;
    /// Sum of steady-clock gaps between consecutive flush batches.
    uint64_t flush_gap_ns_total = 0;
    /// Sum over flushes of the staged depth (reserved - flushed) when the
    /// flush began: the in-flight bytes each batch found waiting.
    uint64_t staged_at_flush_total = 0;
  };

  explicit LogManager(std::unique_ptr<StorageDevice> device);
  LogManager(std::unique_ptr<StorageDevice> device, Options options);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Appends one framed record; returns its LSN. Thread-safe, lock-free on
  /// the fast path (no I/O, no mutex; parks only when the ring is full).
  /// Records must be non-empty and smaller than the ring minus one block.
  Lsn Append(std::span<const uint8_t> record);

  /// LSN one past the last reserved byte.
  Lsn CurrentLsn() const { return reserved_.load(std::memory_order_acquire); }

  /// LSN up to which the log is durable on the device.
  Lsn DurableLsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until `lsn` is durable. Spin-then-park on the durable sequence
  /// word: the flusher publishes each durability advance with one bump and
  /// at most one batched unpark for all waiters (none when nobody parked).
  /// Committing threads wait here directly, so one flush releases every
  /// commit it covers with a single wake. Returns true iff the caller truly
  /// blocked in the kernel at least once.
  bool WaitDurable(Lsn lsn);

  /// Forces everything reserved before the call to the device (spinning out
  /// any appender still publishing its copy) before returning.
  Status Flush();

  const StorageDevice* device() const { return device_.get(); }

  /// Replication hook: invoked once per flush batch that advanced
  /// durable_lsn_, with the new durable LSN, while flush_mu_ is held — so
  /// calls arrive in advance order. Keep it cheap and non-blocking (the
  /// shipper's implementation bumps an eventcount word and issues at most
  /// one wake). Set during wiring, before concurrent appends; replace with
  /// nullptr only once flushes are quiesced.
  void SetDurableObserver(std::function<void(Lsn)> observer);

  /// Number of flush batches issued (group-commit effectiveness metric).
  uint64_t flush_batches() const {
    // relaxed-ok: monotone diagnostic counter.
    return flushes_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  struct alignas(64) BlockCount {
    std::atomic<uint64_t> released{0};
  };

  Lsn BlockFloor(Lsn lsn) const { return lsn & ~(block_bytes_ - 1); }
  size_t BlockIndex(Lsn lsn) const {
    return (lsn / block_bytes_) & (n_blocks_ - 1);
  }
  bool HasStaged() const {
    return reserved_.load(std::memory_order_acquire) >
           flushed_.load(std::memory_order_acquire);
  }

  /// Scans the device's frames; truncates a torn tail; returns the LSN to
  /// resume at.
  Lsn RecoverTail();
  void CopyIntoRing(Lsn lsn, const uint8_t* src, size_t n);
  void WaitForRingSpace(Lsn end);
  /// One flush round: ship the completed prefix, sync, advance durability.
  /// Takes flush_mu_; safe from any thread.
  Status FlushPass();
  void FlusherLoop();

  std::unique_ptr<StorageDevice> device_;
  Options options_;

  // Reservation ring.
  std::unique_ptr<uint8_t[]> ring_;
  uint64_t capacity_ = 0;     // power of two
  uint64_t block_bytes_ = 0;  // power of two dividing capacity_
  uint64_t n_blocks_ = 0;
  uint64_t max_append_ = 0;  // capacity_ - block_bytes_ (incl. frame header)
  std::unique_ptr<BlockCount[]> released_;

  /// Next LSN to hand out; bytes in [flushed_, reserved_) are staged.
  std::atomic<Lsn> reserved_{0};
  /// Prefix shipped to the device; ring space below it is reusable.
  std::atomic<Lsn> flushed_{0};
  std::atomic<Lsn> durable_lsn_{0};

  // Ring-space eventcount: bumped once per flush that advanced flushed_.
  std::atomic<uint32_t> space_seq_{0};
  std::atomic<uint32_t> space_waiters_{0};

  // Durable-advance eventcount: bumped once per flush batch that moved
  // durable_lsn_; WaitDurable parks on it (see ParkingLot protocol).
  std::atomic<uint32_t> durable_seq_{0};
  std::atomic<uint32_t> durable_waiters_{0};

  Mutex flush_mu_;  // serializes flush batches
  std::function<void(Lsn)> durable_observer_ SKEENA_GUARDED_BY(flush_mu_);

  // Flusher sleep/wake. Appenders take flusher_mu_ only on the
  // empty->non-empty transition (at most once per batch).
  Mutex flusher_mu_;
  CondVar flusher_cv_;
  std::atomic<bool> stop_{false};
  std::thread flusher_;

  // Stats.
  ShardedCounter appends_;
  ShardedCounter append_bytes_;
  ShardedCounter space_waits_;
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> flushed_bytes_{0};
  std::atomic<uint64_t> max_batch_bytes_{0};
  std::atomic<uint64_t> durable_wakes_{0};
  std::atomic<uint64_t> flush_gap_ns_total_{0};
  std::atomic<uint64_t> staged_at_flush_total_{0};
  uint64_t last_flush_ns_ SKEENA_GUARDED_BY(flush_mu_) = 0;
};

/// Sequentially iterates the framed records of a log device. Used by
/// recovery (paper Section 4.6). A zero-length header (the unwritten tail
/// of a preallocated segment), a frame running past the device, or a check
/// mismatch all read as end-of-log.
class LogReader {
 public:
  /// `start_offset` must be frame-aligned (0, or a value returned by
  /// offset()); replication shipping cursors resume from the last
  /// acknowledged frame boundary this way.
  explicit LogReader(const StorageDevice* device, uint64_t start_offset = 0)
      : device_(device), offset_(start_offset) {}

  /// Reads the next record into *record. Returns false at end of log or on
  /// a torn/partial record (which recovery treats as the end).
  bool Next(std::string* record);

  uint64_t offset() const { return offset_; }

 private:
  const StorageDevice* device_;
  uint64_t offset_ = 0;
};

}  // namespace skeena

#endif  // SKEENA_LOG_LOG_MANAGER_H_
