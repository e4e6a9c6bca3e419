#include "log/log_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace skeena {

namespace {

constexpr size_t kMinCapacity = 64 * 1024;
constexpr size_t kMinBlock = 4 * 1024;
/// Upper bound on a single payload accepted by the reader; anything larger
/// in a length header is garbage (the ring caps real appends far below it).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void StoreMax(std::atomic<uint64_t>& target, uint64_t v) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

uint32_t LogFrameCheck(std::span<const uint8_t> payload) {
  // FNV-1a over the payload, seeded with a mix of the length so a frame
  // whose payload is a prefix of another's cannot share its check.
  uint32_t h =
      2166136261u ^ (static_cast<uint32_t>(payload.size()) * 2654435761u);
  for (uint8_t b : payload) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

LogManager::LogManager(std::unique_ptr<StorageDevice> device)
    : LogManager(std::move(device), Options()) {}

LogManager::LogManager(std::unique_ptr<StorageDevice> device, Options options)
    : device_(std::move(device)), options_(options) {
  capacity_ =
      RoundUpPow2(std::max<uint64_t>(options_.buffer_bytes, kMinCapacity));
  block_bytes_ = RoundUpPow2(
      std::clamp<uint64_t>(options_.block_bytes, kMinBlock, capacity_ / 2));
  n_blocks_ = capacity_ / block_bytes_;
  max_append_ = capacity_ - block_bytes_;
  ring_ = std::make_unique<uint8_t[]>(capacity_);
  released_ = std::make_unique<BlockCount[]>(n_blocks_);

  const Lsn tail = RecoverTail();
  reserved_.store(tail, std::memory_order_relaxed);
  flushed_.store(tail, std::memory_order_relaxed);
  durable_lsn_.store(tail, std::memory_order_relaxed);

  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() {
  stop_.store(true, std::memory_order_release);
  {
    MutexLock guard(flusher_mu_);
    flusher_cv_.NotifyAll();
  }
  if (flusher_.joinable()) flusher_.join();
  // Final drain so nothing staged is lost on clean shutdown. A device that
  // is still failing keeps its bytes in the ring, which dies with us — the
  // same contract the old staging vector had.
  Flush();
}

Lsn LogManager::RecoverTail() {
  const uint64_t size = device_->Size();
  if (size == 0) return 0;
  LogReader reader(device_.get());
  std::string record;
  while (reader.Next(&record)) {
  }
  const Lsn end = reader.offset();
  if (end < size) {
    // Torn or garbage tail from a crash mid-flush: cut it off so resumed
    // appends land at `end` on a clean device. A device that cannot
    // truncate (a test fake) is still correct: the flusher writes by
    // explicit offset, so the stale bytes are overwritten in place. Any
    // other failure leaves the old tail where recovery would read it as
    // log, so the log fails stop instead of running on it.
    const Status s = device_->Truncate(end);
    if (!s.ok() && s.code() != StatusCode::kNotSupported) {
      std::fprintf(stderr, "LogManager: cannot truncate torn tail: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  }
  return end;
}

void LogManager::CopyIntoRing(Lsn lsn, const uint8_t* src, size_t n) {
  const uint64_t off = lsn & (capacity_ - 1);
  const size_t first = std::min<uint64_t>(n, capacity_ - off);
  std::memcpy(ring_.get() + off, src, first);
  if (first < n) std::memcpy(ring_.get(), src + first, n - first);
}

void LogManager::WaitForRingSpace(Lsn end) {
  // The claimed range may overwrite ring bytes only after every byte that
  // previously lived there is on the device. The bound is block-aligned so
  // each ring block's release count covers exactly one reservation window
  // at a time (no wrap mixing).
  auto have_space = [&] {
    const Lsn f = flushed_.load(std::memory_order_acquire);
    return end <= BlockFloor(f) + capacity_;
  };
  space_waits_.Add(1);
  while (true) {
    if (SpinUntil(have_space)) return;
    const uint32_t seq = space_seq_.load(std::memory_order_acquire);
    if (have_space()) return;
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (!have_space()) {
      ParkingLot::Park(space_seq_, seq);
    }
    space_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Lsn LogManager::Append(std::span<const uint8_t> record) {
  assert(!record.empty() && "empty log records are not appendable");
  const uint64_t total = kLogFrameHeaderSize + record.size();
  assert(total <= max_append_ && "record exceeds the reservation ring");

  // 1. Claim [start, end) with a single fetch_add — the only cross-thread
  //    ordering point on the fast path.
  const Lsn start = reserved_.fetch_add(total, std::memory_order_relaxed);
  const Lsn end = start + total;
  const Lsn flushed_before = flushed_.load(std::memory_order_acquire);
  if (end > BlockFloor(flushed_before) + capacity_) {
    WaitForRingSpace(end);
  }

  // 2. Copy the frame into the claimed ring bytes.
  uint8_t header[kLogFrameHeaderSize];
  const uint32_t len = static_cast<uint32_t>(record.size());
  const uint32_t check = LogFrameCheck(record);
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &check, sizeof(check));
  CopyIntoRing(start, header, kLogFrameHeaderSize);
  CopyIntoRing(start + kLogFrameHeaderSize, record.data(), record.size());

  // 3. Publish: bump the release count of every block the frame touches.
  //    The release order pairs with the flusher's acquire read and carries
  //    the copied bytes with it.
  Lsn pos = start;
  while (pos < end) {
    const Lsn span_end = std::min(end, BlockFloor(pos) + block_bytes_);
    released_[BlockIndex(pos)].released.fetch_add(span_end - pos,
                                                  std::memory_order_release);
    pos = span_end;
  }

  appends_.Add(1);
  append_bytes_.Add(total);

  // Wake the flusher only on the empty -> non-empty edge: a flusher that is
  // busy re-checks for staged bytes after every pass, so every other append
  // stays mutex- and syscall-free.
  if (options_.auto_flush && start == flushed_before) {
    MutexLock guard(flusher_mu_);
    flusher_cv_.NotifyOne();
  }
  return end;
}

void LogManager::SetDurableObserver(std::function<void(Lsn)> observer) {
  MutexLock guard(flush_mu_);
  durable_observer_ = std::move(observer);
}

Status LogManager::FlushPass() {
  MutexLock guard(flush_mu_);
  return FlushPassLocked();
}

Status LogManager::FlushPassLocked() {
  const Lsn from = flushed_.load(std::memory_order_relaxed);
  staged_at_flush_total_.fetch_add(
      reserved_.load(std::memory_order_acquire) - from,
      std::memory_order_relaxed);

  // Find the completed prefix. Per block: read its release count *before*
  // the reservation word. The count only reaches the block's reserved span
  // via release-adds that happen-after the corresponding reservations, so
  // every byte it accounts for lies inside the R read next — `count ==
  // span` therefore proves all of [p, min(block_end, R)) is fully copied,
  // and the acquire on the count makes those copies visible here.
  //
  // The walk is capped at one ring lap: at `BlockFloor(from) + capacity`
  // the next block index wraps onto the block the walk started in, whose
  // count still holds THIS lap's releases (they are only retired after the
  // write below). Without the cap a completely full, fully released ring
  // would read that stale count as the next lap's and ship bytes that
  // space-parked appenders have claimed but not yet copied. The cap loses
  // nothing: flushed_ stays `from` for the whole pass, so no appender may
  // copy at or beyond the cap until a later pass.
  const Lsn lap_end = BlockFloor(from) + capacity_;
  Lsn prefix = from;
  while (prefix < lap_end) {
    const uint64_t avail =
        released_[BlockIndex(prefix)].released.load(std::memory_order_acquire);
    const Lsn reserved = reserved_.load(std::memory_order_acquire);
    if (reserved <= prefix) break;
    const Lsn block_end = BlockFloor(prefix) + block_bytes_;
    const Lsn span_end = std::min(block_end, reserved);
    if (avail < span_end - prefix) break;  // a copy in this block is in flight
    prefix = span_end;
    if (span_end < block_end) break;  // caught up with the reservations
  }

  if (prefix > from) {
    const uint64_t off = from & (capacity_ - 1);
    const uint64_t len = prefix - from;
    const uint64_t first = std::min<uint64_t>(len, capacity_ - off);
    // Write by explicit offset so the retry after a failed flush is
    // idempotent: no duplicate bytes, durability simply trails.
    SKEENA_RETURN_NOT_OK(
        device_->WriteAt(from, std::span(ring_.get() + off, first)));
    if (first < len) {
      SKEENA_RETURN_NOT_OK(
          device_->WriteAt(from + first, std::span(ring_.get(), len - first)));
    }

    // Consume: retire the shipped bytes from their block counts *before*
    // publishing flushed_, so a recycled block starts its next window at
    // zero. Appenders only overwrite these ring bytes after acquiring the
    // new flushed_, which orders our reads before their writes.
    Lsn pos = from;
    while (pos < prefix) {
      const Lsn span_end = std::min(prefix, BlockFloor(pos) + block_bytes_);
      released_[BlockIndex(pos)].released.fetch_sub(span_end - pos,
                                                    std::memory_order_relaxed);
      pos = span_end;
    }
    flushed_.store(prefix, std::memory_order_release);
    flushed_bytes_.fetch_add(len, std::memory_order_relaxed);
    StoreMax(max_batch_bytes_, len);

    // One eventcount bump + at most one batched unpark for ring-space
    // waiters, mirroring the durable protocol below.
    space_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
      ParkingLot::WakeAll(space_seq_);
    }
  }

  // Advance durability to everything shipped — including bytes written by
  // an earlier pass whose sync failed (retry path: nothing newly staged,
  // but durable_lsn_ still trails flushed_).
  const Lsn shipped = flushed_.load(std::memory_order_relaxed);
  if (durable_lsn_.load(std::memory_order_relaxed) < shipped) {
    SKEENA_RETURN_NOT_OK(device_->Sync());
    durable_lsn_.store(shipped, std::memory_order_release);

    const uint64_t now = SteadyNowNs();
    if (last_flush_ns_ != 0) {
      flush_gap_ns_total_.fetch_add(now - last_flush_ns_,
                                    std::memory_order_relaxed);
    }
    last_flush_ns_ = now;
    flushes_.fetch_add(1, std::memory_order_relaxed);

    // Publish the advance: bump the eventcount, then one batched unpark
    // for however many waiters parked — no syscall at all when none did.
    durable_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (durable_waiters_.load(std::memory_order_seq_cst) > 0) {
      ParkingLot::WakeAll(durable_seq_);
      durable_wakes_.fetch_add(1, std::memory_order_relaxed);
    }

    if (durable_observer_) durable_observer_(shipped);
  }
  return Status::OK();
}

Status LogManager::Flush() {
  const Lsn target = reserved_.load(std::memory_order_acquire);
  while (durable_lsn_.load(std::memory_order_acquire) < target) {
    SKEENA_RETURN_NOT_OK(FlushPass());
    // Durability still trailing the target means an appender that reserved
    // before our snapshot is mid-copy; it publishes in bounded time.
    if (durable_lsn_.load(std::memory_order_acquire) < target) {
      CpuRelax();
    }
  }
  return Status::OK();
}

Status LogManager::PacedPassLocked(uint64_t now_ns) {
  const uint64_t flushes_before = flushes_.load(std::memory_order_relaxed);
  Status s = FlushPassLocked();
  if (!s.ok()) {
    // Back off a failing device for the idle backstop, whoever retries.
    next_pass_ns_ =
        SteadyNowNs() + std::chrono::nanoseconds(kIdleBackstop).count();
  } else if (flushes_.load(std::memory_order_relaxed) != flushes_before) {
    next_pass_ns_ = now_ns + std::chrono::nanoseconds(kMinFlushPeriod).count();
  }
  return s;
}

void LogManager::WakeIdleFlusher() {
  MutexLock lock(flusher_mu_);
  if (flusher_idle_) flusher_cv_.NotifyOne();
}

void LogManager::TryLeadFlush(Lsn lsn) {
  // A pass already on the device covers us or leaves our bytes staged for
  // the next one: never queue behind it.
  if (!flush_mu_.TryLock()) return;
  if (DurableLsn() < lsn) {
    uint64_t now = SteadyNowNs();
    // Within one period of the floor: spin it out and run the pass here,
    // so a saturated log's passes start at the floor, not after a timed
    // sleep and its slack. A longer wait is a failing device's back-off,
    // which the caller parks through.
    constexpr uint64_t kPeriodNs =
        std::chrono::nanoseconds(kMinFlushPeriod).count();
    if (now < next_pass_ns_ && next_pass_ns_ - now <= kPeriodNs) {
      do {
        CpuRelax();
        now = SteadyNowNs();
      } while (now < next_pass_ns_);
    }
    if (now >= next_pass_ns_) (void)PacedPassLocked(now);
  }
  flush_mu_.Unlock();
}

bool LogManager::WaitDurable(Lsn lsn) {
  if (DurableLsn() >= lsn) return false;
  if (options_.auto_flush) TryLeadFlush(lsn);
  if (SpinUntil([&] { return DurableLsn() >= lsn; })) return false;
  // About to park: make sure a pass will cover us. A committer-led pass in
  // flight may have walked the ring before our bytes were complete, and
  // an append that found bytes already staged woke nobody. A flusher that
  // is not idle re-checks for staged bytes before it idles again.
  if (options_.auto_flush) WakeIdleFlusher();
  bool parked = false;
  while (true) {
    // Futex protocol: read the sequence, recheck the predicate, park only
    // while the sequence is unchanged. A flusher that advances durability
    // between the recheck and the park bumps the word first, so the park
    // returns immediately instead of missing the wake.
    const uint32_t seq = durable_seq_.load(std::memory_order_acquire);
    if (DurableLsn() >= lsn) return parked;
    durable_waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (DurableLsn() < lsn) {
      parked |= ParkingLot::Park(durable_seq_, seq);
    }
    durable_waiters_.fetch_sub(1, std::memory_order_relaxed);
    // Woken by a pass that walked the ring before our bytes landed: lead
    // the next one rather than park again for the flusher.
    if (options_.auto_flush && DurableLsn() < lsn) TryLeadFlush(lsn);
  }
}

void LogManager::FlusherLoop() {
  auto stopping = [&] { return stop_.load(std::memory_order_acquire); };
  while (true) {
    // Sleep until bytes are staged (or stop). A flusher that just finished
    // a pass finds the next batch already staged and skips the wait. The
    // backstop bounds shutdown latency.
    {
      MutexLock lock(flusher_mu_);
      flusher_idle_ = true;
      const bool woke = flusher_cv_.WaitFor(flusher_mu_, kIdleBackstop, [&] {
        return stopping() || (options_.auto_flush && HasStaged());
      });
      flusher_idle_ = false;
      if (!woke) continue;
    }
    if (stopping()) return;

    const Lsn flushed_before = flushed_.load(std::memory_order_acquire);
    uint64_t wait_ns = 0;
    {
      MutexLock guard(flush_mu_);
      const uint64_t now = SteadyNowNs();
      if (now < next_pass_ns_) {
        wait_ns = next_pass_ns_ - now;
      } else {
        (void)PacedPassLocked(now);  // an error pushes the floor out
      }
    }
    if (wait_ns != 0) {
      // Within the period floor, or backing off a failing device. Commits
      // arriving meanwhile stage into the next batch, and a committer that
      // waits on them spins to the floor and flushes it itself.
      MutexLock lock(flusher_mu_);
      flusher_cv_.WaitFor(flusher_mu_, std::chrono::nanoseconds(wait_ns),
                          stopping);
      continue;
    }
    if (flushed_.load(std::memory_order_acquire) == flushed_before &&
        HasStaged()) {
      // No progress: the oldest staged bytes belong to an appender still
      // mid-copy. It publishes in bounded time; give it the core instead
      // of re-walking the ring at full speed.
      std::this_thread::yield();
    }
  }
}

LogManager::Stats LogManager::stats() const {
  Stats s;
  s.appends = appends_.Read();
  s.append_bytes = append_bytes_.Read();
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.flushed_bytes = flushed_bytes_.load(std::memory_order_relaxed);
  s.max_batch_bytes = max_batch_bytes_.load(std::memory_order_relaxed);
  s.space_waits = space_waits_.Read();
  s.durable_wakes = durable_wakes_.load(std::memory_order_relaxed);
  s.flush_gap_ns_total = flush_gap_ns_total_.load(std::memory_order_relaxed);
  s.staged_at_flush_total =
      staged_at_flush_total_.load(std::memory_order_relaxed);
  return s;
}

bool LogReader::Next(std::string* record) {
  const uint64_t size = device_->Size();
  if (offset_ + kLogFrameHeaderSize > size) return false;
  uint8_t header[kLogFrameHeaderSize];
  if (!device_->ReadAt(offset_, std::span<uint8_t>(header, sizeof(header)))
           .ok()) {
    return false;
  }
  uint32_t len = 0;
  uint32_t check = 0;
  std::memcpy(&len, header, sizeof(len));
  std::memcpy(&check, header + sizeof(len), sizeof(check));
  // len == 0: the zero-filled unwritten tail of a preallocated segment.
  // Oversized len: garbage (a torn header). Both read as end-of-log.
  if (len == 0 || len > kMaxRecordBytes) return false;
  if (offset_ + kLogFrameHeaderSize + len > size) return false;  // torn tail
  record->resize(len);
  if (!device_
           ->ReadAt(offset_ + kLogFrameHeaderSize,
                    std::span<uint8_t>(
                        reinterpret_cast<uint8_t*>(record->data()), len))
           .ok()) {
    return false;
  }
  if (LogFrameCheck(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(record->data()), len)) != check) {
    return false;  // torn or stale frame
  }
  offset_ += kLogFrameHeaderSize + len;
  return true;
}

}  // namespace skeena
