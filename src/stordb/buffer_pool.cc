#include "stordb/buffer_pool.h"

#include <cassert>
#include <cstring>

#include "common/parking_lot.h"
#include "common/spin_latch.h"
#include "log/storage_device.h"

namespace skeena::stordb {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->Unpin(frame_idx_, false);
    pool_ = other.pool_;
    frame_idx_ = other.frame_idx_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() {
  if (pool_ != nullptr) pool_->Unpin(frame_idx_, false);
}

void PageGuard::LockShared() {
  pool_->frames_[frame_idx_]->latch.LockShared();
}
void PageGuard::UnlockShared() {
  pool_->frames_[frame_idx_]->latch.UnlockShared();
}
void PageGuard::LockExclusive() { pool_->frames_[frame_idx_]->latch.Lock(); }
void PageGuard::UnlockExclusive() {
  auto* f = pool_->frames_[frame_idx_].get();
  f->dirty.store(true, std::memory_order_release);
  f->latch.Unlock();
}
void PageGuard::UnlockExclusiveClean() {
  pool_->frames_[frame_idx_]->latch.Unlock();
}

BufferPool::BufferPool(size_t num_pages, DeviceResolver resolver,
                       size_t num_shards)
    : resolver_(std::move(resolver)), shards_(num_shards) {
  if (num_pages < num_shards) num_pages = num_shards;
  arena_ = std::make_unique<uint8_t[]>(num_pages * kPageSize);
  frames_.reserve(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    auto frame = std::make_unique<Frame>();
    frame->data = arena_.get() + i * kPageSize;
    frames_.push_back(std::move(frame));
    shards_[i % num_shards].frame_idx.push_back(i);
  }
}

BufferPool::~BufferPool() {
  FlushAll();
#ifndef NDEBUG
  for (const auto& fptr : frames_) {
    // A leaked PageGuard outliving the pool is a caller bug: its Unpin
    // would touch freed memory. FlushAll above still wrote the frame back
    // (pins don't block flushing), so data is safe; fail loudly in debug.
    assert(WordPins(fptr->word.load(std::memory_order_relaxed)) == 0 &&
           "PageGuard leaked past ~BufferPool");
  }
#endif
}

Result<PageGuard> BufferPool::FetchPage(PageId pid) {
  return FetchInternal(pid, /*create_new=*/false);
}

Result<PageGuard> BufferPool::NewPage(PageId pid) {
  return FetchInternal(pid, /*create_new=*/true);
}

BufferPool::FrameState BufferPool::PinMapped(Frame* f) {
  uint64_t w = f->word.load(std::memory_order_relaxed);
  for (;;) {
    assert(WordState(w) == FrameState::kLoading ||
           WordState(w) == FrameState::kResident);
    if (f->word.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return WordState(w);
    }
  }
}

void BufferPool::TransitionState(Frame* f, FrameState from, FrameState to) {
  uint64_t w = f->word.load(std::memory_order_relaxed);
  for (;;) {
    assert(WordState(w) == from);
    (void)from;
    if (f->word.compare_exchange_weak(w, PackWord(to, WordPins(w)),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

void BufferPool::CompleteTicket(FlushTicket& ticket) {
  ticket.done.store(1, std::memory_order_release);
  // Wake exactly one parked fetcher; each woken fetcher passes the baton
  // to the next (see the park site). The first to re-run the fetch maps a
  // frame and holds its exclusive latch through the reload, so the
  // staggered later waiters take the hit path and sleep on that latch —
  // the loaded frame is handed to them on UnlockExclusive instead of the
  // whole herd stampeding the shard mutex at once.
  ParkingLot::WakeOne(ticket.done);
}

Result<PageGuard> BufferPool::FetchInternal(PageId pid, bool create_new) {
  Shard& shard = shards_[std::hash<PageId>{}(pid) % shards_.size()];

  for (;;) {
    shard.mu.Lock();
    auto it = shard.table.find(pid);
    if (it != shard.table.end()) {
      size_t idx = it->second;
      Frame* f = frames_[idx].get();
      FrameState pinned_state = PinMapped(f);
      f->referenced = true;
      shard.mu.Unlock();
      if (pinned_state == FrameState::kResident) {
        // Resident and mapped to `pid` under the shard mutex, and our pin
        // now blocks every transition out of kResident (a claim needs zero
        // pins), so the frame is valid without the latch round trip. The
        // pin CAS acquired the loader's kLoading -> kResident release, so
        // the loaded bytes are visible.
        hits_.fetch_add(1, std::memory_order_relaxed);
        return PageGuard(this, idx, f->data);
      }
      // Wait out a concurrent loader (it holds the exclusive latch for the
      // duration of its I/O), then revalidate: a failed load — or a failed
      // write-back restoring the victim's old identity — unmaps the frame
      // while we are already pinned on it.
      f->latch.LockShared();
      bool valid = WordState(f->word.load(std::memory_order_acquire)) ==
                       FrameState::kResident &&
                   f->pid == pid;
      f->latch.UnlockShared();
      if (valid) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return PageGuard(this, idx, f->data);
      }
      Unpin(idx, false);
      continue;
    }

    // Miss on a pid whose previous frame is still writing back: park on
    // the flush ticket until the old image has reached the device, then
    // retry. The reload below then observes the post-write-back bytes,
    // which makes read-after-evict linearizable with the last
    // UnlockExclusive of the evicted page.
    auto fl = shard.inflight.find(pid);
    if (fl != shard.inflight.end()) {
      std::shared_ptr<FlushTicket> ticket = fl->second;
      shard.mu.Unlock();
      flush_waits_.fetch_add(1, std::memory_order_relaxed);
      auto flushed = [&] {
        return ticket->done.load(std::memory_order_acquire) != 0;
      };
      if (!SpinUntil(flushed)) {
        while (!flushed()) ParkingLot::Park(ticket->done, 0);
        // Baton pass: unconditional on what our own retry finds, so the
        // chain cannot strand a waiter behind a failed reload. A wake
        // with no one parked is a no-op.
        ParkingLot::WakeOne(ticket->done);
      }
      continue;
    }

    misses_.fetch_add(1, std::memory_order_relaxed);

    // Clock sweep over this shard's frames for an unpinned victim. The
    // claim is a CAS against the state word, so a pin taken without the
    // shard mutex (FlushAll) either lands first — and the sweep moves on —
    // or loses the race atomically; there is no blind pins.store(1).
    size_t victim_idx = ~size_t{0};
    FrameState claimed_from = FrameState::kFree;
    for (size_t step = 0; step < shard.frame_idx.size() * 2 + 1; ++step) {
      shard.clock_hand = (shard.clock_hand + 1) % shard.frame_idx.size();
      size_t idx = shard.frame_idx[shard.clock_hand];
      Frame* f = frames_[idx].get();
      uint64_t w = f->word.load(std::memory_order_relaxed);
      FrameState st = WordState(w);
      if (WordPins(w) != 0) continue;
      if (st != FrameState::kFree && st != FrameState::kResident) continue;
      if (st == FrameState::kResident && f->referenced) {
        f->referenced = false;
        continue;
      }
      FrameState claim_to = st == FrameState::kResident
                                ? FrameState::kEvicting
                                : FrameState::kLoading;
      if (!f->word.compare_exchange_strong(w, PackWord(claim_to, 1),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        continue;  // lost to a concurrent FlushAll pin
      }
      victim_idx = idx;
      claimed_from = st;
      break;
    }
    if (victim_idx == ~size_t{0}) {
      shard.mu.Unlock();
      return Status::Busy("buffer pool exhausted: all pages pinned");
    }

    Frame* victim = frames_[victim_idx].get();
    PageId old_pid = victim->pid;
    std::shared_ptr<FlushTicket> ticket;
    if (claimed_from == FrameState::kResident) {
      shard.table.erase(old_pid);
      if (victim->dirty.load(std::memory_order_acquire)) {
        // Record the in-flight write-back before dropping the shard mutex:
        // from here until the ticket completes, fetchers of old_pid park
        // instead of racing their device read against our WriteAt.
        ticket = std::make_shared<FlushTicket>();
        assert(shard.inflight.count(old_pid) == 0);
        shard.inflight.emplace(old_pid, ticket);
      }
    }
    // Exclusive latch before the new mapping is visible: hit-path fetchers
    // of `pid` pin, then block on the latch until the I/O below completes.
    // Guaranteed uncontended — every latch holder also holds a pin, and
    // the claim CAS required pins == 0 — so try_lock succeeds on the
    // first iteration. It must be a try_lock: a blocking lock() here
    // would record a shard.mu → latch ordering edge that inverts the
    // latch → shard.mu edges in the write-back paths below, and TSan
    // would report the (unrealizable) cycle as a potential deadlock.
    while (!victim->latch.TryLock()) CpuRelax();
    if (claimed_from == FrameState::kResident) {
      TransitionState(victim, FrameState::kEvicting, FrameState::kLoading);
    }
    victim->pid = pid;
    victim->referenced = true;
    shard.table[pid] = victim_idx;
    shard.mu.Unlock();

    // I/O outside the shard mutex. First the dirty write-back of the old
    // image (the frame still holds it), then the load of the new page.
    if (ticket != nullptr) {
      StorageDevice* old_dev = resolver_(PageIdTable(old_pid));
      uint64_t off = static_cast<uint64_t>(PageIdNo(old_pid)) * kPageSize;
      Status s = old_dev == nullptr
                     ? Status::IOError("no device for evicted table space")
                     : old_dev->WriteAt(off, std::span<const uint8_t>(
                                                 victim->data, kPageSize));
      if (!s.ok()) {
        // The frame holds the only copy of old_pid: restore its mapping
        // (still dirty) instead of losing the page, and unpublish the new
        // pid so no fetcher ever sees a mapping backed by garbage.
        shard.mu.Lock();
        shard.table.erase(pid);
        shard.inflight.erase(old_pid);
        victim->pid = old_pid;
        shard.table[old_pid] = victim_idx;
        TransitionState(victim, FrameState::kLoading, FrameState::kResident);
        shard.mu.Unlock();
        CompleteTicket(*ticket);  // parked fetchers retry and hit the restore
        victim->latch.Unlock();
        Unpin(victim_idx, false);
        return s;
      }
      victim->dirty.store(false, std::memory_order_release);
      write_backs_.fetch_add(1, std::memory_order_relaxed);
      shard.mu.Lock();
      shard.inflight.erase(old_pid);
      shard.mu.Unlock();
      CompleteTicket(*ticket);
    }

    Status load = Status::OK();
    if (create_new) {
      std::memset(victim->data, 0, kPageSize);
    } else {
      StorageDevice* dev = resolver_(PageIdTable(pid));
      if (dev == nullptr) {
        load = Status::InvalidArgument("no device for table space");
      } else {
        uint64_t off = static_cast<uint64_t>(PageIdNo(pid)) * kPageSize;
        if (off + kPageSize <= dev->Size()) {
          load =
              dev->ReadAt(off, std::span<uint8_t>(victim->data, kPageSize));
        } else {
          // Page was never written back (fresh page evicted clean, or
          // device shorter than the page): treat as zero-filled.
          std::memset(victim->data, 0, kPageSize);
        }
      }
    }
    if (!load.ok()) {
      // Unmap instead of leaving a resident mapping full of garbage; any
      // fetcher already pinned on the latch revalidates and retries.
      shard.mu.Lock();
      shard.table.erase(pid);
      victim->pid = kInvalidPageId;
      TransitionState(victim, FrameState::kLoading, FrameState::kFree);
      shard.mu.Unlock();
      victim->latch.Unlock();
      Unpin(victim_idx, false);
      return load;
    }
    TransitionState(victim, FrameState::kLoading, FrameState::kResident);
    victim->latch.Unlock();
    return PageGuard(this, victim_idx, victim->data);
  }
}

void BufferPool::Unpin(size_t frame_idx, bool dirty) {
  Frame* f = frames_[frame_idx].get();
  if (dirty) f->dirty.store(true, std::memory_order_release);
  // A pin underflow would borrow from the state bits (silent state
  // corruption, unlike the old standalone pin counter) — catch the
  // double-unpin loudly instead.
  assert(WordPins(f->word.load(std::memory_order_relaxed)) != 0 &&
         "Unpin without a matching pin");
  f->word.fetch_sub(1, std::memory_order_release);
}

Status BufferPool::FlushAll() {
  Status first_error = Status::OK();
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame* f = frames_[i].get();
    // CAS-pin through the state word: only kResident frames are flushable
    // here. A frame mid-claim (kLoading/kEvicting) is owned by a fetcher
    // whose own I/O writes the old image back or loads fresh data, and the
    // CAS losing to that claim just skips the frame.
    uint64_t w = f->word.load(std::memory_order_acquire);
    bool pinned = false;
    while (WordState(w) == FrameState::kResident) {
      if (f->word.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        pinned = true;
        break;
      }
    }
    if (!pinned) continue;
    // The pin blocks eviction, so pid/data are stable; the shared latch
    // excludes in-place writers, so clearing `dirty` after the write-back
    // cannot swallow a concurrent UnlockExclusive's dirty set.
    f->latch.LockShared();
    if (f->dirty.load(std::memory_order_acquire)) {
      StorageDevice* dev = resolver_(PageIdTable(f->pid));
      uint64_t off = static_cast<uint64_t>(PageIdNo(f->pid)) * kPageSize;
      Status s = dev == nullptr
                     ? Status::IOError("no device for table space")
                     : dev->WriteAt(off, std::span<const uint8_t>(f->data,
                                                                  kPageSize));
      if (s.ok()) {
        f->dirty.store(false, std::memory_order_release);
      } else if (first_error.ok()) {
        first_error = s;
      }
    }
    f->latch.UnlockShared();
    Unpin(i, false);
  }
  return first_error;
}

}  // namespace skeena::stordb
