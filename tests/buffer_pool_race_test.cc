// Deterministic interleaving tests for the buffer pool's frame lifecycle
// (state machine + in-flight write-back table, DESIGN.md "Buffer pool frame
// lifecycle"). A BlockingStorageDevice gates WriteAt/ReadAt on condition
// variables to hold the evict-vs-refetch window open on purpose:
//
//  * a refetch racing an in-flight dirty write-back must park on the flush
//    ticket, never read the pre-write-back device image (torn/stale read);
//  * failed loads unmap the frame instead of leaving a poisoned mapping;
//  * failed write-backs restore the victim's old identity instead of
//    losing the only copy of the page.
//
// The TorturePinEvictFlush storm (capacity ≪ working set, 16 threads of
// pin/evict/flush) is registered separately under the `slow` label and is
// the TSan repeat-gate target in CI.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "log/storage_device.h"
#include "stordb/buffer_pool.h"

namespace skeena::stordb {
namespace {

using namespace std::chrono_literals;

/// Wraps a MemDevice; individual WriteAt/ReadAt calls can be armed to
/// block (until released) or fail once, keyed by byte offset — enough to
/// pin the pool mid-eviction at an exact page boundary.
class BlockingStorageDevice : public StorageDevice {
 public:
  /// The next WriteAt covering `offset` signals WaitUntilWriteBlocked()
  /// and parks until ReleaseWrites().
  void BlockNextWriteAt(uint64_t offset) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    block_write_armed_ = true;
    block_write_off_ = offset;
    write_released_ = false;
  }
  void WaitUntilWriteBlocked() {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [&] { return write_blocked_; });
  }
  void ReleaseWrites() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    write_released_ = true;
    gate_cv_.notify_all();
  }
  /// The next ReadAt covering `offset` signals WaitUntilReadBlocked() and
  /// parks until ReleaseReads() — a slow device read held open.
  void BlockNextReadAt(uint64_t offset) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    block_read_armed_ = true;
    block_read_off_ = offset;
    read_released_ = false;
  }
  void WaitUntilReadBlocked() {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [&] { return read_blocked_; });
  }
  void ReleaseReads() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    read_released_ = true;
    gate_cv_.notify_all();
  }
  void FailNextWriteAt(uint64_t offset) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    fail_write_armed_ = true;
    fail_write_off_ = offset;
  }
  void FailNextReadAt(uint64_t offset) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    fail_read_armed_ = true;
    fail_read_off_ = offset;
  }

  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override {
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      if (fail_write_armed_ && offset == fail_write_off_) {
        fail_write_armed_ = false;
        return Status::IOError("injected write failure");
      }
      if (block_write_armed_ && offset == block_write_off_) {
        block_write_armed_ = false;
        write_blocked_ = true;
        gate_cv_.notify_all();
        gate_cv_.wait(lock, [&] { return write_released_; });
        write_blocked_ = false;
      }
    }
    return inner_.WriteAt(offset, data);
  }
  Status ReadAt(uint64_t offset, std::span<uint8_t> out) const override {
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      if (fail_read_armed_ && offset == fail_read_off_) {
        fail_read_armed_ = false;
        return Status::IOError("injected read failure");
      }
      if (block_read_armed_ && offset == block_read_off_) {
        block_read_armed_ = false;
        read_blocked_ = true;
        gate_cv_.notify_all();
        gate_cv_.wait(lock, [&] { return read_released_; });
        read_blocked_ = false;
      }
    }
    return inner_.ReadAt(offset, out);
  }
  Status Sync() override { return inner_.Sync(); }
  uint64_t Size() const override { return inner_.Size(); }

 private:
  MemDevice inner_;
  mutable std::mutex gate_mu_;
  mutable std::condition_variable gate_cv_;
  bool block_write_armed_ = false;
  uint64_t block_write_off_ = 0;
  bool write_blocked_ = false;
  bool write_released_ = false;
  bool fail_write_armed_ = false;
  uint64_t fail_write_off_ = 0;
  mutable bool fail_read_armed_ = false;
  mutable uint64_t fail_read_off_ = 0;
  mutable bool block_read_armed_ = false;
  mutable uint64_t block_read_off_ = 0;
  mutable bool read_blocked_ = false;
  mutable bool read_released_ = false;
};

constexpr uint64_t PageOffset(uint32_t page_no) {
  return static_cast<uint64_t>(page_no) * kPageSize;
}

class BufferPoolRaceTest : public ::testing::Test {
 protected:
  std::unique_ptr<BufferPool> MakePool(size_t pages, size_t shards = 1) {
    return std::make_unique<BufferPool>(
        pages, [this](TableId) { return &device_; }, shards);
  }

  /// Fetch that tolerates transient all-pinned windows (tiny pools +
  /// concurrent evictors legitimately return Busy).
  Result<PageGuard> FetchRetry(BufferPool* pool, PageId pid) {
    for (;;) {
      auto page = pool->FetchPage(pid);
      if (page.ok() || page.status().code() != StatusCode::kBusy) return page;
      std::this_thread::yield();
    }
  }

  void StampPage(BufferPool* pool, PageId pid, uint8_t fill) {
    auto page = pool->NewPage(pid);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    page->LockExclusive();
    std::memset(page->data(), fill, kPageSize);
    page->UnlockExclusive();
  }

  /// Reads first/middle/last under the shared latch.
  static std::array<uint8_t, 3> SamplePage(PageGuard& guard) {
    guard.LockShared();
    std::array<uint8_t, 3> s = {guard.data()[0], guard.data()[kPageSize / 2],
                                guard.data()[kPageSize - 1]};
    guard.UnlockShared();
    return s;
  }

  BlockingStorageDevice device_;
};

// (a) Evict-dirty vs. refetch: while the dirty write-back of an evicted
// page is in flight, a refetch of that page must park on the flush ticket
// — not load the not-yet-written device image into another frame.
TEST_F(BufferPoolRaceTest, RefetchParksBehindInFlightWriteBack) {
  auto pool = MakePool(1);
  const PageId a = MakePageId(0, 0), b = MakePageId(0, 1);
  StampPage(pool.get(), a, 0x5c);  // dirty, never flushed: device holds zeros

  device_.BlockNextWriteAt(PageOffset(0));
  std::thread evictor([&] {
    auto page = FetchRetry(pool.get(), b);  // evicts a, blocks in WriteAt(a)
    ASSERT_TRUE(page.ok()) << page.status().ToString();
  });
  device_.WaitUntilWriteBlocked();

  std::atomic<bool> fetched{false};
  std::array<uint8_t, 3> sample{};
  std::thread refetcher([&] {
    auto page = FetchRetry(pool.get(), a);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    sample = SamplePage(page.value());
    fetched.store(true);
  });

  // The refetcher must be parked: the write-back has not reached the
  // device, so any completed fetch here could only have returned stale or
  // torn bytes (the seed bug this suite regression-gates).
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(fetched.load())
      << "refetch completed while the evicted page's write-back was in flight";

  device_.ReleaseWrites();
  evictor.join();
  refetcher.join();
  EXPECT_EQ(sample, (std::array<uint8_t, 3>{0x5c, 0x5c, 0x5c}));
  EXPECT_GE(pool->flush_waits(), 1u);
  EXPECT_EQ(pool->write_backs(), 1u);
}

// (b) The stale-image variant: the device already holds an OLDER image of
// the page; a refetch racing the eviction must return the latest bytes
// (linearizable with the last UnlockExclusive), never resurrect the old
// device image.
TEST_F(BufferPoolRaceTest, RefetchNeverSeesPreWritebackImage) {
  auto pool = MakePool(1);
  const PageId a = MakePageId(0, 0), b = MakePageId(0, 1);
  StampPage(pool.get(), a, 0x11);
  ASSERT_TRUE(pool->FlushAll().ok());  // device image of a = 0x11
  {
    auto page = FetchRetry(pool.get(), a);
    ASSERT_TRUE(page.ok());
    page->LockExclusive();
    std::memset(page->data(), 0x22, kPageSize);
    page->UnlockExclusive();  // frame = 0x22 dirty; device still 0x11
  }

  device_.BlockNextWriteAt(PageOffset(0));
  std::thread evictor([&] {
    auto page = FetchRetry(pool.get(), b);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
  });
  device_.WaitUntilWriteBlocked();

  std::array<uint8_t, 3> sample{};
  std::thread refetcher([&] {
    auto page = FetchRetry(pool.get(), a);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    sample = SamplePage(page.value());
  });
  std::this_thread::sleep_for(20ms);
  device_.ReleaseWrites();
  evictor.join();
  refetcher.join();
  EXPECT_EQ(sample, (std::array<uint8_t, 3>{0x22, 0x22, 0x22}))
      << "refetch resurrected the pre-write-back device image";
}

// (c) Loader failure: a failed ReadAt must unmap the frame. At seed the
// mapping survived with loaded=true, so the next fetch "hit" a frame full
// of the previous page's bytes.
TEST_F(BufferPoolRaceTest, FailedLoadUnmapsInsteadOfPoisoning) {
  auto pool = MakePool(1);
  const PageId a = MakePageId(0, 0), b = MakePageId(0, 1);
  StampPage(pool.get(), a, 0x33);
  ASSERT_TRUE(pool->FlushAll().ok());
  StampPage(pool.get(), b, 0x44);  // evicts a (clean); frame now holds b

  device_.FailNextReadAt(PageOffset(0));
  auto bad = pool->FetchPage(a);  // evicts b (write-back ok), load fails
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);

  {
    // The device healed: the retry must come back with a's real bytes, not
    // "hit" a poisoned mapping holding b's (or garbage) data.
    auto good = FetchRetry(pool.get(), a);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(SamplePage(good.value()),
              (std::array<uint8_t, 3>{0x33, 0x33, 0x33}));
  }
  auto bpage = FetchRetry(pool.get(), b);
  ASSERT_TRUE(bpage.ok());
  EXPECT_EQ(SamplePage(bpage.value()),
            (std::array<uint8_t, 3>{0x44, 0x44, 0x44}));
}

// (c') Write-back failure: the evicted page's only copy is the frame, so a
// failed WriteAt must restore the old mapping (still dirty) and unpublish
// the new pid.
TEST_F(BufferPoolRaceTest, FailedWriteBackRestoresVictimMapping) {
  auto pool = MakePool(1);
  const PageId a = MakePageId(0, 0), b = MakePageId(0, 1);
  StampPage(pool.get(), a, 0x55);  // dirty

  device_.FailNextWriteAt(PageOffset(0));
  auto bad = pool->FetchPage(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);

  {
    // `a` survived the failed eviction: still mapped, bytes intact.
    auto page = FetchRetry(pool.get(), a);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(SamplePage(page.value()),
              (std::array<uint8_t, 3>{0x55, 0x55, 0x55}));
    EXPECT_GE(pool->hits(), 1u);
  }

  {
    // Device healed: the eviction path works again.
    auto bpage = FetchRetry(pool.get(), b);
    ASSERT_TRUE(bpage.ok()) << bpage.status().ToString();
  }
  auto apage = FetchRetry(pool.get(), a);
  ASSERT_TRUE(apage.ok()) << apage.status().ToString();
  EXPECT_EQ(SamplePage(apage.value()),
            (std::array<uint8_t, 3>{0x55, 0x55, 0x55}));
}

// (d) Hit on a loading frame: a fetcher that finds the page mapped while
// another thread's device read is still filling the frame must wait for
// the load (the loader holds the frame's exclusive latch through its I/O),
// never return the frame early. Only a frame already resident under the
// shard mutex may skip the latch.
TEST_F(BufferPoolRaceTest, HitOnLoadingFrameWaitsForTheLoad) {
  auto pool = MakePool(2);
  const PageId a = MakePageId(0, 3);
  std::vector<uint8_t> image(kPageSize, 0x6d);
  ASSERT_TRUE(device_.WriteAt(PageOffset(3), image).ok());

  device_.BlockNextReadAt(PageOffset(3));
  std::thread loader([&] {
    auto page = pool->FetchPage(a);  // miss: maps the frame, blocks in ReadAt
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(SamplePage(page.value()),
              (std::array<uint8_t, 3>{0x6d, 0x6d, 0x6d}));
  });
  device_.WaitUntilReadBlocked();

  std::atomic<bool> returned{false};
  std::array<uint8_t, 3> seen{};
  std::thread hitter([&] {
    auto page = pool->FetchPage(a);  // hit on the kLoading frame
    returned.store(true);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    seen = SamplePage(page.value());
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load())
      << "a hit on a loading frame returned before the device read finished";

  device_.ReleaseReads();
  loader.join();
  hitter.join();
  EXPECT_EQ(seen, (std::array<uint8_t, 3>{0x6d, 0x6d, 0x6d}));
  EXPECT_EQ(pool->misses(), 1u);
  EXPECT_EQ(pool->hits(), 1u);
}

// (e) WakeOne baton chain: write-back completion wakes a single parked
// fetcher and each woken fetcher passes the baton to the next, so a herd
// parked behind one in-flight flush must drain completely — a dropped
// baton strands a waiter and hangs this test at the joins.
TEST_F(BufferPoolRaceTest, WakeChainDrainsEveryParkedWaiter) {
  auto pool = MakePool(1);
  const PageId a = MakePageId(0, 0), b = MakePageId(0, 1);
  StampPage(pool.get(), a, 0x7e);  // dirty: eviction must write it back

  device_.BlockNextWriteAt(PageOffset(0));
  std::thread evictor([&] {
    auto page = FetchRetry(pool.get(), b);  // evicts a, blocks in WriteAt(a)
    ASSERT_TRUE(page.ok()) << page.status().ToString();
  });
  device_.WaitUntilWriteBlocked();

  constexpr int kWaiters = 8;
  std::atomic<int> completed{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      auto page = FetchRetry(pool.get(), a);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      EXPECT_EQ(SamplePage(page.value()),
                (std::array<uint8_t, 3>{0x7e, 0x7e, 0x7e}));
      completed.fetch_add(1);
    });
  }
  // Every waiter has entered the flush-wait path at least once before the
  // write-back is released; none may have completed a fetch.
  while (pool->flush_waits() < kWaiters) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(completed.load(), 0);

  device_.ReleaseWrites();
  evictor.join();
  for (auto& w : waiters) w.join();
  EXPECT_EQ(completed.load(), kWaiters);
  EXPECT_EQ(pool->write_backs(), 1u);
}

// Pin/evict/flush torture: capacity ≪ working set so every fetch fights
// the evictors, one thread checkpoints concurrently, and every read
// validates the page's uniform stamp (a torn or re-homed frame shows up as
// a byte from another page or the zero device image). Registered under the
// `slow` label; CI's TSan job grinds it with --repeat until-fail.
TEST_F(BufferPoolRaceTest, TorturePinEvictFlush) {
  constexpr uint32_t kPages = 64;
  constexpr int kThreads = 16;
  auto pool = MakePool(8, 2);
  for (uint32_t p = 0; p < kPages; ++p) {
    StampPage(pool.get(), MakePageId(0, p), static_cast<uint8_t>(p + 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 1);
      while (!stop.load(std::memory_order_acquire)) {
        uint32_t p = static_cast<uint32_t>(rng.Uniform(kPages));
        uint8_t want = static_cast<uint8_t>(p + 1);
        auto page = pool->FetchPage(MakePageId(0, p));
        if (!page.ok()) continue;  // transiently all-pinned
        if (rng.Uniform(10) < 8) {
          page->LockShared();
          uint8_t first = page->data()[0];
          uint8_t mid = page->data()[kPageSize / 2];
          uint8_t last = page->data()[kPageSize - 1];
          page->UnlockShared();
          if (first != want || mid != want || last != want) {
            mismatches.fetch_add(1);
          }
        } else {
          page->LockExclusive();
          std::memset(page->data(), want, kPageSize);
          page->UnlockExclusive();
        }
      }
    });
  }
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(pool->FlushAll().ok());
      std::this_thread::sleep_for(1ms);
    }
  });
  std::this_thread::sleep_for(2s);
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  flusher.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Final sweep: every page still carries its stamp end to end.
  for (uint32_t p = 0; p < kPages; ++p) {
    auto page = FetchRetry(pool.get(), MakePageId(0, p));
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    uint8_t want = static_cast<uint8_t>(p + 1);
    EXPECT_EQ(SamplePage(page.value()), (std::array<uint8_t, 3>{want, want, want}))
        << "page " << p;
  }
}

}  // namespace
}  // namespace skeena::stordb
