#include "stordb/stor_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "common/random.h"
#include "log/redo.h"
#include "stordb/buffer_pool.h"
#include "stordb/lock_manager.h"
#include "stordb/page.h"

namespace skeena::stordb {
namespace {

// -------------------------------------------------------------- Page layout

TEST(PageTest, RidPacksAndUnpacks) {
  Rid rid = MakeRid(513, 0xabcdef01, 777);
  EXPECT_EQ(RidTable(rid), 513u);
  EXPECT_EQ(RidPage(rid), 0xabcdef01u);
  EXPECT_EQ(RidSlot(rid), 777u);
}

TEST(PageTest, RowHeaderRoundTrip) {
  uint8_t slot[512] = {};
  RowHeader hdr;
  hdr.flags = RowHeader::kFlagInUse | RowHeader::kFlagDeleted;
  hdr.tid = 42;
  hdr.roll_ptr = 0xdeadbeef;
  hdr.vlen = 100;
  Key key = MakeKey(7);
  EncodeRowHeader(slot, hdr, key);

  RowHeader out;
  Key out_key;
  DecodeRowHeader(slot, &out, &out_key);
  EXPECT_TRUE(out.in_use());
  EXPECT_TRUE(out.deleted());
  EXPECT_EQ(out.tid, 42u);
  EXPECT_EQ(out.roll_ptr, 0xdeadbeefu);
  EXPECT_EQ(out.vlen, 100u);
  EXPECT_EQ(out_key, key);
}

TEST(PageTest, SlotsPerPageArithmetic) {
  // 232-byte rows (the paper's microbenchmark row size).
  size_t per_page = SlotsPerPage(232);
  EXPECT_GT(per_page, 50u);
  EXPECT_LE(SlotOffset(static_cast<uint16_t>(per_page - 1), 232) +
                RowSlotSize(232),
            kPageSize);
}

// -------------------------------------------------------------- Buffer pool

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : device_(std::make_unique<MemDevice>()) {}

  std::unique_ptr<BufferPool> MakePool(size_t pages) {
    return std::make_unique<BufferPool>(
        pages, [this](TableId) { return device_.get(); }, 2);
  }

  std::unique_ptr<MemDevice> device_;
};

TEST_F(BufferPoolTest, NewPageThenFetchHits) {
  auto pool = MakePool(16);
  PageId pid = MakePageId(0, 3);
  {
    auto page = pool->NewPage(pid);
    ASSERT_TRUE(page.ok());
    page->LockExclusive();
    page->data()[100] = 0x5a;
    page->UnlockExclusive();
  }
  auto again = pool->FetchPage(pid);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[100], 0x5a);
  EXPECT_GE(pool->hits(), 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  auto pool = MakePool(4);
  for (uint32_t p = 0; p < 16; ++p) {
    auto page = pool->NewPage(MakePageId(0, p));
    ASSERT_TRUE(page.ok());
    page->LockExclusive();
    page->data()[0] = static_cast<uint8_t>(p + 1);
    page->UnlockExclusive();
  }
  for (uint32_t p = 0; p < 16; ++p) {
    auto page = pool->FetchPage(MakePageId(0, p));
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], static_cast<uint8_t>(p + 1)) << "page " << p;
  }
  EXPECT_GT(pool->misses(), 0u);
  EXPECT_GT(pool->write_backs(), 0u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  auto pool = MakePool(4);
  auto pinned = pool->NewPage(MakePageId(0, 0));
  ASSERT_TRUE(pinned.ok());
  pinned->LockExclusive();
  pinned->data()[0] = 0x77;
  pinned->UnlockExclusive();
  for (uint32_t p = 1; p < 40; ++p) {
    auto page = pool->NewPage(MakePageId(0, p));
    ASSERT_TRUE(page.ok());
  }
  EXPECT_EQ(pinned->data()[0], 0x77);
}

TEST_F(BufferPoolTest, AllPinnedReportsBusy) {
  auto pool = MakePool(2);
  auto p1 = pool->NewPage(MakePageId(0, 0));
  auto p2 = pool->NewPage(MakePageId(0, 1));
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  auto p3 = pool->FetchPage(MakePageId(0, 2));
  EXPECT_FALSE(p3.ok());
  EXPECT_EQ(p3.status().code(), StatusCode::kBusy);
}

TEST_F(BufferPoolTest, HitRatioTracksPoolSizing) {
  auto small = MakePool(4);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    auto page = small->FetchPage(MakePageId(0, rng.Uniform(64)));
    ASSERT_TRUE(page.ok());
  }
  double small_ratio = small->HitRatio();

  device_ = std::make_unique<MemDevice>();
  auto big = MakePool(128);
  for (int i = 0; i < 500; ++i) {
    auto page = big->FetchPage(MakePageId(0, rng.Uniform(64)));
    ASSERT_TRUE(page.ok());
  }
  EXPECT_GT(big->HitRatio(), small_ratio)
      << "a pool covering the working set must hit more";
}

TEST_F(BufferPoolTest, ConcurrentFetchersSeeConsistentPages) {
  auto pool = MakePool(8);
  for (uint32_t p = 0; p < 32; ++p) {
    auto page = pool->NewPage(MakePageId(0, p));
    ASSERT_TRUE(page.ok());
    page->LockExclusive();
    std::memset(page->data(), static_cast<int>(p + 1), kPageSize);
    page->UnlockExclusive();
  }
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < 2000; ++i) {
        uint32_t p = static_cast<uint32_t>(rng.Uniform(32));
        auto page = pool->FetchPage(MakePageId(0, p));
        if (!page.ok()) continue;  // transiently all-pinned
        page->LockShared();
        uint8_t first = page->data()[0];
        uint8_t last = page->data()[kPageSize - 1];
        page->UnlockShared();
        if (first != static_cast<uint8_t>(p + 1) || first != last) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
}

// ------------------------------------------------------------- Lock manager

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, 100, LockMode::kShared));
  lm.ReleaseAll(1, {100});
  lm.ReleaseAll(2, {100});
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, 100, LockMode::kExclusive).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Lock(2, 100, LockMode::kExclusive).ok());
    granted.store(true);
    lm.ReleaseAll(2, {100});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1, {100});
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, ReentrantAndCovering) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, 5, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, 5, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, 5, LockMode::kShared).ok()) << "X covers S";
  lm.ReleaseAll(1, {5});
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, 5, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(1, 5, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(1, 5, LockMode::kExclusive));
  lm.ReleaseAll(1, {5});
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager::Options opts;
  opts.wait_timeout_ms = 5000;  // detection must fire well before timeout
  LockManager lm(opts);
  ASSERT_TRUE(lm.Lock(1, 100, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Lock(2, 200, LockMode::kExclusive).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status s = lm.Lock(1, 200, LockMode::kExclusive);
    if (s.IsDeadlock()) {
      deadlocks.fetch_add(1);
      lm.ReleaseAll(1, {100});
    } else {
      lm.ReleaseAll(1, {100, 200});
    }
  });
  std::thread t2([&] {
    Status s = lm.Lock(2, 100, LockMode::kExclusive);
    if (s.IsDeadlock()) {
      deadlocks.fetch_add(1);
      lm.ReleaseAll(2, {200});
    } else {
      lm.ReleaseAll(2, {100, 200});
    }
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1) << "cycle must be broken by detection";
  EXPECT_GE(lm.deadlocks(), 1u);
}

TEST(LockManagerTest, UpgradeDeadlockDetected) {
  LockManager::Options opts;
  opts.wait_timeout_ms = 5000;
  LockManager lm(opts);
  ASSERT_TRUE(lm.Lock(1, 9, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Lock(2, 9, LockMode::kShared).ok());
  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status s = lm.Lock(1, 9, LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    lm.ReleaseAll(1, {9});
  });
  std::thread t2([&] {
    Status s = lm.Lock(2, 9, LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    lm.ReleaseAll(2, {9});
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
}

TEST(LockManagerTest, TimeoutBackstop) {
  LockManager::Options opts;
  opts.wait_timeout_ms = 50;
  LockManager lm(opts);
  ASSERT_TRUE(lm.Lock(1, 100, LockMode::kExclusive).ok());
  Status s = lm.Lock(2, 100, LockMode::kExclusive);
  EXPECT_TRUE(s.code() == StatusCode::kTimedOut);
  lm.ReleaseAll(1, {100});
}

// An S holder asking for X jumps ahead of waiters queued before it: it
// must be granted as soon as it is the sole holder, before the X waiter
// that queued first (which would otherwise wait on it while it waits on
// that waiter — a deadlock detection would have to break).
TEST(LockManagerTest, UpgradeJumpsAheadOfQueuedWaiters) {
  LockManager::Options opts;
  opts.wait_timeout_ms = 5000;
  LockManager lm(opts);
  constexpr Rid kRid = 11;
  ASSERT_TRUE(lm.Lock(1, kRid, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Lock(2, kRid, LockMode::kShared).ok());

  std::atomic<int> next{0};
  int upgrade_order = -1, waiter_order = -1;
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Lock(3, kRid, LockMode::kExclusive).ok());
    waiter_order = next.fetch_add(1);
    lm.ReleaseAll(3, {kRid});
  });
  while (lm.waits() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::thread upgrader([&] {
    Status s = lm.Lock(1, kRid, LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s.ToString();
    upgrade_order = next.fetch_add(1);
    EXPECT_TRUE(lm.Holds(1, kRid, LockMode::kExclusive));
    lm.ReleaseAll(1, {kRid});
  });
  while (lm.waits() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  lm.ReleaseAll(2, {kRid});  // txn 1 is now the sole holder
  upgrader.join();
  waiter.join();
  EXPECT_EQ(upgrade_order, 0) << "the upgrade must be granted first";
  EXPECT_EQ(waiter_order, 1);
  EXPECT_EQ(lm.deadlocks(), 0u);
}

// Waiters are granted in arrival order, including on queues built from
// reused nodes: rids in one bucket alternate, so each round's queue takes
// the node the previous round's emptied queue left behind.
TEST(LockManagerTest, WaitersGrantedFifoAcrossQueueNodeReuse) {
  LockManager::Options opts;
  opts.wait_timeout_ms = 5000;
  LockManager lm(opts);
  constexpr int kWaiters = 4;
  uint64_t waits_before = 0;
  for (int round = 0; round < 6; ++round) {
    // Same bucket every round (kNumBuckets apart), a different rid.
    const Rid rid = 5 + static_cast<Rid>(round % 3) * LockManager::kNumBuckets;
    const uint64_t holder = 100 * (round + 1);
    ASSERT_TRUE(lm.Lock(holder, rid, LockMode::kExclusive).ok());

    std::atomic<int> next{0};
    std::vector<int> order(kWaiters, -1);
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&, w] {
        const uint64_t txn = holder + 1 + static_cast<uint64_t>(w);
        EXPECT_TRUE(lm.Lock(txn, rid, LockMode::kExclusive).ok());
        order[w] = next.fetch_add(1);
        lm.ReleaseAll(txn, {rid});
      });
      // Queue the next waiter only after this one has queued.
      while (lm.waits() < waits_before + w + 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    waits_before += kWaiters;
    lm.ReleaseAll(holder, {rid});
    for (auto& th : waiters) th.join();
    for (int w = 0; w < kWaiters; ++w) {
      EXPECT_EQ(order[w], w) << "round " << round << ": waiter " << w
                             << " granted out of arrival order";
    }
    EXPECT_FALSE(lm.Holds(holder, rid, LockMode::kShared));
  }
  EXPECT_EQ(lm.deadlocks(), 0u);
}

// ----------------------------------------------------------------- TrxSys

TEST(TrxSysTest, NativeViewVisibility) {
  TrxSys sys;
  uint64_t t1 = sys.AssignTid();  // active
  ReadView view = sys.CreateReadView(0);
  uint64_t t2 = sys.AssignTid();  // born after the view

  EXPECT_TRUE(TrxSys::VisibleInNativeView(view, 1)) << "genesis visible";
  EXPECT_FALSE(TrxSys::VisibleInNativeView(view, t1)) << "active at creation";
  EXPECT_FALSE(TrxSys::VisibleInNativeView(view, t2)) << "born later";

  sys.AssignSerNo(t1);
  sys.MarkCommitted(t1);
  // The old view still must not see t1 (it was active at creation).
  EXPECT_FALSE(TrxSys::VisibleInNativeView(view, t1));
  // A fresh view sees it.
  ReadView fresh = sys.CreateReadView(0);
  EXPECT_TRUE(TrxSys::VisibleInNativeView(fresh, t1));
  sys.MarkCommitted(t2);
}

TEST(TrxSysTest, CrossViewFollowsCommitOrderNotTidOrder) {
  // The subtle case from DESIGN.md: an old TID that commits late (large
  // serialisation_no) must stay invisible to a view adjusted to an earlier
  // commit-order snapshot, even though its TID is below every watermark.
  TrxSys sys;
  uint64_t t_old = sys.AssignTid();  // small TID
  uint64_t t_new = sys.AssignTid();

  uint64_t ser_new = sys.AssignSerNo(t_new);
  sys.MarkCommitted(t_new);
  uint64_t ser_old = sys.AssignSerNo(t_old);  // commits later!
  sys.MarkCommitted(t_old);
  ASSERT_LT(ser_new, ser_old);
  ASSERT_LT(t_old, t_new);

  // View adjusted to the commit-order point of t_new.
  ReadView view = sys.CreateReadView(0);
  view.AdjustForCrossEngine(ser_new);
  EXPECT_TRUE(sys.Visible(view, t_new));
  EXPECT_FALSE(sys.Visible(view, t_old))
      << "late commit with old TID leaked into an adjusted view";
}

TEST(TrxSysTest, CrossViewWaitsOutPreCommitted) {
  TrxSys sys;
  uint64_t t = sys.AssignTid();
  uint64_t ser = sys.AssignSerNo(t);  // pre-committed, not yet committed

  ReadView view = sys.CreateReadView(0);
  view.AdjustForCrossEngine(ser);

  std::atomic<bool> visible{false};
  std::thread reader([&] { visible.store(sys.Visible(view, t)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sys.MarkCommitted(t);  // resolves the spin
  reader.join();
  EXPECT_TRUE(visible.load());
}

TEST(TrxSysTest, WatermarkAdjustClamp) {
  ReadView view;
  view.high_water = 100;
  view.low_water = 90;
  view.AdjustForCrossEngine(50);
  EXPECT_EQ(view.ser_limit, 50u);
  EXPECT_EQ(view.high_water, 51u);
  EXPECT_EQ(view.low_water, 51u) << "paper Section 5: clamp both";
}

TEST(TrxSysTest, PurgedStatesReadAsAncientCommits) {
  TrxSys sys;
  uint64_t t = sys.AssignTid();
  sys.AssignSerNo(t);
  sys.MarkCommitted(t);
  sys.PurgeStates(1 << 20);
  sys.PurgeStates(1 << 20);  // aborted entries need two rounds
  auto st = sys.GetState(t);
  EXPECT_EQ(st.state, TxnState::kCommitted);
  EXPECT_TRUE(sys.VisibleInCrossView(t, 1));
}

// The O(ripe) purge FIFOs must preserve the aborted entries' one-round
// grace: an aborted state survives the purge round that could first see
// it, so a reader holding a microseconds-stale row copy never mistakes
// the aborted writer for an anciently-committed one.
TEST(TrxSysTest, AbortedStatesSurviveOnePurgeRound) {
  TrxSys sys;
  uint64_t t = sys.AssignTid();
  sys.MarkAborting(t);
  sys.FinishAbort(t);
  sys.PurgeStates(1 << 20);
  EXPECT_EQ(sys.GetState(t).state, TxnState::kAborted)
      << "aborted entry purged without its grace round";
  sys.PurgeStates(1 << 20);
  EXPECT_EQ(sys.GetState(t).state, TxnState::kCommitted)
      << "grace round over: entry should read as anciently committed";
}

// Committed entries above the floor are retained; the FIFO prefix pop
// must not purge past the first unripe ser.
TEST(TrxSysTest, PurgeStopsAtTheFloor) {
  TrxSys sys;
  uint64_t t1 = sys.AssignTid();
  uint64_t ser1 = sys.AssignSerNo(t1);
  sys.MarkCommitted(t1);
  uint64_t t2 = sys.AssignTid();
  uint64_t ser2 = sys.AssignSerNo(t2);
  sys.MarkCommitted(t2);
  ASSERT_LT(ser1, ser2);
  size_t purged = sys.PurgeStates(ser2);  // ripe: genesis + t1, not t2
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(sys.GetState(t2).ser, ser2) << "t2's entry must survive";
  EXPECT_EQ(sys.PurgeStates(ser2 + 1), 1u);
}

// --------------------------------------------------------------- StorEngine

class StorEngineTest : public ::testing::Test {
 protected:
  StorEngineTest() { Reset(StorEngine::Options{}); }

  void Reset(StorEngine::Options opts) {
    engine_ = std::make_unique<StorEngine>(std::make_unique<MemDevice>(),
                                           opts);
    table_ = engine_->CreateTable("t", 256);
  }

  void CommitPut(uint64_t key, const std::string& value) {
    auto txn = engine_->Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine_->Put(txn.get(), table_, MakeKey(key), value).ok());
    ASSERT_TRUE(engine_->PreCommit(txn.get()).ok());
    engine_->PostCommit(txn.get(), 0, false);
  }

  std::unique_ptr<StorEngine> engine_;
  TableId table_ = 0;
};

TEST_F(StorEngineTest, PutGetRoundTrip) {
  CommitPut(1, "hello");
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(txn.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "hello");
  engine_->Abort(txn.get());
}

TEST_F(StorEngineTest, UpdateInPlaceWithUndoVisibility) {
  CommitPut(1, "v1");
  auto old_reader = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(old_reader.get(), table_, MakeKey(1), &v).ok());
  ASSERT_EQ(v, "v1");

  CommitPut(1, "v2");

  // The old reader reconstructs v1 through the undo chain.
  ASSERT_TRUE(engine_->Get(old_reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v1");
  engine_->Abort(old_reader.get());

  auto fresh = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Get(fresh.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v2");
  engine_->Abort(fresh.get());
}

TEST_F(StorEngineTest, UncommittedWriteInvisibleViaUndo) {
  CommitPut(1, "base");
  auto writer = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Put(writer.get(), table_, MakeKey(1), "dirty").ok());
  auto reader = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "base") << "in-place dirty write must be hidden by undo";
  engine_->Abort(reader.get());
  engine_->Abort(writer.get());
}

TEST_F(StorEngineTest, RollbackRestoresOldImage) {
  CommitPut(1, "keep");
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Put(txn.get(), table_, MakeKey(1), "scrap").ok());
  ASSERT_TRUE(engine_->Put(txn.get(), table_, MakeKey(2), "insert").ok());
  engine_->Abort(txn.get());

  auto reader = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "keep");
  EXPECT_TRUE(
      engine_->Get(reader.get(), table_, MakeKey(2), &v).IsNotFound())
      << "rolled-back insert must be invisible";
  engine_->Abort(reader.get());
}

TEST_F(StorEngineTest, DeleteThenReadNotFound) {
  CommitPut(1, "x");
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Delete(txn.get(), table_, MakeKey(1)).ok());
  ASSERT_TRUE(engine_->PreCommit(txn.get()).ok());
  engine_->PostCommit(txn.get(), 0, false);

  auto reader = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  EXPECT_TRUE(
      engine_->Get(reader.get(), table_, MakeKey(1), &v).IsNotFound());
  engine_->Abort(reader.get());
}

TEST_F(StorEngineTest, WriteConflictFirstUpdaterWins) {
  CommitPut(1, "base");
  auto t1 = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(t1.get(), table_, MakeKey(1), &v).ok());

  CommitPut(1, "newer");

  // t1 now tries to update a row whose latest version is invisible to it.
  EXPECT_TRUE(engine_->Put(t1.get(), table_, MakeKey(1), "t1").IsAborted());
}

TEST_F(StorEngineTest, BlockedWriterAbortsAfterWinnerCommits) {
  CommitPut(1, "base");
  auto winner = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Put(winner.get(), table_, MakeKey(1), "w").ok());

  std::atomic<bool> loser_aborted{false};
  std::thread loser_thread([&] {
    auto loser = engine_->Begin(IsolationLevel::kSnapshot);
    std::string v;
    ASSERT_TRUE(engine_->Get(loser.get(), table_, MakeKey(1), &v).ok());
    // Blocks on the record X lock, then fails the visibility re-check.
    Status s = engine_->Put(loser.get(), table_, MakeKey(1), "l");
    loser_aborted.store(s.IsAborted());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(engine_->PreCommit(winner.get()).ok());
  engine_->PostCommit(winner.get(), 0, false);
  loser_thread.join();
  EXPECT_TRUE(loser_aborted.load());
}

// One transaction's undo records and images fill several arena chunks
// (each update copies a ~200-byte before-image and after-image). Every row
// must still roll back to its before-image, and an older view must read
// every before-image through the roll chains — while the writer is active,
// and after it commits.
TEST_F(StorEngineTest, MultiChunkUndoRollsBackAndServesOlderViews) {
  constexpr int kRows = 64;
  auto image = [](int row, char tag) {
    return std::string(200, tag) + "#" + std::to_string(row);
  };
  for (int k = 0; k < kRows; ++k) CommitPut(k, image(k, 'a'));
  static_assert(kRows * 2 * 200 > 2 * UndoArena::kChunkBytes,
                "the writer's images must span several chunks");

  auto old_view = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(old_view.get(), table_, MakeKey(0), &v).ok());

  auto read_all = [&](SubTxn* reader, char tag) {
    for (int k = 0; k < kRows; ++k) {
      std::string got;
      ASSERT_TRUE(engine_->Get(reader, table_, MakeKey(k), &got).ok()) << k;
      ASSERT_EQ(got, image(k, tag)) << "row " << k;
    }
  };

  // Rolled back: every row returns to its before-image.
  auto doomed = engine_->Begin(IsolationLevel::kSnapshot);
  for (int k = 0; k < kRows; ++k) {
    ASSERT_TRUE(
        engine_->Put(doomed.get(), table_, MakeKey(k), image(k, 'x')).ok());
  }
  read_all(old_view.get(), 'a');
  engine_->Abort(doomed.get());
  {
    auto fresh = engine_->Begin(IsolationLevel::kSnapshot);
    read_all(fresh.get(), 'a');
    engine_->Abort(fresh.get());
  }

  // Committed: the older view still reconstructs every before-image.
  auto writer = engine_->Begin(IsolationLevel::kSnapshot);
  for (int k = 0; k < kRows; ++k) {
    ASSERT_TRUE(
        engine_->Put(writer.get(), table_, MakeKey(k), image(k, 'b')).ok());
  }
  read_all(old_view.get(), 'a');
  ASSERT_TRUE(engine_->PreCommit(writer.get()).ok());
  engine_->PostCommit(writer.get(), 0, false);
  read_all(old_view.get(), 'a');
  engine_->Abort(old_view.get());
  auto fresh = engine_->Begin(IsolationLevel::kSnapshot);
  read_all(fresh.get(), 'b');
  engine_->Abort(fresh.get());
}

// A write-write conflict detected on a page that also holds the
// transaction's own earlier write: the update path checks visibility under
// the page's exclusive latch, and the abort's rollback latches that same
// page again, so the conflict must unlatch before aborting.
TEST_F(StorEngineTest, ConflictOnPageWithOwnWriteAbortsWithoutHanging) {
  CommitPut(1, "one");
  CommitPut(2, "two");  // same page as row 1
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Put(txn.get(), table_, MakeKey(1), "mine").ok());
  CommitPut(2, "newer");  // committed after txn's snapshot

  std::promise<Status> result;
  std::future<Status> done = result.get_future();
  std::thread conflicting([&] {
    result.set_value(engine_->Put(txn.get(), table_, MakeKey(2), "lost"));
  });
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr, "write-write conflict abort hung on its own page\n");
    std::_Exit(1);  // the stuck thread cannot be joined
  }
  conflicting.join();
  EXPECT_TRUE(done.get().IsAborted());

  auto reader = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "one") << "the aborted transaction's own write must roll back";
  ASSERT_TRUE(engine_->Get(reader.get(), table_, MakeKey(2), &v).ok());
  EXPECT_EQ(v, "newer");
  engine_->Abort(reader.get());
}

TEST_F(StorEngineTest, AbortAfterPreCommitRollsBack) {
  CommitPut(1, "base");
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_->Put(txn.get(), table_, MakeKey(1), "doomed").ok());
  Timestamp ser = 0;
  ASSERT_TRUE(engine_->PreCommit(txn.get(), &ser).ok());
  EXPECT_NE(ser, 0u);
  engine_->Abort(txn.get());  // Skeena commit-check failure path

  auto reader = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "base");
  engine_->Abort(reader.get());
}

TEST_F(StorEngineTest, CrossEngineViewSeesExactlyThroughSerLimit) {
  CommitPut(1, "epoch1");  // some ser s1
  uint64_t limit = engine_->LatestSnapshot();
  CommitPut(1, "epoch2");  // newer commit, beyond the limit

  auto txn = engine_->Begin(IsolationLevel::kSnapshot, limit);
  std::string v;
  ASSERT_TRUE(engine_->Get(txn.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "epoch1")
      << "CSR-selected snapshot must cut off at the commit-order limit";
  engine_->Abort(txn.get());
}

TEST_F(StorEngineTest, ScanVisibleRowsInOrder) {
  for (uint64_t k = 0; k < 30; ++k) CommitPut(k, "v" + std::to_string(k));
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  uint64_t expected = 5;
  size_t n = 0;
  ASSERT_TRUE(engine_
                  ->Scan(txn.get(), table_, MakeKey(5), 10,
                         [&](const Key& key, const std::string& value) {
                           EXPECT_EQ(KeyPrefixU64(key), expected);
                           EXPECT_EQ(value, "v" + std::to_string(expected));
                           expected++;
                           n++;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(n, 10u);
  engine_->Abort(txn.get());
}

TEST_F(StorEngineTest, SerializableReadsBlockWriters) {
  CommitPut(1, "base");
  auto reader = engine_->Begin(IsolationLevel::kSerializable);
  std::string v;
  ASSERT_TRUE(engine_->Get(reader.get(), table_, MakeKey(1), &v).ok());

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    auto w = engine_->Begin(IsolationLevel::kSnapshot);
    Status s = engine_->Put(w.get(), table_, MakeKey(1), "w");
    if (s.ok()) {
      if (engine_->PreCommit(w.get()).ok()) {
        engine_->PostCommit(w.get(), 0, false);
      }
    }
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(writer_done.load()) << "S lock must block the X writer";
  ASSERT_TRUE(engine_->PreCommit(reader.get()).ok());
  engine_->PostCommit(reader.get(), 0, false);
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST_F(StorEngineTest, StorageResidentWorkloadTouchesDevice) {
  StorEngine::Options opts;
  opts.buffer_pool_pages = 8;  // much smaller than the data
  Reset(opts);
  for (uint64_t k = 0; k < 2000; ++k) {
    CommitPut(k, std::string(200, static_cast<char>('a' + (k % 26))));
  }
  engine_->pool()->ResetStats();
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    auto txn = engine_->Begin(IsolationLevel::kSnapshot);
    std::string v;
    uint64_t k = rng.Uniform(2000);
    ASSERT_TRUE(engine_->Get(txn.get(), table_, MakeKey(k), &v).ok());
    EXPECT_EQ(v[0], static_cast<char>('a' + (k % 26)));
    engine_->Abort(txn.get());
  }
  EXPECT_LT(engine_->pool()->HitRatio(), 0.5)
      << "tiny pool over large data must miss";
}

TEST_F(StorEngineTest, RecoverReplaysCommittedOnly) {
  auto dev = std::make_unique<MemDevice>();
  MemDevice* raw = dev.get();
  std::vector<uint8_t> log_bytes;
  {
    StorEngine engine(std::move(dev), StorEngine::Options{});
    TableId t = engine.CreateTable("r", 256);
    auto c = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(c.get(), t, MakeKey(1), "committed").ok());
    ASSERT_TRUE(engine.PreCommit(c.get()).ok());
    engine.PostCommit(c.get(), 21, false);

    auto a = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(a.get(), t, MakeKey(2), "aborted").ok());
    ASSERT_TRUE(engine.PreCommit(a.get()).ok());
    engine.Abort(a.get());
    engine.Log()->Flush();
    log_bytes.resize(raw->Size());
    raw->ReadAt(0, log_bytes);
  }
  auto dev2 = std::make_unique<MemDevice>();
  ASSERT_TRUE(dev2->WriteAt(0, log_bytes).ok());
  StorEngine recovered(std::move(dev2), StorEngine::Options{});
  TableId t2 = recovered.CreateTable("r", 256);
  std::vector<CommittedGroup> groups;
  ASSERT_TRUE(ReadCommittedGroups(recovered.Log()->device(), {}, &groups).ok());
  ASSERT_TRUE(recovered.ApplyRecovered(groups).ok());

  auto reader = recovered.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(recovered.Get(reader.get(), t2, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "committed");
  EXPECT_TRUE(recovered.Get(reader.get(), t2, MakeKey(2), &v).IsNotFound());
  recovered.Abort(reader.get());
}

TEST_F(StorEngineTest, ConcurrentContendedCounterExact) {
  CommitPut(0, "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements;) {
        auto txn = engine_->Begin(IsolationLevel::kSnapshot);
        std::string v;
        if (!engine_->Get(txn.get(), table_, MakeKey(0), &v).ok()) {
          engine_->Abort(txn.get());
          continue;
        }
        if (!engine_
                 ->Put(txn.get(), table_, MakeKey(0),
                       std::to_string(std::stoi(v) + 1))
                 .ok()) {
          continue;
        }
        if (engine_->PreCommit(txn.get()).ok()) {
          engine_->PostCommit(txn.get(), 0, false);
          i++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto txn = engine_->Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_->Get(txn.get(), table_, MakeKey(0), &v).ok());
  EXPECT_EQ(v, std::to_string(kThreads * kIncrements));
  engine_->Abort(txn.get());
}

}  // namespace
}  // namespace skeena::stordb
