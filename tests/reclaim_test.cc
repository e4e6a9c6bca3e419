// Pinned-reader torture tests for the unified epoch-based reclamation
// (docs/RECLAMATION.md): a reader pinned on an old snapshot keeps reading
// while writers churn version chains / undo lists, the GC floors advance,
// and retired garbage flows through the EpochManager. The reader must
// always observe exactly its snapshot's values — and, under ASan/TSan,
// must never touch freed memory. These replace the floor-specific tests of
// the deleted two-level published/apply design.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "support/db_fixtures.h"

namespace skeena {
namespace {

using memdb::MemEngine;
using memdb::MemTxn;
using stordb::StorEngine;
using stordb::StorTxn;

constexpr int kKeys = 16;

std::string SeedValue(int k) { return "seed-" + std::to_string(k); }

int TortureMillis() { return test::FullSweep() ? 2000 : 300; }

// ------------------------------------------------------------------ memdb

TEST(MemReclaimTortureTest, PinnedReaderNeverObservesFreedVersions) {
  MemEngine::Options opts;
  opts.gc_interval = 4;  // advance the floor aggressively
  MemEngine engine(std::make_unique<MemDevice>(), opts);
  TableId t = engine.CreateTable("torture", 256);

  std::atomic<uint64_t> gtid{1};
  auto commit_put = [&](int key, const std::string& value) {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    if (!engine.Put(txn.get(), t, MakeKey(key), value).ok()) return false;
    uint64_t g = gtid.fetch_add(1);
    if (!engine.PreCommit(txn.get()).ok()) return false;
    engine.PostCommit(txn.get(), g, false);
    return true;
  };

  // Two generations of seed data, so versions *older* than the pinned
  // snapshot exist and stay prunable while the reader lives.
  for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(commit_put(k, "pre-" + std::to_string(k)));
  for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(commit_put(k, SeedValue(k)));

  // The pinned reader: registered once, then read concurrently with churn.
  auto reader = engine.Begin(IsolationLevel::kSnapshot);
  ASSERT_NE(reader, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churn_commits{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int key = static_cast<int>((w * 7 + i) % kKeys);
        if (commit_put(key, "churn-" + std::to_string(i))) {
          churn_commits.fetch_add(1, std::memory_order_relaxed);
        }
        i++;
      }
    });
  }

  // Fresh short-lived readers race registration against floor advances.
  std::thread fresh_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = engine.Begin(IsolationLevel::kSnapshot);
      std::string v;
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(engine.Get(txn.get(), t, MakeKey(k), &v).ok());
        ASSERT_FALSE(v.empty());
      }
      engine.Abort(txn.get());
    }
  });

  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TortureMillis());
  std::string v;
  uint64_t reads = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(engine.Get(reader.get(), t, MakeKey(k), &v).ok());
      ASSERT_EQ(v, SeedValue(k))
          << "pinned snapshot must keep resolving to its own version";
      reads++;
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  fresh_reader.join();

  EXPECT_GT(reads, 0u);
  EXPECT_GT(churn_commits.load(), 0u);
  // Reclamation must have proceeded *while* the reader stayed pinned: the
  // pre-seed generation (older than the pinned snapshot) and churned
  // intermediates above later floors are unlinked and epoch-freed.
  EXPECT_GT(engine.stats().versions_pruned, 0u);
  EXPECT_GT(engine.epoch().FreedCount(), 0u);
  EXPECT_LE(engine.GcFloor(), static_cast<MemTxn*>(reader.get())->begin_ts())
      << "the floor may never pass a registered snapshot";

  // Release the reader; churn a little more so the floor passes its
  // snapshot and the held-back versions drain through the epoch manager.
  engine.Abort(reader.get());
  uint64_t freed_before = engine.epoch().FreedCount();
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(commit_put(i % kKeys, "post"));
  for (int i = 0; i < 4; ++i) engine.epoch().TryAdvance();
  EXPECT_GT(engine.epoch().FreedCount(), freed_before);
}

// ------------------------------------------------------------------ stordb

TEST(StorReclaimTortureTest, PinnedViewNeverObservesFreedUndos) {
  StorEngine::Options opts;
  opts.purge_interval = 4;  // purge aggressively
  StorEngine engine(std::make_unique<MemDevice>(), opts);
  TableId t = engine.CreateTable("torture", 64);

  std::atomic<uint64_t> gtid{1};
  auto commit_put = [&](int key, const std::string& value) {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    if (!engine.Put(txn.get(), t, MakeKey(key), value).ok()) return false;
    uint64_t g = gtid.fetch_add(1);
    if (!engine.PreCommit(txn.get()).ok()) {
      return false;
    }
    engine.PostCommit(txn.get(), g, false);
    return true;
  };

  for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(commit_put(k, SeedValue(k)));

  // The pinned view: materialized by the first read, then held while
  // writers stack undo records on every row and the purge floor advances.
  auto reader = engine.Begin(IsolationLevel::kSnapshot);
  ASSERT_NE(reader, nullptr);
  {
    std::string v;
    ASSERT_TRUE(engine.Get(reader.get(), t, MakeKey(0), &v).ok());
    ASSERT_EQ(v, SeedValue(0));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churn_commits{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int key = static_cast<int>((w * 5 + i) % kKeys);
        // Lock conflicts abort some churn transactions — fine, retry with
        // the next key; aborted writers exercise the abort retire path.
        if (commit_put(key, "churn-" + std::to_string(i))) {
          churn_commits.fetch_add(1, std::memory_order_relaxed);
        }
        i++;
      }
    });
  }

  std::thread fresh_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto txn = engine.Begin(IsolationLevel::kSnapshot);
      std::string v;
      for (int k = 0; k < kKeys; ++k) {
        Status s = engine.Get(txn.get(), t, MakeKey(k), &v);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_FALSE(v.empty());
      }
      engine.Abort(txn.get());
    }
  });

  // The pinned reader's Gets walk ever-deeper roll chains (current row
  // image back to the seed image) while ripe batches flow to the epoch
  // manager — exactly the unlink-vs-walk race the epoch pin covers.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TortureMillis());
  std::string v;
  uint64_t reads = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(engine.Get(reader.get(), t, MakeKey(k), &v).ok());
      ASSERT_EQ(v, SeedValue(k))
          << "pinned view must keep reconstructing its own row images";
      reads++;
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  fresh_reader.join();

  EXPECT_GT(reads, 0u);
  EXPECT_GT(churn_commits.load(), 0u);

  // Release the view, churn more: the floor passes the backlog and the
  // undo batches drain through the epoch manager.
  engine.Abort(reader.get());
  for (int i = 0; i < 256; ++i) commit_put(i % kKeys, "post");
  for (int i = 0; i < 4; ++i) engine.epoch().TryAdvance();
  EXPECT_GT(engine.stats().undo_purged, 0u);
  EXPECT_GT(engine.epoch().FreedCount(), 0u);
}

// An undo batch is the chunk list of a finished write transaction's undo
// arena (UndoArena::Release): the transaction hands it to the pending FIFO
// with no per-record allocation. This asserts the whole lifecycle is
// leak-free with the per-chunk record count: records drain through purge +
// epoch while running, and exactly zero UndoRecords survive the engine
// (pending FIFO, epoch limbo, and leftover txns included).
TEST(StorReclaimTortureTest, UndoAllocationsDrainToZero) {
  ASSERT_EQ(stordb::UndoRecord::LiveCount(), 0u);
  {
    StorEngine::Options opts;
      opts.purge_interval = 16;  // let a pending backlog build up
    StorEngine engine(std::make_unique<MemDevice>(), opts);
    TableId t = engine.CreateTable("drain", 64);

    uint64_t gtid = 1;
    auto commit_put = [&](int key, const std::string& value) {
      auto txn = engine.Begin(IsolationLevel::kSnapshot);
      ASSERT_TRUE(engine.Put(txn.get(), t, MakeKey(key), value).ok());
      ASSERT_TRUE(engine.PreCommit(txn.get()).ok());
      engine.PostCommit(txn.get(), gtid, false);
      ++gtid;
    };

    // Mixed commits and aborts stack undo records on a few rows; the
    // abort retire path tags batches with the live counter, so they need
    // later commits before the floor passes them.
    for (int i = 0; i < 64; ++i) {
      if (i % 5 == 0) {
        auto txn = engine.Begin(IsolationLevel::kSnapshot);
        ASSERT_TRUE(engine.Put(txn.get(), t, MakeKey(i % 8), "doomed").ok());
        engine.Abort(txn.get());
      } else {
        commit_put(i % 8, "v" + std::to_string(i));
      }
    }
    size_t live_after_churn = stordb::UndoRecord::LiveCount();
    ASSERT_GT(live_after_churn, 0u);

    // No active views: further commits push the purge floor past the
    // backlog and the epoch manager frees the ripe chains while the
    // engine is still running.
    for (int i = 0; i < 64; ++i) commit_put(i % 8, "drain");
    for (int i = 0; i < 4; ++i) engine.epoch().TryAdvance();
    EXPECT_LT(stordb::UndoRecord::LiveCount(), live_after_churn);
    EXPECT_GT(engine.stats().undo_purged, 0u);

    // A transaction destroyed while still holding its batch (never
    // finished) must free it in the StorTxn destructor.
    auto leftover = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(leftover.get(), t, MakeKey(0), "leftover").ok());
    engine.Abort(leftover.get());
  }
  EXPECT_EQ(stordb::UndoRecord::LiveCount(), 0u);
}

// ------------------------------------------------- shared domain (Database)

// One Database-owned epoch domain covers the CSR, memdb versions and
// stordb undos at once: a long-lived cross-engine snapshot transaction
// must keep BOTH engines' floors down (via the anchor registry + CSR
// MinSelectableValue providers) while cross-engine churn retires into the
// shared manager from all three sources.
TEST(SharedDomainTortureTest, CrossEngineReaderStaysConsistentUnderChurn) {
  Database db(test::FastOptions());
  TableHandle mem_t = *db.CreateTable("mem_t", EngineKind::kMem);
  TableHandle stor_t = *db.CreateTable("stor_t", EngineKind::kStor);

  auto commit_pair = [&](int key, uint64_t i) {
    auto txn = db.Begin(IsolationLevel::kSnapshot);
    std::string v = std::to_string(i);
    if (!txn->Put(mem_t, MakeKey(key), v).ok()) return false;
    if (!txn->Put(stor_t, MakeKey(key), v).ok()) return false;
    return txn->Commit().ok();
  };
  for (int k = 0; k < kKeys; ++k) ASSERT_TRUE(commit_pair(k, 0));

  // Long-lived reader: first accesses pin its anchor snapshot and the
  // CSR-selected stordb snapshot; both engines' reclamation must respect
  // them for the transaction's whole lifetime.
  auto reader = db.Begin(IsolationLevel::kSnapshot);
  std::vector<std::string> pinned_mem(kKeys), pinned_stor(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(reader->Get(mem_t, MakeKey(k), &pinned_mem[k]).ok());
    ASSERT_TRUE(reader->Get(stor_t, MakeKey(k), &pinned_stor[k]).ok());
    ASSERT_EQ(pinned_mem[k], pinned_stor[k]) << "cross-engine skew";
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      uint64_t i = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        commit_pair(static_cast<int>((w * 3 + i) % kKeys), i);
        i++;
      }
    });
  }

  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TortureMillis());
  while (std::chrono::steady_clock::now() < deadline) {
    for (int k = 0; k < kKeys; ++k) {
      std::string m, s;
      ASSERT_TRUE(reader->Get(mem_t, MakeKey(k), &m).ok());
      ASSERT_TRUE(reader->Get(stor_t, MakeKey(k), &s).ok());
      ASSERT_EQ(m, pinned_mem[k]) << "snapshot read must be stable";
      ASSERT_EQ(s, pinned_stor[k]) << "snapshot read must be stable";
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  ASSERT_TRUE(reader->Commit().ok());

  // All three retire sources share one domain; churn must have driven it.
  EXPECT_GT(db.epoch().FreedCount(), 0u);
}

}  // namespace
}  // namespace skeena
