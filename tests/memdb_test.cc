#include "memdb/mem_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "log/redo.h"
#include "log/storage_device.h"

namespace skeena::memdb {
namespace {

class MemEngineTest : public ::testing::Test {
 protected:
  MemEngineTest()
      : engine_(std::make_unique<MemDevice>(), MemEngine::Options{}) {
    table_ = engine_.CreateTable("t", 256);
  }

  // Helper committing a single put as its own transaction.
  void CommitPut(uint64_t key, const std::string& value) {
    auto txn = engine_.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine_.Put(txn.get(), table_, MakeKey(key), value).ok());
    ASSERT_TRUE(engine_.PreCommit(txn.get()).ok());
    engine_.PostCommit(txn.get(), 0, false);
  }

  MemEngine engine_;
  TableId table_;
};

TEST_F(MemEngineTest, GetMissingIsNotFound) {
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  EXPECT_TRUE(engine_.Get(txn.get(), table_, MakeKey(1), &v).IsNotFound());
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, CommitMakesVisible) {
  CommitPut(1, "hello");
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_.Get(txn.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "hello");
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, ReadOwnWrites) {
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Put(txn.get(), table_, MakeKey(1), "mine").ok());
  std::string v;
  ASSERT_TRUE(engine_.Get(txn.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "mine");
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, UncommittedInvisibleToOthers) {
  auto writer = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Put(writer.get(), table_, MakeKey(1), "dirty").ok());
  auto reader = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  EXPECT_TRUE(
      engine_.Get(reader.get(), table_, MakeKey(1), &v).IsNotFound());
  engine_.Abort(writer.get());
  engine_.Abort(reader.get());
}

TEST_F(MemEngineTest, SnapshotIgnoresLaterCommits) {
  CommitPut(1, "v1");
  auto reader = engine_.Begin(IsolationLevel::kSnapshot);
  CommitPut(1, "v2");
  std::string v;
  ASSERT_TRUE(engine_.Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v1") << "snapshot must see the version at begin time";
  engine_.Abort(reader.get());

  auto fresh = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Get(fresh.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v2");
  engine_.Abort(fresh.get());
}

TEST_F(MemEngineTest, DeleteProducesTombstone) {
  CommitPut(1, "x");
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Delete(txn.get(), table_, MakeKey(1)).ok());
  ASSERT_TRUE(engine_.PreCommit(txn.get()).ok());
  engine_.PostCommit(txn.get(), 0, false);

  auto reader = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  EXPECT_TRUE(
      engine_.Get(reader.get(), table_, MakeKey(1), &v).IsNotFound());
  engine_.Abort(reader.get());
}

TEST_F(MemEngineTest, FirstCommitterWins) {
  CommitPut(1, "base");
  auto t1 = engine_.Begin(IsolationLevel::kSnapshot);
  auto t2 = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Put(t1.get(), table_, MakeKey(1), "t1").ok());
  ASSERT_TRUE(engine_.Put(t2.get(), table_, MakeKey(1), "t2").ok());

  ASSERT_TRUE(engine_.PreCommit(t1.get()).ok());
  engine_.PostCommit(t1.get(), 0, false);

  // t2 wrote the same record under an older snapshot: must abort.
  EXPECT_TRUE(engine_.PreCommit(t2.get()).IsAborted());
  EXPECT_EQ(static_cast<MemTxn*>(t2.get())->state(), MemTxn::State::kAborted);

  auto reader = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_.Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "t1");
  engine_.Abort(reader.get());
}

TEST_F(MemEngineTest, WriteConflictDetectedEarlyOnPut) {
  CommitPut(1, "base");
  auto t1 = engine_.Begin(IsolationLevel::kSnapshot);
  CommitPut(1, "newer");
  // t1's snapshot no longer covers the record head.
  EXPECT_TRUE(engine_.Put(t1.get(), table_, MakeKey(1), "t1").IsAborted());
}

TEST_F(MemEngineTest, AbortAfterPreCommitInstallsNothing) {
  // Skeena's commit check can fail after pre-commit (Section 4.5); the
  // engine must then abort without any shared-state effects.
  CommitPut(1, "base");
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Put(txn.get(), table_, MakeKey(1), "doomed").ok());
  Timestamp cts = kInvalidTimestamp;
  ASSERT_TRUE(engine_.PreCommit(txn.get(), &cts).ok());
  EXPECT_NE(cts, kInvalidTimestamp);
  engine_.Abort(txn.get());

  auto reader = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_.Get(reader.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "base");
  engine_.Abort(reader.get());
}

TEST_F(MemEngineTest, SerializableReadValidationAbortsOnChange) {
  CommitPut(1, "base");
  auto t1 = engine_.Begin(IsolationLevel::kSerializable);
  std::string v;
  ASSERT_TRUE(engine_.Get(t1.get(), table_, MakeKey(1), &v).ok());
  ASSERT_TRUE(engine_.Put(t1.get(), table_, MakeKey(2), "out").ok());

  CommitPut(1, "interloper");  // invalidates t1's read

  EXPECT_TRUE(engine_.PreCommit(t1.get()).IsAborted())
      << "anti-dependency must abort under serializable (commit ordering)";
}

// T's snapshot predates a commit to key 1, so T reads the older version.
// Validation must compare against the version T read, not the head present
// at read time: that head is already the newer version, and matching it
// would let T commit as if it followed the writer whose predecessor it saw
// (the stale-read half of a single-engine write skew).
TEST_F(MemEngineTest, SerializableStaleReadAfterCommitAborts) {
  CommitPut(1, "base");
  auto t = engine_.Begin(IsolationLevel::kSerializable);
  CommitPut(1, "newer");
  std::string v;
  ASSERT_TRUE(engine_.Get(t.get(), table_, MakeKey(1), &v).ok());
  ASSERT_EQ(v, "base");
  ASSERT_TRUE(engine_.Put(t.get(), table_, MakeKey(2), "out").ok());
  EXPECT_TRUE(engine_.PreCommit(t.get()).IsAborted())
      << "a read of a superseded version must fail validation";
}

TEST_F(MemEngineTest, SerializableStaleScanAfterCommitAborts) {
  CommitPut(1, "base");
  auto t = engine_.Begin(IsolationLevel::kSerializable);
  CommitPut(1, "newer");
  std::vector<std::string> seen;
  ASSERT_TRUE(engine_
                  .Scan(t.get(), table_, MakeKey(1), 1,
                        [&](const Key&, const std::string& value) {
                          seen.push_back(value);
                          return true;
                        })
                  .ok());
  ASSERT_EQ(seen, std::vector<std::string>{"base"});
  ASSERT_TRUE(engine_.Put(t.get(), table_, MakeKey(2), "out").ok());
  EXPECT_TRUE(engine_.PreCommit(t.get()).IsAborted())
      << "a scanned superseded version must fail validation";
}

TEST_F(MemEngineTest, SerializableDisjointCommits) {
  CommitPut(1, "a");
  CommitPut(2, "b");
  auto t1 = engine_.Begin(IsolationLevel::kSerializable);
  std::string v;
  ASSERT_TRUE(engine_.Get(t1.get(), table_, MakeKey(1), &v).ok());
  ASSERT_TRUE(engine_.Put(t1.get(), table_, MakeKey(3), "c").ok());
  ASSERT_TRUE(engine_.PreCommit(t1.get()).ok());
  engine_.PostCommit(t1.get(), 0, false);
  EXPECT_EQ(static_cast<MemTxn*>(t1.get())->state(),
            MemTxn::State::kCommitted);
}

TEST_F(MemEngineTest, SnapshotSkipsSerializableValidation) {
  CommitPut(1, "base");
  auto t1 = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_.Get(t1.get(), table_, MakeKey(1), &v).ok());
  ASSERT_TRUE(engine_.Put(t1.get(), table_, MakeKey(2), "w").ok());
  CommitPut(1, "newer");
  // Under SI a pure read-write (anti) dependency does not abort.
  EXPECT_TRUE(engine_.PreCommit(t1.get()).ok());
  engine_.PostCommit(t1.get(), 0, false);
}

TEST_F(MemEngineTest, ScanDeliversVisibleSortedRows) {
  for (uint64_t k = 0; k < 50; ++k) {
    CommitPut(k, "v" + std::to_string(k));
  }
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  uint64_t expected = 10;
  size_t n = 0;
  ASSERT_TRUE(engine_
                  .Scan(txn.get(), table_, MakeKey(10), 0,
                        [&](const Key& key, const std::string& value) {
                          EXPECT_EQ(KeyPrefixU64(key), expected);
                          EXPECT_EQ(value, "v" + std::to_string(expected));
                          expected++;
                          n++;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 40u);
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, ScanHonorsLimitAndOwnWrites) {
  for (uint64_t k = 0; k < 10; ++k) CommitPut(k, "old");
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(engine_.Put(txn.get(), table_, MakeKey(3), "own").ok());
  ASSERT_TRUE(engine_.Delete(txn.get(), table_, MakeKey(4)).ok());
  std::vector<std::string> got;
  ASSERT_TRUE(engine_
                  .Scan(txn.get(), table_, MakeKey(2), 3,
                        [&](const Key&, const std::string& value) {
                          got.push_back(value);
                          return true;
                        })
                  .ok());
  // Keys 2 ("old"), 3 ("own"), 5 ("old") — 4 is tombstoned in this txn.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "old");
  EXPECT_EQ(got[1], "own");
  EXPECT_EQ(got[2], "old");
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, ReadCommittedSeesRefreshedSnapshots) {
  CommitPut(1, "v1");
  auto txn = engine_.Begin(IsolationLevel::kReadCommitted);
  std::string v;
  ASSERT_TRUE(engine_.Get(txn.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v1");
  CommitPut(1, "v2");
  engine_.RefreshSnapshot(txn.get());
  ASSERT_TRUE(engine_.Get(txn.get(), table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v2") << "refreshed snapshot must observe the later commit";
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, VersionChainsPrunedAfterHorizonAdvance) {
  MemEngine::Options opts;
  opts.gc_interval = 1;  // recompute horizon every commit
  MemEngine engine(std::make_unique<MemDevice>(), opts);
  TableId t = engine.CreateTable("gc", 256);
  for (int i = 0; i < 200; ++i) {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(
        engine.Put(txn.get(), t, MakeKey(7), "v" + std::to_string(i)).ok());
    ASSERT_TRUE(engine.PreCommit(txn.get()).ok());
    engine.PostCommit(txn.get(), i + 1, false);
  }
  EXPECT_GT(engine.stats().versions_pruned, 100u)
      << "repeated updates with no active readers must prune old versions";
}

TEST_F(MemEngineTest, ActiveReaderBlocksPruningOfItsVersion) {
  MemEngine::Options opts;
  opts.gc_interval = 1;
  MemEngine engine(std::make_unique<MemDevice>(), opts);
  TableId t = engine.CreateTable("gc", 256);
  {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(txn.get(), t, MakeKey(7), "pinned").ok());
    ASSERT_TRUE(engine.PreCommit(txn.get()).ok());
    engine.PostCommit(txn.get(), 1, false);
  }
  auto reader = engine.Begin(IsolationLevel::kSnapshot);
  for (int i = 0; i < 50; ++i) {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(txn.get(), t, MakeKey(7), "x").ok());
    ASSERT_TRUE(engine.PreCommit(txn.get()).ok());
    engine.PostCommit(txn.get(), i + 2, false);
  }
  std::string v;
  ASSERT_TRUE(engine.Get(reader.get(), t, MakeKey(7), &v).ok());
  EXPECT_EQ(v, "pinned") << "old version must survive while a reader needs it";
  engine.Abort(reader.get());
}

TEST_F(MemEngineTest, ConcurrentCountersNoLostUpdates) {
  // N threads increment disjoint counters; per-key totals must be exact.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 300;
  std::vector<std::thread> threads;
  for (uint64_t k = 0; k < kThreads; ++k) CommitPut(k, "0");
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements;) {
        auto txn = engine_.Begin(IsolationLevel::kSnapshot);
        std::string v;
        if (!engine_.Get(txn.get(), table_, MakeKey(t), &v).ok()) {
          engine_.Abort(txn.get());
          continue;
        }
        int cur = std::stoi(v);
        if (!engine_
                 .Put(txn.get(), table_, MakeKey(t), std::to_string(cur + 1))
                 .ok()) {
          continue;  // Put aborts internally on conflict
        }
        if (engine_.PreCommit(txn.get()).ok()) {
          engine_.PostCommit(txn.get(), 0, false);
          i++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (uint64_t k = 0; k < kThreads; ++k) {
    auto txn = engine_.Begin(IsolationLevel::kSnapshot);
    std::string v;
    ASSERT_TRUE(engine_.Get(txn.get(), table_, MakeKey(k), &v).ok());
    EXPECT_EQ(v, std::to_string(kIncrements));
    engine_.Abort(txn.get());
  }
}

TEST_F(MemEngineTest, ContendedSingleCounterExactUnderConflicts) {
  CommitPut(0, "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements;) {
        auto txn = engine_.Begin(IsolationLevel::kSnapshot);
        std::string v;
        if (!engine_.Get(txn.get(), table_, MakeKey(0), &v).ok()) {
          engine_.Abort(txn.get());
          continue;
        }
        if (!engine_
                 .Put(txn.get(), table_, MakeKey(0),
                      std::to_string(std::stoi(v) + 1))
                 .ok()) {
          continue;
        }
        if (engine_.PreCommit(txn.get()).ok()) {
          engine_.PostCommit(txn.get(), 0, false);
          i++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto txn = engine_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(engine_.Get(txn.get(), table_, MakeKey(0), &v).ok());
  EXPECT_EQ(v, std::to_string(kThreads * kIncrements))
      << "first-committer-wins must prevent every lost update";
  engine_.Abort(txn.get());
}

TEST_F(MemEngineTest, RecoverReplaysCommittedOnly) {
  auto dev = std::make_unique<MemDevice>();
  MemDevice* raw = dev.get();
  {
    MemEngine engine(std::move(dev), MemEngine::Options{});
    TableId t = engine.CreateTable("r", 256);
    auto c = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(c.get(), t, MakeKey(1), "committed").ok());
    ASSERT_TRUE(engine.PreCommit(c.get()).ok());
    engine.PostCommit(c.get(), 11, false);

    auto a = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(a.get(), t, MakeKey(2), "aborted").ok());
    ASSERT_TRUE(engine.PreCommit(a.get()).ok());
    engine.Abort(a.get());  // pre-committed (logged data) but never ended
    engine.Log()->Flush();

    // Copy the log into a fresh device to simulate a crash + restart.
    // (~MemEngine flushes; we reread the same bytes.)
    std::vector<uint8_t> snapshot(raw->Size());
    raw->ReadAt(0, snapshot);
    auto dev2 = std::make_unique<MemDevice>();
    ASSERT_TRUE(dev2->WriteAt(0, snapshot).ok());

    MemEngine recovered(std::move(dev2), MemEngine::Options{});
    TableId t2 = recovered.CreateTable("r", 256);
    std::vector<CommittedGroup> groups;
    ASSERT_TRUE(
        ReadCommittedGroups(recovered.Log()->device(), {}, &groups).ok());
    ASSERT_TRUE(recovered.ApplyRecovered(std::move(groups)).ok());
    auto reader = recovered.Begin(IsolationLevel::kSnapshot);
    std::string v;
    ASSERT_TRUE(recovered.Get(reader.get(), t2, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "committed");
    EXPECT_TRUE(
        recovered.Get(reader.get(), t2, MakeKey(2), &v).IsNotFound())
        << "data of non-committed transactions must not be replayed";
    recovered.Abort(reader.get());
  }
}

}  // namespace
}  // namespace skeena::memdb
