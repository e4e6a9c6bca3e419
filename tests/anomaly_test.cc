// Reproduces the cross-engine anomalies of paper Section 2.3 (Figures 2-3)
// and verifies Skeena prevents them while the uncoordinated baseline
// exhibits them.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/skeena.h"
#include "support/db_fixtures.h"

namespace skeena {
namespace {

using test::FastOptions;

// ---------------------------------------------------------------------------
// Issue 1b, Figure 2(b) "isolation failure": a cross-engine transaction T
// commits its mem sub-transaction; before its stor sub-transaction commits,
// a reader U starts and reads both engines. Uncoordinated, U sees T's mem
// write but not its stor write — partial results.
// ---------------------------------------------------------------------------
TEST(AnomalyTest, IsolationFailureObservableWithoutCoordination) {
  // Drive the engines directly to pin the Figure 2(b) interleaving.
  DatabaseOptions opts = FastOptions(false);
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);

  EngineIface* mem = db.engine(0);
  EngineIface* stor = db.engine(1);

  // Cross-engine T writes both engines...
  auto t_mem = mem->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  auto t_stor = stor->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  ASSERT_TRUE(mem->Put(t_mem.get(), mem_t.local_id, MakeKey(1), "T").ok());
  ASSERT_TRUE(stor->Put(t_stor.get(), stor_t.local_id, MakeKey(1), "T").ok());

  // ...commits the mem half only (stor half still in flight).
  Timestamp cts;
  ASSERT_TRUE(mem->PreCommit(t_mem.get(), &cts).ok());
  mem->PostCommit(t_mem.get(), 1, false);

  // U begins now and reads both engines with native latest snapshots.
  auto u_mem = mem->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  auto u_stor = stor->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  std::string v;
  EXPECT_TRUE(mem->Get(u_mem.get(), mem_t.local_id, MakeKey(1), &v).ok())
      << "U sees T's mem write";
  EXPECT_TRUE(
      stor->Get(u_stor.get(), stor_t.local_id, MakeKey(1), &v).IsNotFound())
      << "but not T's stor write: partial results (the Fig 2(b) anomaly)";

  mem->Abort(u_mem.get());
  stor->Abort(u_stor.get());
  // Finish T.
  ASSERT_TRUE(stor->PreCommit(t_stor.get(), &cts).ok());
  stor->PostCommit(t_stor.get(), 1, false);
}

// With Skeena the same phenomenon cannot be observed through the public
// API: a reader either orders entirely before or entirely after a
// cross-engine writer.
TEST(AnomalyTest, SkeenaPreventsPartialReads) {
  Database db(FastOptions(true));
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(1), "0").ok());
    ASSERT_TRUE(init->Put(stor_t, MakeKey(1), "0").ok());
    ASSERT_TRUE(init->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_reads{0};
  std::atomic<uint64_t> reads_done{0};

  // Writer: A and B always updated together to the same value.
  std::thread writer([&] {
    for (int i = 1; i <= 600 && !stop.load(); ++i) {
      while (true) {
        auto txn = db.Begin();
        std::string val = std::to_string(i);
        if (!txn->Put(mem_t, MakeKey(1), val).ok()) continue;
        if (!txn->Put(stor_t, MakeKey(1), val).ok()) continue;
        if (txn->Commit().ok()) break;
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto txn = db.Begin();
        std::string a, b;
        if (!txn->Get(mem_t, MakeKey(1), &a).ok()) continue;
        if (!txn->Get(stor_t, MakeKey(1), &b).ok()) continue;
        if (a != b) torn_reads.fetch_add(1);
        reads_done.fetch_add(1);
        txn->Abort();
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(reads_done.load(), 100u);
  EXPECT_EQ(torn_reads.load(), 0u)
      << "Skeena must make cross-engine writes appear atomic to snapshots";
}

// The uncoordinated baseline, under the same workload, does observe torn
// pairs (this is the motivating measurement; with native latest snapshots
// the window between the two independent sub-commits is visible).
TEST(AnomalyTest, BaselineObservesTornPairs) {
  Database db(FastOptions(false));
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(1), "0").ok());
    ASSERT_TRUE(init->Put(stor_t, MakeKey(1), "0").ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_reads{0};

  std::thread writer([&] {
    for (int i = 1; i <= 3000 && !stop.load(); ++i) {
      auto txn = db.Begin();
      std::string val = std::to_string(i);
      if (!txn->Put(mem_t, MakeKey(1), val).ok()) continue;
      if (!txn->Put(stor_t, MakeKey(1), val).ok()) continue;
      txn->Commit();
      if (torn_reads.load() > 0) break;  // anomaly demonstrated
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto txn = db.Begin();
        std::string a, b;
        if (!txn->Get(mem_t, MakeKey(1), &a).ok()) continue;
        if (!txn->Get(stor_t, MakeKey(1), &b).ok()) continue;
        if (a != b) torn_reads.fetch_add(1);
        txn->Abort();
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  // Not asserting >0 hard (timing dependent), but report it: in practice
  // this fires within a few hundred iterations.
  RecordProperty("torn_reads", static_cast<int>(torn_reads.load()));
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Issue 2, Figure 3: write skew across engines. Each engine alone is
// serializable, but T (reads A in mem, writes B in stor) and S (writes A,
// reads B) form a cross-engine cycle. Under serializable isolation Skeena +
// commit-ordering engines must abort one of them.
// ---------------------------------------------------------------------------
TEST(AnomalyTest, CrossEngineWriteSkewPreventedUnderSerializable) {
  Database db(FastOptions(true));
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(1), "A0").ok());    // A in mem
    ASSERT_TRUE(init->Put(stor_t, MakeKey(2), "B0").ok());   // B in stor
    ASSERT_TRUE(init->Commit().ok());
  }

  // True write skew = both commit having both read the *initial* values
  // (neither saw the other's write). If one transaction reads the other's
  // committed write, the execution is serial and both may commit legally.
  int skew = 0;
  for (int round = 0; round < 20; ++round) {
    std::string a0 = "A" + std::to_string(round);
    std::string b0 = "B" + std::to_string(round);
    {
      auto reset = db.Begin();
      ASSERT_TRUE(reset->Put(mem_t, MakeKey(1), a0).ok());
      ASSERT_TRUE(reset->Put(stor_t, MakeKey(2), b0).ok());
      ASSERT_TRUE(reset->Commit().ok());
    }
    std::atomic<bool> t_skewed{false}, s_skewed{false};
    std::thread tt([&] {
      auto t = db.Begin(IsolationLevel::kSerializable);
      std::string v;
      if (!t->Get(mem_t, MakeKey(1), &v).ok()) return;      // r(A)
      bool read_old = v == a0;
      if (!t->Put(stor_t, MakeKey(2), "B-t").ok()) return;  // w(B)
      t_skewed.store(t->Commit().ok() && read_old);
    });
    std::thread ts([&] {
      auto s = db.Begin(IsolationLevel::kSerializable);
      std::string v;
      if (!s->Get(stor_t, MakeKey(2), &v).ok()) return;     // r(B)
      bool read_old = v == b0;
      if (!s->Put(mem_t, MakeKey(1), "A-s").ok()) return;   // w(A)
      s_skewed.store(s->Commit().ok() && read_old);
    });
    tt.join();
    ts.join();
    if (t_skewed.load() && s_skewed.load()) skew++;
  }
  EXPECT_EQ(skew, 0)
      << "write skew (Fig 3 cycle) slipped through serializable mode";
}

TEST(AnomalyTest, SnapshotIsolationPermitsDisjointWriteCommits) {
  // Contrast for the serializable test: under SI the write-skew pattern is
  // not blocked by read validation. The first transaction always commits;
  // the second either commits (classic SI write skew) or hits a
  // Skeena/engine abort — never an inconsistent state. Retrying the loser
  // with a fresh snapshot must succeed.
  Database db(FastOptions(true));
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(1), "A0").ok());
    ASSERT_TRUE(init->Put(stor_t, MakeKey(2), "B0").ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  auto t = db.Begin(IsolationLevel::kSnapshot);
  auto s = db.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(t->Get(mem_t, MakeKey(1), &v).ok());
  ASSERT_TRUE(s->Get(stor_t, MakeKey(2), &v).ok());
  ASSERT_TRUE(t->Put(stor_t, MakeKey(2), "B-t").ok());
  ASSERT_TRUE(s->Put(mem_t, MakeKey(1), "A-s").ok());
  EXPECT_TRUE(t->Commit().ok()) << "no validation blocks t under SI";
  Status s_commit = s->Commit();
  if (!s_commit.ok()) {
    EXPECT_TRUE(s_commit.IsAnyAbort()) << s_commit.ToString();
    // Retry with a fresh snapshot: disjoint writes, must succeed.
    auto retry = db.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(retry->Get(stor_t, MakeKey(2), &v).ok());
    ASSERT_TRUE(retry->Put(mem_t, MakeKey(1), "A-s").ok());
    EXPECT_TRUE(retry->Commit().ok());
  }
}

// ---------------------------------------------------------------------------
// Issue 1a, Figure 2(a) "skewed snapshot": two concurrent cross-engine
// readers must observe states consistent with a single cross-engine
// ordering: if R2 sees more of the mem engine than R1, it must not see
// less of the stor engine.
// ---------------------------------------------------------------------------
TEST(AnomalyTest, SnapshotOrderConsistentAcrossEngines) {
  Database db(FastOptions(true));
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(1), "0").ok());
    ASSERT_TRUE(init->Put(stor_t, MakeKey(1), "0").ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> skew{0};

  std::thread writer([&] {
    for (int i = 1; i <= 400 && !stop.load(); ++i) {
      while (true) {
        auto txn = db.Begin();
        if (!txn->Put(mem_t, MakeKey(1), std::to_string(i)).ok()) continue;
        if (!txn->Put(stor_t, MakeKey(1), std::to_string(i)).ok()) continue;
        if (txn->Commit().ok()) break;
      }
    }
    stop.store(true);
  });

  // Reader pairs: R1 starts before R2; R2's view of each engine must be
  // >= R1's view (no "crossed" snapshots).
  std::thread checker([&] {
    while (!stop.load()) {
      auto r1 = db.Begin();
      std::string a1, b1;
      if (!r1->Get(mem_t, MakeKey(1), &a1).ok()) continue;
      if (!r1->Get(stor_t, MakeKey(1), &b1).ok()) continue;
      auto r2 = db.Begin();
      std::string a2, b2;
      if (!r2->Get(mem_t, MakeKey(1), &a2).ok()) continue;
      if (!r2->Get(stor_t, MakeKey(1), &b2).ok()) continue;
      if (std::stoi(a2) < std::stoi(a1) || std::stoi(b2) < std::stoi(b1)) {
        skew.fetch_add(1);
      }
      r1->Abort();
      r2->Abort();
    }
  });
  writer.join();
  checker.join();
  EXPECT_EQ(skew.load(), 0u) << "later reader observed an earlier snapshot";
}

}  // namespace
}  // namespace skeena
