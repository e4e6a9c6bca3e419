#include "core/transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/history.h"
#include "core/skeena.h"
#include "support/db_fixtures.h"

namespace skeena {
namespace {

using test::FastOptions;

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : db_(test::FastOptions()) {
    mem_table_ = *db_.CreateTable("mem_t", EngineKind::kMem);
    stor_table_ = *db_.CreateTable("stor_t", EngineKind::kStor);
  }

  Database db_;
  TableHandle mem_table_;
  TableHandle stor_table_;
};

TEST_F(TxnTest, CatalogRoutesTables) {
  auto h = db_.GetTable("mem_t");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->home, EngineKind::kMem);
  auto h2 = db_.GetTable("stor_t");
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2->home, EngineKind::kStor);
  EXPECT_TRUE(db_.GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(db_.CreateTable("mem_t", EngineKind::kMem).status().code() ==
              StatusCode::kAlreadyExists);
}

TEST_F(TxnTest, SingleEngineMemCommit) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "v").ok());
  EXPECT_FALSE(txn->is_cross_engine());
  ASSERT_TRUE(txn->Commit().ok());

  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v");
}

TEST_F(TxnTest, SingleEngineStorCommit) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v");
}

TEST_F(TxnTest, CrossEngineCommitVisibleEverywhere) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "m").ok());
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "s").ok());
  EXPECT_TRUE(txn->is_cross_engine());
  ASSERT_TRUE(txn->Commit().ok());

  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m");
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s");
}

TEST_F(TxnTest, AbortRollsBackBothEngines) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(mem_table_, MakeKey(1), "m0").ok());
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "s0").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "m1").ok());
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "s1").ok());
  txn->Abort();

  auto reader = db_.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m0");
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s0");
}

TEST_F(TxnTest, DestructorAbortsActiveTransaction) {
  {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Put(mem_table_, MakeKey(9), "leak").ok());
    // dropped without Commit()
  }
  auto reader = db_.Begin();
  std::string v;
  EXPECT_TRUE(reader->Get(mem_table_, MakeKey(9), &v).IsNotFound());
}

TEST_F(TxnTest, CommitTwiceRejected) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_FALSE(txn->Commit().ok());
  EXPECT_FALSE(txn->Put(mem_table_, MakeKey(2), "w").ok());
}

TEST_F(TxnTest, EmptyTransactionCommits) {
  auto txn = db_.Begin();
  EXPECT_TRUE(txn->Commit().ok());
}

TEST_F(TxnTest, EngineConflictAbortsWholeCrossTxn) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(mem_table_, MakeKey(1), "base").ok());
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "base").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto t1 = db_.Begin();
  std::string v;
  ASSERT_TRUE(t1->Get(mem_table_, MakeKey(1), &v).ok());  // pin snapshot
  ASSERT_TRUE(t1->Put(stor_table_, MakeKey(1), "t1-stor").ok());

  {  // interloper bumps the mem key
    auto t2 = db_.Begin();
    ASSERT_TRUE(t2->Put(mem_table_, MakeKey(1), "newer").ok());
    ASSERT_TRUE(t2->Commit().ok());
  }

  // t1's mem write now conflicts; the whole cross-engine txn must die and
  // leave the stor side untouched.
  Status s = t1->Put(mem_table_, MakeKey(1), "t1-mem");
  ASSERT_TRUE(s.IsAnyAbort());
  auto reader = db_.Begin();
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "base") << "stor sub-transaction must have been rolled back";
}

TEST_F(TxnTest, SnapshotIsolationAcrossEngines) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(mem_table_, MakeKey(1), "m1").ok());
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "s1").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto reader = db_.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(reader->Get(mem_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m1");

  {  // concurrent cross-engine update
    auto w = db_.Begin();
    ASSERT_TRUE(w->Put(mem_table_, MakeKey(1), "m2").ok());
    ASSERT_TRUE(w->Put(stor_table_, MakeKey(1), "s2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }

  // Reader crosses into stor only now; the CSR must hand it the snapshot
  // matching its anchor position — before the update.
  ASSERT_TRUE(reader->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s1") << "cross-engine snapshot skewed forward";
}

TEST_F(TxnTest, ReadCommittedSeesLatestPerAccess) {
  {
    auto setup = db_.Begin();
    ASSERT_TRUE(setup->Put(stor_table_, MakeKey(1), "v1").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }
  auto rc = db_.Begin(IsolationLevel::kReadCommitted);
  std::string v;
  ASSERT_TRUE(rc->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v1");
  {
    auto w = db_.Begin();
    ASSERT_TRUE(w->Put(stor_table_, MakeKey(1), "v2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  ASSERT_TRUE(rc->Get(stor_table_, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v2") << "read committed must refresh its snapshot";
}

TEST_F(TxnTest, ScanThroughTransactionApi) {
  auto setup = db_.Begin();
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(
        setup->Put(stor_table_, MakeKey(k), "v" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(setup->Commit().ok());

  auto txn = db_.Begin();
  size_t n = 0;
  ASSERT_TRUE(txn->Scan(stor_table_, MakeKey(5), 7,
                        [&](const Key&, const std::string&) {
                          n++;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(n, 7u);
}

TEST_F(TxnTest, CommitWaitsForDurability) {
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Put(mem_table_, MakeKey(1), "d").ok());
  ASSERT_TRUE(txn->Put(stor_table_, MakeKey(1), "d").ok());
  ASSERT_TRUE(txn->Commit().ok());
  // After a successful commit both logs must cover the transaction.
  EXPECT_GE(db_.engine(0)->DurableLsn(), db_.engine(0)->CurrentLsn());
  EXPECT_GE(db_.engine(1)->DurableLsn(), db_.engine(1)->CurrentLsn());
}

TEST_F(TxnTest, ReadCommittedCommitPublishesNoStaleAnchorPair) {
  const Key k = MakeKey(1);
  {
    auto seed = db_.Begin();
    ASSERT_TRUE(seed->Put(mem_table_, k, "0").ok());
    ASSERT_TRUE(seed->Put(stor_table_, k, "0").ok());
    ASSERT_TRUE(seed->Commit().ok());
  }
  std::string v;
  // A read-committed reader pins anchor snapshot A in the anchor engine.
  auto rc = db_.Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(rc->Get(mem_table_, k, &v).ok());
  ASSERT_TRUE(rc->Get(stor_table_, k, &v).ok());
  // A snapshot reader also starts at A; it crosses into stordb later.
  auto si = db_.Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(si->Get(mem_table_, k, &v).ok());
  ASSERT_EQ(v, "0");
  {
    auto w = db_.Begin();
    ASSERT_TRUE(w->Put(mem_table_, k, "1").ok());
    ASSERT_TRUE(w->Put(stor_table_, k, "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  // The reader's stordb refresh moves its anchor past the writer and sees
  // the writer's stordb half; its anchor-engine view is still at A.
  ASSERT_TRUE(rc->Get(stor_table_, k, &v).ok());
  ASSERT_EQ(v, "1");
  ASSERT_TRUE(rc->Commit().ok());
  // Committing must not have mapped A to the writer's stordb timestamp.
  Status s = si->Get(stor_table_, k, &v);
  if (s.ok()) {
    EXPECT_EQ(v, "0") << "snapshot reader at A sees the writer's stordb "
                         "half but not its memdb half";
    EXPECT_TRUE(si->Commit().ok());
  }
}

TEST_F(TxnTest, StatsCountCsrTraffic) {
  // Anchor-only transactions must not touch the CSR (ERMIA-S == ERMIA).
  for (int i = 0; i < 10; ++i) {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Put(mem_table_, MakeKey(i), "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(db_.stats().csr.accesses, 0u);

  // Slow-engine transactions are effectively cross-engine (Section 4.3).
  for (int i = 0; i < 10; ++i) {
    auto txn = db_.Begin();
    ASSERT_TRUE(txn->Put(stor_table_, MakeKey(i), "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto stats = db_.stats();
  EXPECT_GT(stats.csr.accesses, 0u);
  // All with the same anchor snapshot -> a single CSR key (Section 6.3).
  EXPECT_LE(db_.csr().EntryCount(), 1u);
}

// One cross-engine commit order: concurrent cross-engine writers on
// disjoint keys cannot conflict in either engine, so any abort at commit
// would come from Algorithm 2 — and with every mapping-installing commit's
// timestamp draws serialized under the CSR writer mutex, the two engines'
// commit orders never invert and the check never fails. Readers crossing
// engines at the same time must see consistent snapshot pairs.
TEST(TxnCommitOrderTest, ConcurrentCrossEngineWritersNeverFailCommitCheck) {
  DatabaseOptions opts = FastOptions();
  opts.record_history = true;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kCommitsPerWriter = 300;
  constexpr uint64_t kKeysPerWriter = 8;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const Key key = MakeKey(t * kKeysPerWriter + i % kKeysPerWriter);
        const std::string v = std::to_string(t) + ":" + std::to_string(i);
        auto txn = db.Begin();
        if (!txn->Put(mem_t, key, v).ok()) continue;  // selection abort
        if (!txn->Put(stor_t, key, v).ok()) continue;
        txn->Commit().ok();  // a failure shows in commit_aborts below
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t k = static_cast<uint64_t>(r);
      while (writers_left.load() > 0) {
        const Key key = MakeKey(k++ % (kWriters * kKeysPerWriter));
        auto txn = db.Begin();
        std::string v;
        // Alternate which engine is crossed into first.
        const TableHandle& first = (k % 2 == 0) ? mem_t : stor_t;
        const TableHandle& second = (k % 2 == 0) ? stor_t : mem_t;
        Status s = txn->Get(first, key, &v);
        if (!s.ok() && !s.IsNotFound()) continue;
        s = txn->Get(second, key, &v);
        if (!s.ok() && !s.IsNotFound()) continue;
        txn->Commit().ok();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(db.csr().stats().commit_aborts, 0u)
      << "concurrent cross-engine commits drew inverted timestamp orders";

  auto history = db.recorder()->Fold();
  SiCheckOptions check;
  check.anchor_index = db.anchor_index();
  check.have_csr_dump = true;
  Timestamp floor = 0;
  for (const auto& m : db.csr().DumpMappings(&floor)) {
    check.csr_mappings.push_back({m.key, m.vmin, m.vmax});
  }
  check.csr_floor = floor;
  SiReport report = CheckSnapshotIsolation(history, check);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.pairs, 0u);
}

TEST(TxnConfigTest, SkeenaOffCommitsIndependently) {
  DatabaseOptions opts = FastOptions();
  opts.enable_skeena = false;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "m").ok());
  ASSERT_TRUE(txn->Put(stor_t, MakeKey(1), "s").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.stats().csr.accesses, 0u) << "no CSR traffic with Skeena off";
}

TEST(TxnConfigTest, StorAnchorAblationWorks) {
  DatabaseOptions opts = FastOptions();
  opts.anchor = EngineKind::kStor;  // heavyweight anchor (Section 4.3 note)
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  for (int i = 0; i < 20; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(i), "s").ok());
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(i), "m").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto reader = db.Begin();
  std::string v;
  ASSERT_TRUE(reader->Get(mem_t, MakeKey(19), &v).ok());
  EXPECT_EQ(v, "m");
  // With stordb anchoring, mem-only transactions now pay the CSR.
  EXPECT_GT(db.stats().csr.accesses, 0u);
}

TEST(TxnConfigTest, SyncCommitModeWorks) {
  DatabaseOptions opts = FastOptions();
  opts.pipeline.mode = CommitPipeline::Mode::kSync;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GE(db.engine(0)->DurableLsn(), db.engine(0)->CurrentLsn());
}

TEST(TxnConfigTest, PartitionedCommitQueues) {
  DatabaseOptions opts = FastOptions();
  opts.pipeline.num_queues = 4;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto txn = db.Begin();
        ASSERT_TRUE(
            txn->Put(mem_t, MakeKey(t * 1000 + i), "v").ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(db.pipeline().completed(), 200u);
}

}  // namespace
}  // namespace skeena
