// Cross-engine durability and recovery (paper Section 4.6): each engine
// recovers from its own log; cross-engine transactions are rolled back
// unless their commit-end record is durable in *both* logs.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/skeena.h"
#include "log/log_manager.h"
#include "log/log_records.h"
#include "log/segmented_device.h"

namespace skeena {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("skeena_recovery_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  ~RecoveryTest() override { std::filesystem::remove_all(dir_); }

  DatabaseOptions FileOptions() {
    DatabaseOptions opts;
    opts.data_dir = dir_;
    return opts;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, CommittedCrossTxnSurvivesRestart) {
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "mem-data").ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(1), "stor-data").ok());
    ASSERT_TRUE(txn->Commit().ok());  // waits for both logs durable
  }
  {
    Database db(FileOptions());  // catalog reloaded from disk
    ASSERT_TRUE(db.Recover().ok());
    auto mem_t = *db.GetTable("m");
    auto stor_t = *db.GetTable("s");
    auto reader = db.Begin();
    std::string v;
    ASSERT_TRUE(reader->Get(mem_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "mem-data");
    ASSERT_TRUE(reader->Get(stor_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "stor-data");
  }
}

TEST_F(RecoveryTest, ManyTransactionsReplayInOrder) {
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);
    for (int i = 0; i < 50; ++i) {
      auto txn = db.Begin();
      ASSERT_TRUE(txn->Put(mem_t, MakeKey(i % 7), std::to_string(i)).ok());
      ASSERT_TRUE(txn->Put(stor_t, MakeKey(i % 7), std::to_string(i)).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  {
    Database db(FileOptions());
    ASSERT_TRUE(db.Recover().ok());
    auto mem_t = *db.GetTable("m");
    auto stor_t = *db.GetTable("s");
    auto reader = db.Begin();
    for (int k = 0; k < 7; ++k) {
      // Last writer of key k is the largest i < 50 with i % 7 == k.
      int last = 49 - ((49 - k) % 7);
      std::string v;
      ASSERT_TRUE(reader->Get(mem_t, MakeKey(k), &v).ok());
      EXPECT_EQ(v, std::to_string(last)) << "mem key " << k;
      ASSERT_TRUE(reader->Get(stor_t, MakeKey(k), &v).ok());
      EXPECT_EQ(v, std::to_string(last)) << "stor key " << k;
    }
  }
}

TEST_F(RecoveryTest, PartiallyCommittedCrossTxnRolledBack) {
  // Crash between the two post-commits: the mem log carries commit-end,
  // the stor log does not. Recovery must roll back BOTH sides.
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);

    // A fully committed transaction for contrast.
    auto ok_txn = db.Begin();
    ASSERT_TRUE(ok_txn->Put(mem_t, MakeKey(1), "keep-m").ok());
    ASSERT_TRUE(ok_txn->Put(stor_t, MakeKey(1), "keep-s").ok());
    ASSERT_TRUE(ok_txn->Commit().ok());

    // Drive the "crashing" transaction manually to stop mid-commit.
    EngineIface* mem = db.engine(0);
    EngineIface* stor = db.engine(1);
    GlobalTxnId gtid = db.NextGtid();
    auto t_mem = mem->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
    auto t_stor = stor->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
    ASSERT_TRUE(
        mem->Put(t_mem.get(), (*db.GetTable("m")).local_id, MakeKey(2),
                 "torn-m")
            .ok());
    ASSERT_TRUE(
        stor->Put(t_stor.get(), (*db.GetTable("s")).local_id, MakeKey(2),
                  "torn-s")
            .ok());
    Timestamp cts;
    ASSERT_TRUE(mem->PreCommit(t_mem.get(), &cts).ok());
    ASSERT_TRUE(stor->PreCommit(t_stor.get(), &cts).ok());
    // Post-commit ONLY the mem side; "crash" before the stor side.
    mem->PostCommit(t_mem.get(), gtid, true);
    mem->Log()->Flush();
    stor->Log()->Flush();
    // The stor sub-transaction is intentionally leaked as "in flight";
    // roll it back so the Database destructor is clean, but its commit-end
    // never reaches the log.
    stor->Abort(t_stor.get());
  }
  {
    Database db(FileOptions());
    ASSERT_TRUE(db.Recover().ok());
    auto mem_t = *db.GetTable("m");
    auto stor_t = *db.GetTable("s");
    auto reader = db.Begin();
    std::string v;
    ASSERT_TRUE(reader->Get(mem_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "keep-m");
    ASSERT_TRUE(reader->Get(stor_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "keep-s");
    EXPECT_TRUE(reader->Get(mem_t, MakeKey(2), &v).IsNotFound())
        << "mem half of the torn cross-engine txn must be rolled back";
    EXPECT_TRUE(reader->Get(stor_t, MakeKey(2), &v).IsNotFound())
        << "stor half must not appear either";
  }
}

TEST_F(RecoveryTest, SingleEngineTxnsUnaffectedByCrossRollback) {
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);
    // Single-engine commits interleaved with a torn cross txn.
    auto a = db.Begin();
    ASSERT_TRUE(a->Put(mem_t, MakeKey(10), "solo-m").ok());
    ASSERT_TRUE(a->Commit().ok());
    auto b = db.Begin();
    ASSERT_TRUE(b->Put(stor_t, MakeKey(10), "solo-s").ok());
    ASSERT_TRUE(b->Commit().ok());

    EngineIface* mem = db.engine(0);
    GlobalTxnId gtid = db.NextGtid();
    auto t_mem = mem->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
    ASSERT_TRUE(mem->Put(t_mem.get(), mem_t.local_id, MakeKey(11), "torn")
                    .ok());
    Timestamp cts;
    ASSERT_TRUE(mem->PreCommit(t_mem.get(), &cts).ok());
    mem->PostCommit(t_mem.get(), gtid, true);  // cross, but stor never logs
    mem->Log()->Flush();
  }
  {
    Database db(FileOptions());
    ASSERT_TRUE(db.Recover().ok());
    auto reader = db.Begin();
    std::string v;
    ASSERT_TRUE(reader->Get(*db.GetTable("m"), MakeKey(10), &v).ok());
    EXPECT_EQ(v, "solo-m");
    ASSERT_TRUE(reader->Get(*db.GetTable("s"), MakeKey(10), &v).ok());
    EXPECT_EQ(v, "solo-s");
    EXPECT_TRUE(reader->Get(*db.GetTable("m"), MakeKey(11), &v).IsNotFound());
  }
}

TEST_F(RecoveryTest, RecoveredDatabaseAcceptsNewTransactions) {
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "one").ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(1), "one").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    Database db(FileOptions());
    ASSERT_TRUE(db.Recover().ok());
    auto mem_t = *db.GetTable("m");
    auto stor_t = *db.GetTable("s");
    // Timestamps must have advanced past recovered commits: new writes win.
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "two").ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(1), "two").ok());
    ASSERT_TRUE(txn->Commit().ok());
    auto reader = db.Begin();
    std::string v;
    ASSERT_TRUE(reader->Get(mem_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "two");
    ASSERT_TRUE(reader->Get(stor_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "two");
  }
}

TEST_F(RecoveryTest, TornLogTailIgnored) {
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "good").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Corrupt the mem log (a segmented-device directory) with a torn frame
  // right after the valid tail: a plausible header whose payload never
  // fully hit the disk.
  {
    auto dev = SegmentedLogDevice::Open(dir_ + "/mem.log");
    ASSERT_TRUE(dev.ok());
    LogReader scan(dev->get());
    std::string rec;
    while (scan.Next(&rec)) {
    }
    const uint64_t end = scan.offset();
    std::string torn;
    uint32_t bogus_len = 1 << 20;
    uint32_t bogus_check = 0xfeedface;
    torn.append(reinterpret_cast<const char*>(&bogus_len), 4);
    torn.append(reinterpret_cast<const char*>(&bogus_check), 4);
    torn += "partial-payload";
    ASSERT_TRUE(
        (*dev)
            ->WriteAt(end, {reinterpret_cast<const uint8_t*>(torn.data()),
                            torn.size()})
            .ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    Database db(FileOptions());
    ASSERT_TRUE(db.Recover().ok()) << "torn tail must not fail recovery";
    auto reader = db.Begin();
    std::string v;
    ASSERT_TRUE(reader->Get(*db.GetTable("m"), MakeKey(1), &v).ok());
    EXPECT_EQ(v, "good");
  }
}

TEST_F(RecoveryTest, LegacyCommitBeginRecordsDecodeAsNoOps) {
  // Cross-engine pre-commits once logged a commit-begin record (type 3).
  // Logs written then must still recover: hand-append such records to
  // both logs — one for a committed transaction, one for a transaction
  // that crashed after pre-commit and never logged anything else.
  GlobalTxnId committed_gtid = 0;
  {
    Database db(FileOptions());
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);
    auto txn = db.Begin();
    committed_gtid = txn->gtid();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1), "mem-data").ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(1), "stor-data").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const GlobalTxnId dangling_gtid = committed_gtid + 100;
  for (const char* name : {"/mem.log", "/stor.log"}) {
    auto dev = SegmentedLogDevice::Open(dir_ + name);
    ASSERT_TRUE(dev.ok());
    LogManager log(std::move(dev.value()));
    for (GlobalTxnId gtid : {committed_gtid, dangling_gtid}) {
      LogRecord begin;
      begin.type = LogRecordType::kCommitBegin;
      begin.gtid = gtid;
      begin.cts = 1;
      const std::string encoded = begin.Encode();
      log.Append(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(encoded.data()), encoded.size()));
    }
    ASSERT_TRUE(log.Flush().ok());
  }
  for (int restart = 0; restart < 2; ++restart) {
    Database db(FileOptions());
    ASSERT_TRUE(db.Recover().ok());
    auto mem_t = *db.GetTable("m");
    auto stor_t = *db.GetTable("s");
    auto reader = db.Begin();
    std::string v;
    ASSERT_TRUE(reader->Get(mem_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "mem-data");
    ASSERT_TRUE(reader->Get(stor_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "stor-data");
    ASSERT_TRUE(reader->Commit().ok());
    // New cross-engine commits land past the legacy records' gtids.
    auto w = db.Begin();
    EXPECT_GT(w->gtid(), dangling_gtid);
    const Key k = MakeKey(2 + restart);
    ASSERT_TRUE(w->Put(mem_t, k, "after").ok());
    ASSERT_TRUE(w->Put(stor_t, k, "after").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  Database db(FileOptions());
  ASSERT_TRUE(db.Recover().ok());
  auto reader = db.Begin();
  std::string v;
  for (int restart = 0; restart < 2; ++restart) {
    ASSERT_TRUE(reader->Get(*db.GetTable("s"), MakeKey(2 + restart), &v).ok());
    EXPECT_EQ(v, "after");
  }
}

#ifdef GTEST_HAS_DEATH_TEST
// A device under data_dir that will not open must stop the process, not
// fall back to memory: a memory log would ack commits that vanish on
// restart. Each database is built inside the death statement, so the
// forked child starts every thread it has.
using RecoveryDeathTest = RecoveryTest;

TEST_F(RecoveryDeathTest, PlainFileWhereLogDirectoryBelongsFailsStop) {
  // The layout of a data dir from before segmented logs: mem.log is one
  // plain file, so the segment directory cannot be opened.
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/mem.log") << "file-era log bytes";
  EXPECT_DEATH({ Database db(FileOptions()); }, "cannot open .*mem\\.log");
}

TEST_F(RecoveryDeathTest, UnopenableTableSpaceFailsStop) {
  std::filesystem::create_directories(dir_ + "/table_s.tbl");
  EXPECT_DEATH(
      {
        Database db(FileOptions());
        (void)db.CreateTable("s", EngineKind::kStor);
      },
      "cannot open .*table_s\\.tbl");
}
#endif

}  // namespace
}  // namespace skeena
