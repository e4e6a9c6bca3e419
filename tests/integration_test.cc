// End-to-end multi-threaded workloads over the full stack, checking the
// cross-engine ACID properties of paper Section 2.2.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/skeena.h"
#include "support/db_fixtures.h"

namespace skeena {
namespace {

using test::FastOptions;

int64_t ParseBalance(const std::string& s) { return std::stoll(s); }

// The intro's financial application: accounts split across a fast memory
// table (hot accounts) and a storage table (cold accounts). Transfers move
// money across engines in one ACID transaction; auditors must always see
// the invariant total.
class BankTest : public ::testing::Test {
 protected:
  static constexpr int kAccountsPerEngine = 16;
  static constexpr int64_t kInitialBalance = 1000;

  BankTest() : db_(FastOptions()) {
    hot_ = *db_.CreateTable("hot_accounts", EngineKind::kMem);
    cold_ = *db_.CreateTable("cold_accounts", EngineKind::kStor);
    auto txn = db_.Begin();
    for (int i = 0; i < kAccountsPerEngine; ++i) {
      EXPECT_TRUE(txn->Put(hot_, MakeKey(i),
                           std::to_string(kInitialBalance))
                      .ok());
      EXPECT_TRUE(txn->Put(cold_, MakeKey(i),
                           std::to_string(kInitialBalance))
                      .ok());
    }
    EXPECT_TRUE(txn->Commit().ok());
  }

  int64_t TotalExpected() const {
    return 2ll * kAccountsPerEngine * kInitialBalance;
  }

  // Reads all accounts in one cross-engine snapshot; returns the sum.
  bool Audit(int64_t* total) {
    auto txn = db_.Begin(IsolationLevel::kSnapshot);
    int64_t sum = 0;
    for (int i = 0; i < kAccountsPerEngine; ++i) {
      std::string v;
      if (!txn->Get(hot_, MakeKey(i), &v).ok()) return false;
      sum += ParseBalance(v);
      if (!txn->Get(cold_, MakeKey(i), &v).ok()) return false;
      sum += ParseBalance(v);
    }
    txn->Abort();
    *total = sum;
    return true;
  }

  Database db_;
  TableHandle hot_;
  TableHandle cold_;
};

TEST_F(BankTest, CrossEngineTransfersPreserveTotal) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> transfers{0};
  std::atomic<uint64_t> bad_audits{0};
  std::atomic<uint64_t> audits{0};

  std::vector<std::thread> movers;
  for (int t = 0; t < 4; ++t) {
    movers.emplace_back([&, t] {
      Rng rng(t + 1);
      while (!stop.load()) {
        int from = static_cast<int>(rng.Uniform(kAccountsPerEngine));
        int to = static_cast<int>(rng.Uniform(kAccountsPerEngine));
        int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(50));
        auto txn = db_.Begin();
        std::string fv, tv;
        // Hot -> cold transfer: one account per engine.
        if (!txn->Get(hot_, MakeKey(from), &fv).ok()) continue;
        if (!txn->Get(cold_, MakeKey(to), &tv).ok()) continue;
        int64_t fb = ParseBalance(fv);
        if (fb < amount) {
          txn->Abort();
          continue;
        }
        if (!txn->Put(hot_, MakeKey(from), std::to_string(fb - amount)).ok())
          continue;
        if (!txn->Put(cold_, MakeKey(to),
                      std::to_string(ParseBalance(tv) + amount))
                 .ok())
          continue;
        if (txn->Commit().ok()) transfers.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> auditors;
  for (int a = 0; a < 2; ++a) {
    auditors.emplace_back([&] {
      while (!stop.load()) {
        int64_t total = 0;
        if (!Audit(&total)) continue;
        audits.fetch_add(1);
        if (total != TotalExpected()) bad_audits.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true);
  for (auto& th : movers) th.join();
  for (auto& th : auditors) th.join();

  EXPECT_GT(transfers.load(), 50u) << "workload made no progress";
  EXPECT_GT(audits.load(), 10u);
  EXPECT_EQ(bad_audits.load(), 0u)
      << "an audit observed a torn cross-engine transfer";

  int64_t final_total = 0;
  ASSERT_TRUE(Audit(&final_total));
  EXPECT_EQ(final_total, TotalExpected());
}

TEST_F(BankTest, SerializableTransfersAlsoPreserveTotal) {
  std::atomic<uint64_t> transfers{0};
  std::vector<std::thread> movers;
  for (int t = 0; t < 4; ++t) {
    movers.emplace_back([&, t] {
      Rng rng(t + 10);
      for (int i = 0; i < 100; ++i) {
        int from = static_cast<int>(rng.Uniform(kAccountsPerEngine));
        int to = static_cast<int>(rng.Uniform(kAccountsPerEngine));
        auto txn = db_.Begin(IsolationLevel::kSerializable);
        std::string fv, tv;
        if (!txn->Get(hot_, MakeKey(from), &fv).ok()) continue;
        if (!txn->Get(cold_, MakeKey(to), &tv).ok()) continue;
        if (!txn->Put(hot_, MakeKey(from),
                      std::to_string(ParseBalance(fv) - 1))
                 .ok())
          continue;
        if (!txn->Put(cold_, MakeKey(to),
                      std::to_string(ParseBalance(tv) + 1))
                 .ok())
          continue;
        if (txn->Commit().ok()) transfers.fetch_add(1);
      }
    });
  }
  for (auto& th : movers) th.join();
  EXPECT_GT(transfers.load(), 0u);
  int64_t total = 0;
  ASSERT_TRUE(Audit(&total));
  EXPECT_EQ(total, TotalExpected());
}

TEST(IntegrationTest, MixedSingleAndCrossEngineWorkload) {
  Database db(FastOptions());
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);

  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t + 77);
      for (int i = 0; i < 200; ++i) {
        auto txn = db.Begin();
        bool ok = true;
        switch (rng.Uniform(3)) {
          case 0:  // mem-only
            ok = txn->Put(mem_t, MakeKey(rng.Uniform(64)), "m").ok();
            break;
          case 1:  // stor-only
            ok = txn->Put(stor_t, MakeKey(rng.Uniform(64)), "s").ok();
            break;
          default: {  // cross-engine read-modify-write
            std::string v;
            Status g = txn->Get(mem_t, MakeKey(rng.Uniform(64)), &v);
            ok = (g.ok() || g.IsNotFound()) &&
                 txn->Put(stor_t, MakeKey(rng.Uniform(64)), "x").ok();
            break;
          }
        }
        if (ok && txn->Commit().ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_GT(commits.load(), 600u);

  EXPECT_GT(db.csr().stats().mappings, 0u);
  // Every committed transaction post-commits at least one engine.
  EXPECT_GE(db.mem()->stats().commits + db.stor()->stats().commits,
            commits.load());
}

TEST(IntegrationTest, LongReaderCoexistsWithWriters) {
  // CSR recycling must never reclaim the partition a long-running reader's
  // anchor snapshot lives in (Section 4.4).
  DatabaseOptions opts = FastOptions();
  opts.csr.partition_capacity = 32;
  opts.csr.recycle_period = 64;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(0), "init").ok());
    ASSERT_TRUE(init->Put(stor_t, MakeKey(0), "init").ok());
    ASSERT_TRUE(init->Commit().ok());
  }

  auto long_reader = db.Begin();
  std::string v;
  ASSERT_TRUE(long_reader->Get(mem_t, MakeKey(0), &v).ok());  // pin anchor

  // Lots of cross-engine commits to churn CSR partitions.
  for (int i = 0; i < 2000; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1 + (i % 16)), "w").ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(1 + (i % 16)), "w").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  // The long reader can still cross into stor with its old snapshot: while
  // it lives, its anchor snapshot pins the recycling horizon (Section 4.4).
  Status s = long_reader->Get(stor_t, MakeKey(0), &v);
  EXPECT_TRUE(s.ok()) << s.ToString()
                      << " (recycling dropped a needed partition)";
  if (s.ok()) {
    EXPECT_EQ(v, "init");
  }
  EXPECT_EQ(db.csr().stats().partitions_recycled, 0u)
      << "partitions covering a live snapshot must not be recycled";
  long_reader->Abort();

  // With the pin gone, continued churn lets recycling reclaim partitions.
  for (int i = 0; i < 2000; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(1 + (i % 16)), "w").ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(1 + (i % 16)), "w").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_GT(db.csr().stats().partitions_recycled, 0u);
}

TEST(IntegrationTest, HighContentionCrossCounterExact) {
  Database db(FastOptions());
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(mem_t, MakeKey(0), "0").ok());
    ASSERT_TRUE(init->Put(stor_t, MakeKey(0), "0").ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIncrements;) {
        auto txn = db.Begin();
        std::string mv, sv;
        if (!txn->Get(mem_t, MakeKey(0), &mv).ok()) continue;
        if (!txn->Get(stor_t, MakeKey(0), &sv).ok()) continue;
        if (!txn->Put(mem_t, MakeKey(0),
                      std::to_string(std::stoll(mv) + 1))
                 .ok())
          continue;
        if (!txn->Put(stor_t, MakeKey(0),
                      std::to_string(std::stoll(sv) + 1))
                 .ok())
          continue;
        if (txn->Commit().ok()) i++;
      }
    });
  }
  for (auto& th : workers) th.join();
  auto reader = db.Begin();
  std::string mv, sv;
  ASSERT_TRUE(reader->Get(mem_t, MakeKey(0), &mv).ok());
  ASSERT_TRUE(reader->Get(stor_t, MakeKey(0), &sv).ok());
  EXPECT_EQ(mv, std::to_string(kThreads * kIncrements));
  EXPECT_EQ(sv, mv) << "both engine counters must advance in lockstep";
}

}  // namespace
}  // namespace skeena
