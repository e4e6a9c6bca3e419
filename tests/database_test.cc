#include "core/database.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/skeena.h"

namespace skeena {
namespace {

TEST(DatabaseTest, TablesRouteToDeclaredEngines) {
  Database db{DatabaseOptions{}};
  auto m = db.CreateTable("m", EngineKind::kMem);
  auto s = db.CreateTable("s", EngineKind::kStor);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(m->engine_index, 0);
  EXPECT_EQ(s->engine_index, 1);
  EXPECT_EQ(db.engine(EngineKind::kMem)->kind(), EngineKind::kMem);
  EXPECT_EQ(db.engine(EngineKind::kStor)->kind(), EngineKind::kStor);
}

TEST(DatabaseTest, DefaultIsolationFlowsToTransactions) {
  DatabaseOptions opts;
  opts.default_isolation = IsolationLevel::kSerializable;
  Database db(opts);
  auto txn = db.Begin();
  EXPECT_EQ(txn->isolation(), IsolationLevel::kSerializable);
  auto txn2 = db.Begin(IsolationLevel::kReadCommitted);
  EXPECT_EQ(txn2->isolation(), IsolationLevel::kReadCommitted);
}

TEST(DatabaseTest, GtidsAreUnique) {
  Database db{DatabaseOptions{}};
  auto a = db.Begin();
  auto b = db.Begin();
  EXPECT_NE(a->gtid(), b->gtid());
}

TEST(DatabaseTest, ComponentStatsCountCrossEngineCommits) {
  Database db{DatabaseOptions{}};
  auto m = *db.CreateTable("m", EngineKind::kMem);
  auto s = *db.CreateTable("s", EngineKind::kStor);
  for (int i = 0; i < 5; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(m, MakeKey(i), "x").ok());
    ASSERT_TRUE(txn->Put(s, MakeKey(i), "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(db.mem()->stats().commits, 5u);
  EXPECT_EQ(db.stor()->stats().commits, 5u);
  EXPECT_GE(db.csr().stats().mappings, 5u);
  EXPECT_EQ(db.pipeline().completed(), 5u);
}

TEST(DatabaseTest, NameBasedAccessors) {
  Database db{DatabaseOptions{}};
  ASSERT_TRUE(db.CreateTable("inventory", EngineKind::kStor).ok());
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Put("inventory", MakeKey(1), "10 units").ok());
  std::string v;
  ASSERT_TRUE(txn->Get("inventory", MakeKey(1), &v).ok());
  EXPECT_EQ(v, "10 units");
  EXPECT_TRUE(txn->Get("nope", MakeKey(1), &v).IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(DatabaseTest, CatalogPersistsAcrossReopen) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "skeena_catalog_test")
                        .string();
  std::filesystem::remove_all(dir);
  DatabaseOptions opts;
  opts.data_dir = dir;
  {
    Database db(opts);
    ASSERT_TRUE(db.CreateTable("alpha", EngineKind::kMem).ok());
    ASSERT_TRUE(db.CreateTable("beta", EngineKind::kStor, 512).ok());
  }
  {
    Database db(opts);
    auto alpha = db.GetTable("alpha");
    auto beta = db.GetTable("beta");
    ASSERT_TRUE(alpha.ok());
    ASSERT_TRUE(beta.ok());
    EXPECT_EQ(alpha->home, EngineKind::kMem);
    EXPECT_EQ(beta->home, EngineKind::kStor);
  }
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, ValueSizeLimitEnforcedByStorEngine) {
  Database db{DatabaseOptions{}};
  auto s = *db.CreateTable("s", EngineKind::kStor, /*max_value_size=*/64);
  auto txn = db.Begin();
  std::string big(65, 'x');
  Status st = txn->Put(s, MakeKey(1), big);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::string ok_value(64, 'x');
  EXPECT_TRUE(txn->Put(s, MakeKey(1), ok_value).ok());
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(DatabaseTest, ReadCommittedCrossEngineRefresh) {
  Database db{DatabaseOptions{}};
  auto m = *db.CreateTable("m", EngineKind::kMem);
  auto s = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(m, MakeKey(1), "m1").ok());
    ASSERT_TRUE(init->Put(s, MakeKey(1), "s1").ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  auto rc = db.Begin(IsolationLevel::kReadCommitted);
  std::string v;
  ASSERT_TRUE(rc->Get(m, MakeKey(1), &v).ok());
  ASSERT_TRUE(rc->Get(s, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s1");
  {
    auto w = db.Begin();
    ASSERT_TRUE(w->Put(m, MakeKey(1), "m2").ok());
    ASSERT_TRUE(w->Put(s, MakeKey(1), "s2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  // Read committed: both engines refresh per access.
  ASSERT_TRUE(rc->Get(m, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "m2");
  ASSERT_TRUE(rc->Get(s, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "s2");
}

TEST(DatabaseTest, SnapshotTransactionsDoNotRefresh) {
  Database db{DatabaseOptions{}};
  auto s = *db.CreateTable("s", EngineKind::kStor);
  {
    auto init = db.Begin();
    ASSERT_TRUE(init->Put(s, MakeKey(1), "v1").ok());
    ASSERT_TRUE(init->Commit().ok());
  }
  auto si = db.Begin(IsolationLevel::kSnapshot);
  std::string v;
  ASSERT_TRUE(si->Get(s, MakeKey(1), &v).ok());
  {
    auto w = db.Begin();
    ASSERT_TRUE(w->Put(s, MakeKey(1), "v2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  ASSERT_TRUE(si->Get(s, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v1");
}

TEST(DatabaseTest, ManySequentialCrossTransactions) {
  Database db{DatabaseOptions{}};
  auto m = *db.CreateTable("m", EngineKind::kMem);
  auto s = *db.CreateTable("s", EngineKind::kStor);
  for (int i = 0; i < 500; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(m, MakeKey(i % 10), std::to_string(i)).ok());
    ASSERT_TRUE(txn->Put(s, MakeKey(i % 10), std::to_string(i)).ok());
    ASSERT_TRUE(txn->Commit().ok()) << "iteration " << i;
  }
  auto r = db.Begin();
  std::string mv, sv;
  ASSERT_TRUE(r->Get(m, MakeKey(9), &mv).ok());
  ASSERT_TRUE(r->Get(s, MakeKey(9), &sv).ok());
  EXPECT_EQ(mv, sv);
  EXPECT_EQ(mv, "499");
}

TEST(DatabaseTest, MemGcPrunesDuringCrossWorkload) {
  DatabaseOptions opts;
  opts.mem.gc_interval = 8;
  Database db(opts);
  auto m = *db.CreateTable("m", EngineKind::kMem);
  for (int i = 0; i < 500; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Put(m, MakeKey(1), std::to_string(i)).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_GT(db.mem()->stats().versions_pruned, 100u);
}

// The engine contract (EngineIface, paper Section 4.9), driven through the
// interface alone the way Transaction drives it. One body runs on each
// engine.
class EngineContractTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineContractTest, SnapshotsFloorsAndCommitOrder) {
  DatabaseOptions opts;
  // Advance memdb's GC floor and stordb's purge floor on every commit.
  opts.mem.gc_interval = 1;
  opts.stor.purge_interval = 1;
  Database db(opts);
  const TableId table = db.CreateTable("t", GetParam())->local_id;
  EngineIface* engine = db.engine(GetParam());
  ASSERT_EQ(engine->kind(), GetParam());
  const IsolationLevel iso = IsolationLevel::kSnapshot;

  // Commits one write of `value` to key 1; checks the read-only flag
  // around the Put and the commit-order value PreCommit exposes.
  auto commit_put = [&](const std::string& value) {
    std::unique_ptr<SubTxn> sub = engine->Begin(iso, kMaxTimestamp);
    ASSERT_NE(sub, nullptr);
    EXPECT_TRUE(engine->IsReadOnly(sub.get()));
    ASSERT_TRUE(engine->Put(sub.get(), table, MakeKey(1), value).ok());
    EXPECT_FALSE(engine->IsReadOnly(sub.get()));
    Timestamp cts = kInvalidTimestamp;
    ASSERT_TRUE(engine->PreCommit(sub.get(), &cts).ok());
    engine->PostCommit(sub.get(), db.NextGtid(), /*cross_engine=*/false);
    EXPECT_EQ(engine->LatestSnapshot(), cts)
        << "the pre-commit value is the engine's latest snapshot";
  };

  commit_put("v1");
  const Timestamp stale = engine->LatestSnapshot();
  for (int i = 2; i <= 4; ++i) commit_put("v" + std::to_string(i));

  // kMaxTimestamp begins at the latest commit.
  std::unique_ptr<SubTxn> reader = engine->Begin(iso, kMaxTimestamp);
  ASSERT_NE(reader, nullptr);
  std::string v;
  ASSERT_TRUE(engine->Get(reader.get(), table, MakeKey(1), &v).ok());
  EXPECT_EQ(v, "v4");

  // Nothing held the floor at `stale` while the later commits advanced
  // it, so the engine refuses that snapshot both at Begin and at a
  // read-committed refresh.
  EXPECT_EQ(engine->Begin(iso, stale), nullptr);
  EXPECT_TRUE(engine->RefreshSnapshot(reader.get(), stale).IsSkeenaAbort());
  engine->Abort(reader.get());
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, EngineContractTest,
    ::testing::Values(EngineKind::kMem, EngineKind::kStor),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return info.param == EngineKind::kMem ? "Mem" : "Stor";
    });

}  // namespace
}  // namespace skeena
