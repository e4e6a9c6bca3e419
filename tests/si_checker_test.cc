// The checker checked: synthetic known-bad histories must be flagged, the
// recorder round-trips a real workload cleanly, and — the mutation test —
// weakening the Algorithm 2 commit gate must produce a real skewed
// execution the checker catches. The last one proves the oracle is not
// vacuous: if the gate's aborts were doing nothing, this suite would say
// so.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "core/history.h"
#include "core/skeena.h"
#include "support/db_fixtures.h"

namespace skeena {
namespace {

constexpr TableId kTable = 1;

TxnHistory MakeTxn(GlobalTxnId gtid, uint64_t session, uint64_t seq,
                   TxnHistory::Outcome outcome) {
  TxnHistory t;
  t.gtid = gtid;
  t.session = session;
  t.seq = seq;
  t.outcome = outcome;
  return t;
}

HistOp PutOp(int e, uint64_t key, const std::string& v, Timestamp snap) {
  HistOp op;
  op.kind = HistOpKind::kPut;
  op.engine = static_cast<uint8_t>(e);
  op.table = kTable;
  op.key = MakeKey(key);
  op.value = v;
  op.snapshot = snap;
  return op;
}

HistOp GetOp(int e, uint64_t key, const std::optional<std::string>& v,
             Timestamp snap) {
  HistOp op;
  op.kind = HistOpKind::kGet;
  op.engine = static_cast<uint8_t>(e);
  op.table = kTable;
  op.key = MakeKey(key);
  op.found = v.has_value();
  if (v) op.value = *v;
  op.snapshot = snap;
  return op;
}

/// Committed single-engine writer: key := v at commit timestamp cts, begun
/// at snapshot `snap`.
TxnHistory Writer(GlobalTxnId gtid, int e, uint64_t key,
                  const std::string& v, Timestamp snap, Timestamp cts) {
  TxnHistory t = MakeTxn(gtid, gtid, 1, TxnHistory::Outcome::kCommitted);
  t.used[e] = t.wrote[e] = true;
  t.begin[e] = snap;
  t.commit[e] = cts;
  if (e == 0) t.anchor_snap = snap;
  t.ops.push_back(PutOp(e, key, v, snap));
  return t;
}

/// Committed cross-engine writer with commit pair (ca, co).
TxnHistory CrossWriter(GlobalTxnId gtid, uint64_t key, const std::string& v,
                       Timestamp sa, Timestamp so, Timestamp ca,
                       Timestamp co) {
  TxnHistory t = MakeTxn(gtid, gtid, 1, TxnHistory::Outcome::kCommitted);
  t.anchor_snap = sa;
  for (int e = 0; e < kNumEngines; ++e) {
    t.used[e] = t.wrote[e] = true;
  }
  t.begin[0] = sa;
  t.begin[1] = so;
  t.commit[0] = ca;
  t.commit[1] = co;
  t.snap_pairs.emplace_back(sa, so);
  t.ops.push_back(PutOp(0, key, v + "-m", sa));
  t.ops.push_back(PutOp(1, key, v + "-s", so));
  return t;
}

/// Committed reader observing `v` (nullopt = absent) in engine e.
TxnHistory Reader(GlobalTxnId gtid, int e, uint64_t key,
                  const std::optional<std::string>& v, Timestamp snap) {
  TxnHistory t = MakeTxn(gtid, gtid, 1, TxnHistory::Outcome::kCommitted);
  t.used[e] = true;
  t.begin[e] = snap;
  if (e == 0) t.anchor_snap = snap;
  t.ops.push_back(GetOp(e, key, v, snap));
  return t;
}

bool Flagged(const SiReport& report, SiViolation::Kind kind) {
  for (const auto& v : report.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

SiReport Check(const std::vector<TxnHistory>& history) {
  return CheckSnapshotIsolation(history, SiCheckOptions{});
}

// ---------------------------------------------------- synthetic histories

TEST(SiCheckerTest, CleanHistoryPasses) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Writer(2, 0, 1, "b", 7, 8));
  h.push_back(Reader(3, 0, 1, "a", 6));
  h.push_back(Reader(4, 0, 1, "b", 8));
  h.push_back(Reader(5, 0, 1, std::nullopt, 3));
  SiReport r = Check(h);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.txns, 5u);
  EXPECT_EQ(r.reads, 3u);
  EXPECT_EQ(r.writes, 2u);
}

TEST(SiCheckerTest, StaleReadFlagged) {
  // Snapshot 9 covers the cts=8 version but the reader saw the cts=5 one:
  // a non-monotone snapshot.
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Writer(2, 0, 1, "b", 7, 8));
  h.push_back(Reader(3, 0, 1, "a", 9));
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kStaleRead)) << r.Summary();
}

TEST(SiCheckerTest, FutureReadFlagged) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Writer(2, 0, 1, "b", 7, 8));
  h.push_back(Reader(3, 0, 1, "b", 6));  // sees cts=8 from snapshot 6
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kFutureRead)) << r.Summary();
}

TEST(SiCheckerTest, MissedVisibleVersionFlagged) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Reader(2, 0, 1, std::nullopt, 6));  // "a" is visible
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kStaleRead)) << r.Summary();
}

TEST(SiCheckerTest, DirtyReadOfAbortedWriteFlagged) {
  std::vector<TxnHistory> h;
  TxnHistory aborted = Writer(1, 0, 1, "ghost", 4, 0);
  aborted.outcome = TxnHistory::Outcome::kAborted;
  aborted.commit[0] = 0;
  h.push_back(std::move(aborted));
  h.push_back(Reader(2, 0, 1, "ghost", 6));
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kDirtyRead)) << r.Summary();
}

TEST(SiCheckerTest, LostUpdateFlagged) {
  // T2 commits over T1's version from a snapshot that predates it:
  // first-committer-wins violated.
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Writer(2, 0, 1, "b", 3, 8));  // snap 3 < T1's cts 5
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kLostUpdate)) << r.Summary();
}

TEST(SiCheckerTest, LostUpdateExemptAtReadCommitted) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  TxnHistory rc = Writer(2, 0, 1, "b", 3, 8);
  rc.iso = IsolationLevel::kReadCommitted;
  h.push_back(std::move(rc));
  EXPECT_TRUE(Check(h).ok());
}

TEST(SiCheckerTest, ReadYourWritesFlagged) {
  std::vector<TxnHistory> h;
  TxnHistory t = MakeTxn(1, 1, 1, TxnHistory::Outcome::kCommitted);
  t.used[0] = t.wrote[0] = true;
  t.begin[0] = 4;
  t.commit[0] = 9;
  t.anchor_snap = 4;
  t.ops.push_back(PutOp(0, 1, "mine", 4));
  t.ops.push_back(GetOp(0, 1, std::string("other"), 4));
  h.push_back(std::move(t));
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kReadYourWrites)) << r.Summary();
}

TEST(SiCheckerTest, TornCrossPairFlagged) {
  // Writer committed (ca=10, co=20); a snapshot pair (10, 19) sees its
  // anchor half (inclusive visibility) but not its other half.
  std::vector<TxnHistory> h;
  h.push_back(CrossWriter(1, 1, "w", 5, 6, 10, 20));
  TxnHistory r = MakeTxn(2, 2, 1, TxnHistory::Outcome::kCommitted);
  r.anchor_snap = 10;
  r.used[0] = r.used[1] = true;
  r.begin[0] = 10;
  r.begin[1] = 19;
  r.snap_pairs.emplace_back(10, 19);
  h.push_back(std::move(r));
  SiReport rep = Check(h);
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(Flagged(rep, SiViolation::Kind::kCrossSkew)) << rep.Summary();
}

TEST(SiCheckerTest, WellNestedCrossPairsPass) {
  std::vector<TxnHistory> h;
  h.push_back(CrossWriter(1, 1, "w1", 5, 6, 10, 20));
  h.push_back(CrossWriter(2, 2, "w2", 11, 21, 14, 25));
  TxnHistory r = MakeTxn(3, 3, 1, TxnHistory::Outcome::kCommitted);
  r.anchor_snap = 12;
  r.used[0] = r.used[1] = true;
  r.begin[0] = 12;
  r.begin[1] = 22;
  r.snap_pairs.emplace_back(12, 22);  // covers w1 fully, excludes w2 fully
  h.push_back(std::move(r));
  SiReport rep = Check(h);
  EXPECT_TRUE(rep.ok()) << rep.Summary();
  EXPECT_EQ(rep.pairs, 2u);
}

TEST(SiCheckerTest, InvertedCommitPairsFlagged) {
  std::vector<TxnHistory> h;
  h.push_back(CrossWriter(1, 1, "w1", 5, 6, 10, 20));
  h.push_back(CrossWriter(2, 2, "w2", 5, 6, 12, 18));  // later anchor, earlier other
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kPairInversion)) << r.Summary();
}

TEST(SiCheckerTest, CsrContainmentFlagged) {
  std::vector<TxnHistory> h;
  h.push_back(CrossWriter(1, 1, "w", 5, 6, 10, 20));
  SiCheckOptions opts;
  opts.have_csr_dump = true;
  // Published mappings know nothing of the committed (10, 20) pair.
  opts.csr_mappings.push_back({8, 15, 15});
  SiReport r = CheckSnapshotIsolation(h, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kCsrMismatch)) << r.Summary();

  // With the pair inside a published interval the history is clean.
  opts.csr_mappings.push_back({10, 18, 22});
  EXPECT_TRUE(CheckSnapshotIsolation(h, opts).ok());
}

TEST(SiCheckerTest, SessionOrderFlagged) {
  std::vector<TxnHistory> h;
  TxnHistory first = Writer(1, 0, 1, "a", 4, 9);
  first.session = 7;
  first.seq = 1;
  TxnHistory second = Reader(2, 0, 1, std::nullopt, 5);  // began before 9
  second.session = 7;
  second.seq = 2;
  h.push_back(std::move(first));
  h.push_back(std::move(second));
  SiReport r = Check(h);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kSessionOrder)) << r.Summary();
}

// ------------------------------------------------------- recovery audits

TEST(SiCheckerTest, RecoveredStateCleanPasses) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Writer(2, 0, 1, "b", 6, 8));
  FinalStateRows rows[kNumEngines];
  rows[0][{kTable, MakeKey(1)}] = "b";
  EXPECT_TRUE(CheckRecoveredState(h, rows, SiCheckOptions{}).ok());
}

TEST(SiCheckerTest, AcknowledgedWriteLostFlagged) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  h.push_back(Writer(2, 0, 1, "b", 6, 8));  // acked, but "a" recovered
  FinalStateRows rows[kNumEngines];
  rows[0][{kTable, MakeKey(1)}] = "a";
  SiReport r = CheckRecoveredState(h, rows, SiCheckOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kDurabilityLost)) << r.Summary();
}

TEST(SiCheckerTest, CorruptRecoveredValueFlagged) {
  std::vector<TxnHistory> h;
  h.push_back(Writer(1, 0, 1, "a", 4, 5));
  FinalStateRows rows[kNumEngines];
  rows[0][{kTable, MakeKey(1)}] = "garbage";
  SiReport r = CheckRecoveredState(h, rows, SiCheckOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kCorruptState)) << r.Summary();
}

TEST(SiCheckerTest, TornRecoveryFlagged) {
  // Unacked cross-engine writer: its mem half survived recovery, its stor
  // half provably rolled back — all-or-nothing violated.
  std::vector<TxnHistory> h;
  TxnHistory w = CrossWriter(1, 1, "w", 5, 6, 10, 20);
  w.outcome = TxnHistory::Outcome::kUnacked;
  h.push_back(std::move(w));
  FinalStateRows rows[kNumEngines];
  rows[0][{kTable, MakeKey(1)}] = "w-m";  // survived
  // stor side: key absent -> provably not applied
  SiReport r = CheckRecoveredState(h, rows, SiCheckOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(Flagged(r, SiViolation::Kind::kTornRecovery)) << r.Summary();
}

TEST(SiCheckerTest, UnackedTxnMayVanishEntirely) {
  std::vector<TxnHistory> h;
  TxnHistory w = CrossWriter(1, 1, "w", 5, 6, 10, 20);
  w.outcome = TxnHistory::Outcome::kUnacked;
  h.push_back(std::move(w));
  FinalStateRows rows[kNumEngines];  // both halves rolled back: fine
  EXPECT_TRUE(CheckRecoveredState(h, rows, SiCheckOptions{}).ok());
}

// ----------------------------------------------- recorder round-trip

TEST(SiCheckerTest, RecorderRoundTripsRealWorkload) {
  DatabaseOptions opts = test::FastOptions();
  opts.record_history = true;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  ASSERT_NE(db.recorder(), nullptr);

  int committed = 0;
  for (int i = 0; i < 50; ++i) {
    auto txn = db.Begin();
    uint64_t k = static_cast<uint64_t>(i % 5);
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(txn->Put(mem_t, MakeKey(k), v).ok());
    ASSERT_TRUE(txn->Put(stor_t, MakeKey(k), v).ok());
    std::string got;
    ASSERT_TRUE(txn->Get(mem_t, MakeKey(k), &got).ok());
    EXPECT_EQ(got, v);
    if (txn->Commit().ok()) ++committed;
  }
  {
    auto reader = db.Begin();
    std::string got;
    ASSERT_TRUE(reader->Get(mem_t, MakeKey(0), &got).ok());
    ASSERT_TRUE(reader->Get(stor_t, MakeKey(0), &got).ok());
    ASSERT_TRUE(reader->Commit().ok());
  }

  auto history = db.recorder()->Fold();
  EXPECT_EQ(history.size(), static_cast<size_t>(51));
  SiCheckOptions check;
  check.anchor_index = db.anchor_index();
  check.have_csr_dump = true;
  Timestamp floor = 0;
  for (const auto& m : db.csr().DumpMappings(&floor)) {
    check.csr_mappings.push_back({m.key, m.vmin, m.vmax});
  }
  check.csr_floor = floor;
  SiReport report = CheckSnapshotIsolation(history, check);
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << DumpHistory(history);
  EXPECT_EQ(static_cast<int>(report.pairs), committed);
  // Folding drained the shards.
  EXPECT_EQ(db.recorder()->Size(), 0u);
}

TEST(SiCheckerTest, RecorderOffByDefault) {
  Database db(test::FastOptions());
  EXPECT_EQ(db.recorder(), nullptr);
}

// ---------------------------------------------------------- mutation test
//
// Weakens the Algorithm 2 commit gate and replays the Figure 2(b)
// interleaving the gate exists to kill:
//
//   1. R takes its anchor snapshot sa and reads mem (sees pre-W state).
//   2. W pre-commits in both engines (anchor cts ca > sa; stor ser co).
//   3. R crosses into stordb: with no usable CSR candidate its selection
//      falls back to the latest stor snapshot, which already includes co.
//      R's read then waits on W's pre-committed row.
//   4. W runs the CSR commit check. R's mapping (sa -> v >= co) at an
//      earlier anchor position makes the low bound fail: with the gate ON
//      W must abort (R then reads pre-W state — consistent). With the gate
//      weakened W commits and R observes W's stor half but not its mem
//      half: skew the checker must flag.

struct MutationResult {
  Status gate;                       // CommitCheck outcome for W
  Status stor_read;                  // R's stordb read outcome
  std::string stor_value;
  SiReport report;
};

MutationResult RunWeakenedGateSchedule(bool weaken) {
  DatabaseOptions opts = test::FastOptions();
  opts.record_history = true;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  db.csr().TestOnlyWeakenCommitGate(weaken);

  // Seed only the mem side (an anchor-only commit leaves the CSR empty, so
  // R's selection below must take the latest-snapshot fallback).
  {
    auto seed = db.Begin();
    EXPECT_TRUE(seed->Put(mem_t, MakeKey(1), "m0").ok());
    EXPECT_TRUE(seed->Commit().ok());
  }

  std::mutex mu;
  std::condition_variable cv;
  int step = 0;  // 1: R holds sa + mem read; 2: W pre-committed
  auto advance = [&](int s) {
    std::lock_guard<std::mutex> lk(mu);
    step = s;
    cv.notify_all();
  };
  auto wait_for = [&](int s) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return step >= s; });
  };

  MutationResult result;
  std::thread reader([&] {
    auto r = db.Begin(IsolationLevel::kSnapshot);
    std::string v;
    EXPECT_TRUE(r->Get(mem_t, MakeKey(1), &v).ok());
    EXPECT_EQ(v, "m0");
    advance(1);
    wait_for(2);
    // Crossing into stordb: selection + the read that parks on W's
    // pre-committed row until W's fate is decided.
    result.stor_read = r->Get(stor_t, MakeKey(1), &result.stor_value);
    r->Abort();  // outcome of R itself is not under test
  });

  wait_for(1);
  // W, driven manually so the schedule can interleave R between its
  // pre-commit and its commit check (same idiom as recovery_test).
  EngineIface* mem = db.engine(0);
  EngineIface* stor = db.engine(1);
  GlobalTxnId gtid = db.NextGtid();
  Timestamp w_mem_begin = mem->LatestSnapshot();
  Timestamp w_stor_begin = stor->LatestSnapshot();
  auto t_mem = mem->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  auto t_stor = stor->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  EXPECT_TRUE(mem->Put(t_mem.get(), mem_t.local_id, MakeKey(1), "m1").ok());
  EXPECT_TRUE(
      stor->Put(t_stor.get(), stor_t.local_id, MakeKey(1), "s1").ok());
  Timestamp ca = 0, co = 0;
  EXPECT_TRUE(mem->PreCommit(t_mem.get(), &ca).ok());
  EXPECT_TRUE(stor->PreCommit(t_stor.get(), &co).ok());
  advance(2);
  // Wait until R's crossing installed its CSR mapping (lock-free count).
  while (db.csr().EntryCount() == 0) {
    std::this_thread::yield();
  }
  result.gate = db.csr().CommitCheck(ca, co, /*anchor_engine_wrote=*/true,
                                     /*other_engine_wrote=*/true);
  TxnHistory w;
  w.gtid = gtid;
  w.session = 999;
  w.seq = 1;
  w.anchor_snap = w_mem_begin;
  w.used[0] = w.used[1] = w.wrote[0] = w.wrote[1] = true;
  w.begin[0] = w_mem_begin;
  w.begin[1] = w_stor_begin;
  HistOp p0 = PutOp(0, 1, "m1", w_mem_begin);
  HistOp p1 = PutOp(1, 1, "s1", w_stor_begin);
  p0.table = mem_t.local_id;
  p1.table = stor_t.local_id;
  w.ops.push_back(std::move(p0));
  w.ops.push_back(std::move(p1));
  if (result.gate.ok()) {
    mem->PostCommit(t_mem.get(), gtid, true);
    stor->PostCommit(t_stor.get(), gtid, true);
    w.outcome = TxnHistory::Outcome::kCommitted;
    w.commit[0] = ca;
    w.commit[1] = co;
    w.post_committed[0] = w.post_committed[1] = true;
  } else {
    mem->Abort(t_mem.get());
    stor->Abort(t_stor.get());
    w.outcome = TxnHistory::Outcome::kAborted;
  }
  db.recorder()->Record(std::make_unique<TxnHistory>(w));
  reader.join();

  auto history = db.recorder()->Fold();
  SiCheckOptions check;
  check.anchor_index = db.anchor_index();
  result.report = CheckSnapshotIsolation(history, check);
  return result;
}

TEST(SiCheckerTest, CommitGateKillsFigure2bSkew) {
  MutationResult r = RunWeakenedGateSchedule(/*weaken=*/false);
  // The gate must reject W: R's crossing registered an other-engine view
  // at an earlier anchor position that already covers W's stor commit.
  EXPECT_FALSE(r.gate.ok()) << "commit gate failed to abort the skew";
  EXPECT_TRUE(r.stor_read.IsNotFound())
      << "R must see pre-W stordb state, got " << r.stor_value;
  EXPECT_TRUE(r.report.ok()) << r.report.Summary();
}

TEST(SiCheckerTest, WeakenedCommitGateCaughtByChecker) {
  MutationResult r = RunWeakenedGateSchedule(/*weaken=*/true);
  ASSERT_TRUE(r.gate.ok()) << "weakened gate must admit the commit";
  // The skew really happened: R saw W's stor half...
  ASSERT_TRUE(r.stor_read.ok());
  EXPECT_EQ(r.stor_value, "s1");
  // ...and the checker flags it.
  ASSERT_FALSE(r.report.ok())
      << "checker missed the skew the weakened gate let through";
  EXPECT_TRUE(Flagged(r.report, SiViolation::Kind::kCrossSkew))
      << r.report.Summary();
}

// The other-only monotonicity guard, non-vacuous: a serializable
// New-Order-shaped writer T (anchor read, stordb write) keeps its anchor
// snapshot as its anchor position. A cross-engine writer W commits between
// T's anchor read and T's commit, so T's position precedes W's anchor
// commit while T's stordb commit follows W's: the gate refuses T at the
// high bound. With the gate weakened T commits, and the checker must flag
// the inverted pairs from the anchor position T's history records.
SiReport RunWeakenedGateStorWriter(bool weaken, Status* commit) {
  DatabaseOptions opts = test::FastOptions();
  opts.record_history = true;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);
  db.csr().TestOnlyWeakenCommitGate(weaken);
  {
    auto seed = db.Begin();
    EXPECT_TRUE(seed->Put(mem_t, MakeKey(1), "m0").ok());
    EXPECT_TRUE(seed->Put(stor_t, MakeKey(1), "s0").ok());
    EXPECT_TRUE(seed->Commit().ok());
  }
  auto t = db.Begin(IsolationLevel::kSerializable);
  std::string v;
  EXPECT_TRUE(t->Get(mem_t, MakeKey(1), &v).ok());
  {
    auto w = db.Begin();
    EXPECT_TRUE(w->Put(mem_t, MakeKey(2), "m-w").ok());
    EXPECT_TRUE(w->Put(stor_t, MakeKey(2), "s-w").ok());
    EXPECT_TRUE(w->Commit().ok());
  }
  EXPECT_TRUE(t->Put(stor_t, MakeKey(1), "s-t").ok());
  *commit = t->Commit();
  SiCheckOptions check;
  check.anchor_index = db.anchor_index();
  return CheckSnapshotIsolation(db.recorder()->Fold(), check);
}

TEST(SiCheckerTest, CommitGateRefusesInvertedStorWriter) {
  Status commit;
  SiReport report = RunWeakenedGateStorWriter(/*weaken=*/false, &commit);
  EXPECT_TRUE(commit.IsSkeenaAbort()) << commit.ToString();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(SiCheckerTest, WeakenedGateStorWriterInversionCaughtByChecker) {
  Status commit;
  SiReport report = RunWeakenedGateStorWriter(/*weaken=*/true, &commit);
  ASSERT_TRUE(commit.ok()) << "weakened gate must admit the commit";
  ASSERT_FALSE(report.ok())
      << "checker missed the inversion the weakened gate let through";
  EXPECT_TRUE(Flagged(report, SiViolation::Kind::kPairInversion))
      << report.Summary();
}

}  // namespace
}  // namespace skeena
