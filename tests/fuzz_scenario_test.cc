// Adversarial scenario fuzzer: randomized seeded schedules — uniform
// mixes, abort storms, engine-skewed contention, read-committed mixes,
// buffer-pool eviction pressure, crash-during-commit — with every
// transaction recorded and every history fed through the black-box SI
// checker (core/history.h). A failing seed prints a one-line repro header
// (scenario + seed) and writes the full history dump where CI picks it up
// as an artifact (SKEENA_FUZZ_DUMP_DIR).
//
// Quick gate: fixed seeds per scenario family (tests not named Stress).
// Slow lane: SKEENA_FUZZ_SEEDS random seeds across all families
// (fuzz_scenario_stress, nightly-style).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/history.h"
#include "core/skeena.h"
#include "repl/applier.h"
#include "repl/shipper.h"
#include "support/db_fixtures.h"

namespace skeena {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ScenarioConfig {
  const char* name;
  int threads = 4;
  int txns_per_thread = 120;
  int keys = 16;
  int max_ops = 6;
  double p_stor = 0.5;    // per-op engine bias
  double p_write = 0.5;   // write vs read
  double p_delete = 0.1;  // of writes
  double p_scan = 0.1;    // of reads
  double p_abort = 0.05;  // explicit rollback before commit
  double p_rc = 0.0;      // read-committed fraction
  size_t buffer_pool_pages = 2048;
  size_t pool_shards = 8;
  int value_pad = 0;  // inflate values (page churn)
  DeviceLatency data_latency = DeviceLatency::Tmpfs();
};

ScenarioConfig UniformMix() { return ScenarioConfig{"uniform_mix"}; }

ScenarioConfig AbortStorm() {
  ScenarioConfig c{"abort_storm"};
  c.threads = 6;
  c.keys = 4;  // heavy write-write contention
  c.p_write = 0.7;
  c.p_abort = 0.3;
  return c;
}

ScenarioConfig EngineSkew(bool stor_heavy) {
  ScenarioConfig c{stor_heavy ? "engine_skew_stor" : "engine_skew_mem"};
  c.p_stor = stor_heavy ? 0.9 : 0.1;
  c.keys = 8;
  return c;
}

ScenarioConfig ReadCommittedMix() {
  ScenarioConfig c{"read_committed_mix"};
  c.p_rc = 0.5;
  c.keys = 8;
  return c;
}

ScenarioConfig EvictionPressure() {
  ScenarioConfig c{"eviction_pressure"};
  c.p_stor = 0.95;
  c.p_write = 0.6;
  // Slots are allocated densely in write order (~54 rows/page at
  // max_value_size 256), so ~1.5k distinct written keys span ~30 pages;
  // an 8-frame pool keeps every shard far below the working set.
  c.keys = 4096;
  c.buffer_pool_pages = 8;
  c.pool_shards = 2;
  c.value_pad = 200;
  c.threads = 8;
  c.txns_per_thread = 300;
  // Slow-device table-space latency (10x the paper's SSD write cost)
  // widens the dirty write-back window as far as is plausible, giving
  // refetch-during-writeback (the flush-wait path) its best chance.
  c.data_latency = DeviceLatency{.read_ns = 80'000, .write_ns = 200'000,
                                 .sync_ns = 100'000};
  return c;
}

void WriteFailureDump(const char* scenario, uint64_t seed,
                      const std::vector<TxnHistory>& history,
                      const SiReport& report) {
  const char* env = std::getenv("SKEENA_FUZZ_DUMP_DIR");
  std::filesystem::path dir =
      env != nullptr && env[0] != '\0'
          ? std::filesystem::path(env)
          : std::filesystem::temp_directory_path() / "skeena_fuzz_dumps";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::filesystem::path file =
      dir / ("fuzz_" + std::string(scenario) + "_seed" +
             std::to_string(seed) + ".txt");
  std::ofstream out(file);
  out << "FUZZ FAILURE scenario=" << scenario << " seed=" << seed << "\n"
      << report.Summary(64) << "\n--- history ---\n"
      << DumpHistory(history);
  // The one line to grep for in CI output; the dump is the artifact.
  std::fprintf(stderr, "FUZZ FAILURE scenario=%s seed=%llu dump=%s\n",
               scenario, static_cast<unsigned long long>(seed),
               file.string().c_str());
}

struct PoolNumbers {
  uint64_t fetches = 0;
  uint64_t misses = 0;
  uint64_t flush_waits = 0;
  uint64_t write_backs = 0;
};

/// Runs one seeded scenario and checks the recorded history. Returns the
/// checker's report (already dumped on failure).
SiReport RunScenario(const ScenarioConfig& cfg, uint64_t seed,
                     PoolNumbers* pool_out = nullptr) {
  DatabaseOptions opts = test::FastOptions();
  opts.record_history = true;
  opts.stor.buffer_pool_pages = cfg.buffer_pool_pages;
  opts.stor.pool_shards = cfg.pool_shards;
  opts.stor.data_latency = cfg.data_latency;
  Database db(opts);
  auto mem_t = *db.CreateTable("m", EngineKind::kMem);
  auto stor_t = *db.CreateTable("s", EngineKind::kStor);

  std::mutex err_mu;
  std::vector<std::string> errors;
  auto fail = [&](std::string msg) {
    std::lock_guard<std::mutex> lk(err_mu);
    errors.push_back(std::move(msg));
  };

  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(SplitMix64(seed) ^ SplitMix64(t + 1));
      std::uniform_real_distribution<double> uni(0.0, 1.0);
      auto chance = [&](double p) { return uni(rng) < p; };
      for (int i = 0; i < cfg.txns_per_thread; ++i) {
        auto txn = db.Begin(chance(cfg.p_rc) ? IsolationLevel::kReadCommitted
                                             : IsolationLevel::kSnapshot);
        int nops = 1 + static_cast<int>(rng() % cfg.max_ops);
        bool dead = false;
        for (int op = 0; op < nops && !dead; ++op) {
          const TableHandle& tbl = chance(cfg.p_stor) ? stor_t : mem_t;
          Key key = MakeKey(rng() % cfg.keys);
          Status s;
          if (chance(cfg.p_write)) {
            if (chance(cfg.p_delete)) {
              s = txn->Delete(tbl, key);
              if (s.IsNotFound()) s = Status::OK();  // nothing to delete
            } else {
              std::string v = "v" + std::to_string(seed) + "." +
                              std::to_string(t) + "." + std::to_string(i) +
                              "." + std::to_string(op);
              v.append(static_cast<size_t>(cfg.value_pad), 'x');
              s = txn->Put(tbl, key, v);
            }
          } else if (chance(cfg.p_scan)) {
            s = txn->Scan(tbl, MakeKey(rng() % cfg.keys), 4,
                          [](const Key&, const std::string&) {
                            return true;
                          });
          } else {
            std::string v;
            s = txn->Get(tbl, key, &v);
            if (s.IsNotFound()) s = Status::OK();
          }
          if (!s.ok()) {
            // kBusy is transient capacity pushback (all frames of a tiny
            // buffer pool pinned mid-I/O, insert races); a real client
            // aborts and retries, so the scenario does the same.
            if (!s.IsAnyAbort() && s.code() != StatusCode::kBusy) {
              fail("unexpected op status: " + s.ToString());
            }
            dead = true;  // engine aborted the transaction under us
          }
        }
        if (dead) {
          txn->Abort();  // idempotent
          continue;
        }
        if (chance(cfg.p_abort)) {
          txn->Abort();
          continue;
        }
        Status c = txn->Commit();
        if (!c.ok() && !c.IsAnyAbort() && c.code() != StatusCode::kBusy) {
          fail("unexpected commit status: " + c.ToString());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& e : errors) ADD_FAILURE() << cfg.name << ": " << e;

  if (pool_out != nullptr) {
    auto* pool = db.stor()->engine()->pool();
    pool_out->fetches = pool->hits() + pool->misses();
    pool_out->misses = pool->misses();
    pool_out->flush_waits = pool->flush_waits();
    pool_out->write_backs = pool->write_backs();
  }

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
  if (!report.ok()) WriteFailureDump(cfg.name, seed, history, report);
  return report;
}

// ------------------------------------------------ crash-during-commit

/// File-backed run: a concurrent workload phase, then a few cross-engine
/// commits "crashed" between their two post-commits (the recovery_test
/// idiom, driven through the real CSR gate), then reopen + Recover + a
/// full scan audited against the recorded history.
SiReport RunCrashScenario(uint64_t seed) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("skeena_fuzz_crash_" + std::to_string(seed)))
          .string();
  std::filesystem::remove_all(dir);

  std::vector<TxnHistory> history;
  SiCheckOptions check;
  {
    DatabaseOptions opts;
    opts.data_dir = dir;
    opts.record_history = true;
    Database db(opts);
    auto mem_t = *db.CreateTable("m", EngineKind::kMem);
    auto stor_t = *db.CreateTable("s", EngineKind::kStor);

    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([&, t] {
        std::mt19937_64 rng(SplitMix64(seed) ^ SplitMix64(100 + t));
        for (int i = 0; i < 40; ++i) {
          auto txn = db.Begin();
          Key key = MakeKey(rng() % 12);
          std::string v = "c" + std::to_string(seed) + "." +
                          std::to_string(t) + "." + std::to_string(i);
          bool cross = (rng() & 1) != 0;
          Status s = txn->Put((rng() & 2) != 0 ? stor_t : mem_t, key, v);
          if (s.ok() && cross) {
            s = txn->Put((rng() & 2) != 0 ? mem_t : stor_t, key, v);
          }
          if (s.ok()) (void)txn->Commit();
        }
      });
    }
    for (auto& w : workers) w.join();
    history = db.recorder()->Fold();

    // Torn commits on dedicated keys: pre-commit both, pass the real
    // commit gate, then "crash" after post-committing only a subset of
    // the engines. Commit-end reaches a log only for post-committed
    // sides, so recovery must keep the transaction iff BOTH made it.
    std::mt19937_64 rng(SplitMix64(seed) ^ 0xdeadull);
    EngineIface* mem = db.engine(0);
    EngineIface* stor = db.engine(1);
    for (int j = 0; j < 4; ++j) {
      uint64_t k = 100 + static_cast<uint64_t>(j);
      GlobalTxnId gtid = db.NextGtid();
      Timestamp mem_begin = mem->LatestSnapshot();
      Timestamp stor_begin = stor->LatestSnapshot();
      auto t_mem = mem->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
      auto t_stor = stor->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
      std::string mv = "torn-m" + std::to_string(seed) + "." +
                       std::to_string(j);
      std::string sv = "torn-s" + std::to_string(seed) + "." +
                       std::to_string(j);
      if (!mem->Put(t_mem.get(), mem_t.local_id, MakeKey(k), mv).ok() ||
          !stor->Put(t_stor.get(), stor_t.local_id, MakeKey(k), sv).ok()) {
        mem->Abort(t_mem.get());
        stor->Abort(t_stor.get());
        continue;
      }
      Timestamp ca = 0, co = 0;
      if (!mem->PreCommit(t_mem.get(), gtid, true, &ca).ok() ||
          !stor->PreCommit(t_stor.get(), gtid, true, &co).ok()) {
        mem->Abort(t_mem.get());
        stor->Abort(t_stor.get());
        continue;
      }
      TxnHistory w;
      w.gtid = gtid;
      w.session = 90000 + static_cast<uint64_t>(j);
      w.seq = 1;
      w.anchor_snap = mem_begin;
      w.used[0] = w.used[1] = w.wrote[0] = w.wrote[1] = true;
      w.begin[0] = mem_begin;
      w.begin[1] = stor_begin;
      HistOp pm;
      pm.kind = HistOpKind::kPut;
      pm.engine = 0;
      pm.table = mem_t.local_id;
      pm.key = MakeKey(k);
      pm.value = mv;
      pm.snapshot = mem_begin;
      HistOp ps = pm;
      ps.engine = 1;
      ps.table = stor_t.local_id;
      ps.value = sv;
      ps.snapshot = stor_begin;
      w.ops.push_back(pm);
      w.ops.push_back(ps);
      if (db.csr().CommitCheck(ca, co, true, true).ok()) {
        int variant = 1 + static_cast<int>(rng() % 3);  // mem / stor / both
        if ((variant & 1) != 0) {
          mem->PostCommit(t_mem.get(), gtid, true);
          w.post_committed[0] = true;
        } else {
          mem->Abort(t_mem.get());
        }
        if ((variant & 2) != 0) {
          stor->PostCommit(t_stor.get(), gtid, true);
          w.post_committed[1] = true;
        } else {
          stor->Abort(t_stor.get());
        }
        mem->FlushLog();
        stor->FlushLog();
        w.outcome = TxnHistory::Outcome::kUnacked;
        w.commit[0] = ca;
        w.commit[1] = co;
      } else {
        mem->Abort(t_mem.get());
        stor->Abort(t_stor.get());
        w.outcome = TxnHistory::Outcome::kAborted;
      }
      history.push_back(std::move(w));
    }

    check.anchor_index = db.anchor_index();
    check.have_csr_dump = true;
    Timestamp floor = 0;
    for (const auto& m : db.csr().DumpMappings(&floor)) {
      check.csr_mappings.push_back({m.key, m.vmin, m.vmax});
    }
    check.csr_floor = floor;
  }  // "crash": close the database

  SiReport report;
  {
    DatabaseOptions opts;
    opts.data_dir = dir;
    Database db(opts);
    Status rec = db.Recover();
    if (!rec.ok()) {
      ADD_FAILURE() << "recovery failed for seed " << seed << ": "
                    << rec.ToString();
      std::filesystem::remove_all(dir);
      return report;
    }
    auto mem_t = *db.GetTable("m");
    auto stor_t = *db.GetTable("s");
    FinalStateRows rows[kNumEngines];
    auto reader = db.Begin();
    for (int e = 0; e < kNumEngines; ++e) {
      const TableHandle& tbl = e == 0 ? mem_t : stor_t;
      Status s = reader->Scan(tbl, MakeKey(0), 0,
                              [&](const Key& k, const std::string& v) {
                                rows[e][{tbl.local_id, k}] = v;
                                return true;
                              });
      if (!s.ok()) ADD_FAILURE() << "post-recovery scan: " << s.ToString();
    }
    report = CheckSnapshotIsolation(history, check);
    SiReport audit = CheckRecoveredState(history, rows, check);
    report.violations.insert(report.violations.end(),
                             audit.violations.begin(),
                             audit.violations.end());
    if (!report.ok()) {
      WriteFailureDump("crash_during_commit", seed, history, report);
    }
  }
  std::filesystem::remove_all(dir);
  return report;
}

// ------------------------------------------------- replication chaos

/// Primary + live replica with a chaos schedule severing the replication
/// channel mid-stream: hard kills (KillChannel) and mid-frame TCP cuts
/// (TestOnlyCutAfterBytes) land between log segments and CSR installs at
/// random. Replica readers run throughout. The audit is three-fold:
/// byte-identical scans after catch-up, a CheckRecoveredState-style
/// final-state audit of the REPLICA's rows against the primary's writer
/// history, and the merged history through the SI checker in replica mode
/// with the replica's replayed CSR dump.
SiReport RunReplicationChaosScenario(uint64_t seed) {
  constexpr uint64_t kSessionFloor = 1'000'000;
  constexpr GlobalTxnId kGtidOffset = 1'000'000'000;

  repl::CsrInstallJournal journal;
  DatabaseOptions popts = test::FastOptions();
  popts.record_history = true;
  popts.csr.install_observer = journal.Observer();
  Database primary(popts);
  auto p_mem = *primary.CreateTable("m", EngineKind::kMem);
  auto p_stor = *primary.CreateTable("s", EngineKind::kStor);

  DatabaseOptions ropts = test::FastOptions();
  ropts.replica = true;
  ropts.record_history = true;
  Database replica_db(ropts);
  auto r_mem = *replica_db.CreateTable("m", EngineKind::kMem);
  auto r_stor = *replica_db.CreateTable("s", EngineKind::kStor);

  repl::Shipper shipper(&primary, &journal);
  SiReport report;
  if (Status s = shipper.Start(); !s.ok()) {
    ADD_FAILURE() << "shipper start: " << s.ToString();
    return report;
  }
  repl::Replica::Options aopts;
  aopts.port = shipper.port();
  repl::Replica replica(&replica_db, aopts);
  if (Status s = replica.Start(); !s.ok()) {
    ADD_FAILURE() << "replica start: " << s.ToString();
    shipper.Stop();
    return report;
  }

  std::atomic<bool> readers_stop{false};
  std::vector<std::thread> workers;
  // Primary writers: random single-engine and cross-engine commits over a
  // small key space so the stream carries all record/group shapes.
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(SplitMix64(seed) ^ SplitMix64(500 + t));
      for (int i = 0; i < 100; ++i) {
        auto txn = primary.Begin(IsolationLevel::kSnapshot);
        int nops = 1 + static_cast<int>(rng() % 4);
        bool dead = false;
        for (int op = 0; op < nops && !dead; ++op) {
          const TableHandle& tbl = (rng() & 1) != 0 ? p_stor : p_mem;
          Key key = MakeKey(rng() % 12);
          Status s;
          if (rng() % 10 == 0) {
            s = txn->Delete(tbl, key);
            if (s.IsNotFound()) s = Status::OK();
          } else {
            s = txn->Put(tbl, key,
                         "r" + std::to_string(seed) + "." + std::to_string(t) +
                             "." + std::to_string(i) + "." +
                             std::to_string(op));
          }
          if (!s.ok()) dead = true;
        }
        if (dead) {
          txn->Abort();
          continue;
        }
        (void)txn->Commit();  // CSR aborts are a legal outcome
      }
    });
  }
  // Replica readers: snapshot reads from both engines through the gate,
  // recorded for the replica-mode SI check.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(SplitMix64(seed) ^ SplitMix64(900 + r));
      std::string v;
      while (!readers_stop.load(std::memory_order_acquire)) {
        auto txn = replica_db.Begin(IsolationLevel::kSnapshot);
        Key key = MakeKey(rng() % 12);
        Status s1 = txn->Get(r_mem, key, &v);
        Status s2 = txn->Get(r_stor, key, &v);
        if ((s1.ok() || s1.IsNotFound()) && (s2.ok() || s2.IsNotFound())) {
          (void)txn->Commit();
        } else {
          txn->Abort();
        }
      }
    });
  }
  // Chaos: sever the channel a few times while the stream is hot — hard
  // kills and mid-frame cuts, at seed-derived instants.
  std::thread chaos([&] {
    std::mt19937_64 rng(SplitMix64(seed) ^ 0xc4a05ull);
    int disruptions = 3 + static_cast<int>(rng() % 3);
    for (int i = 0; i < disruptions; ++i) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(3 + rng() % 20));
      if ((rng() & 1) != 0) {
        replica.KillChannel();
      } else {
        shipper.TestOnlyCutAfterBytes(rng() % 2000);
      }
    }
  });
  for (auto& w : workers) w.join();
  chaos.join();

  // Quiesced: the replica must reach the primary's exact stream positions
  // through however many resumed sessions the chaos forced.
  Lsn mem_lsn = primary.engine(EngineKind::kMem)->CurrentLsn();
  Lsn stor_lsn = primary.engine(EngineKind::kStor)->CurrentLsn();
  bool caught_up = replica.WaitCaughtUp(mem_lsn, stor_lsn, journal.size(),
                                        std::chrono::milliseconds(15'000));
  readers_stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  if (!caught_up) {
    ADD_FAILURE() << "replication_chaos seed=" << seed
                  << ": replica failed to catch up after channel chaos";
    replica.Stop();
    shipper.Stop();
    return report;
  }

  // Scan both sides; byte-identical is the resume correctness bar.
  FinalStateRows replica_rows[kNumEngines];
  for (int side = 0; side < 2; ++side) {
    Database& db = side == 0 ? primary : replica_db;
    FinalStateRows rows[kNumEngines];
    auto reader = db.Begin(IsolationLevel::kSnapshot);
    for (int e = 0; e < kNumEngines; ++e) {
      const TableHandle& tbl = side == 0 ? (e == 0 ? p_mem : p_stor)
                                         : (e == 0 ? r_mem : r_stor);
      Status s = reader->Scan(tbl, MakeKey(0), 0,
                              [&](const Key& k, const std::string& v) {
                                rows[e][{tbl.local_id, k}] = v;
                                return true;
                              });
      if (!s.ok()) ADD_FAILURE() << "final scan: " << s.ToString();
    }
    (void)reader->Commit();
    if (side == 0) {
      for (int e = 0; e < kNumEngines; ++e) {
        replica_rows[e] = std::move(rows[e]);  // reused below for primary
      }
    } else {
      for (int e = 0; e < kNumEngines; ++e) {
        if (rows[e] != replica_rows[e]) {
          ADD_FAILURE() << "replication_chaos seed=" << seed << ": engine "
                        << e << " replica state diverged from primary ("
                        << rows[e].size() << " vs " << replica_rows[e].size()
                        << " rows)";
        }
        replica_rows[e] = std::move(rows[e]);
      }
    }
  }

  // Merge the two folds (replica ids shifted above every primary id).
  std::vector<TxnHistory> history = primary.recorder()->Fold();
  for (TxnHistory& t : replica_db.recorder()->Fold()) {
    t.session += kSessionFloor;
    t.gtid += kGtidOffset;
    history.push_back(std::move(t));
  }
  std::stable_sort(history.begin(), history.end(),
                   [](const TxnHistory& a, const TxnHistory& b) {
                     return a.session != b.session ? a.session < b.session
                                                   : a.seq < b.seq;
                   });

  SiCheckOptions check;
  check.anchor_index = primary.anchor_index();
  check.have_csr_dump = true;
  Timestamp floor = 0;
  for (const auto& m : replica_db.csr().DumpMappings(&floor)) {
    check.csr_mappings.push_back({m.key, m.vmin, m.vmax});
  }
  check.csr_floor = floor;
  check.replica_session_floor = kSessionFloor;
  report = CheckSnapshotIsolation(history, check);
  // Recovered-state-style audit: the replica's final rows must be exactly
  // producible by the primary's acknowledged writer history.
  SiReport audit = CheckRecoveredState(history, replica_rows, check);
  report.violations.insert(report.violations.end(), audit.violations.begin(),
                           audit.violations.end());
  if (!report.ok()) {
    WriteFailureDump("replication_chaos", seed, history, report);
  }
  replica.Stop();
  shipper.Stop();
  return report;
}

// ------------------------------------------------------------ quick gate

void ExpectClean(const ScenarioConfig& cfg, uint64_t seed) {
  SiReport r = RunScenario(cfg, seed);
  EXPECT_TRUE(r.ok()) << cfg.name << " seed=" << seed << "\n" << r.Summary();
  EXPECT_GT(r.txns, 0u);
}

constexpr uint64_t kQuickSeeds[] = {0xA11CE, 0xB0B, 0xC0FFEE, 0xD1CE};

TEST(FuzzScenarioTest, UniformMixFixedSeeds) {
  for (uint64_t s : kQuickSeeds) ExpectClean(UniformMix(), s);
}

TEST(FuzzScenarioTest, AbortStormFixedSeeds) {
  for (uint64_t s : kQuickSeeds) ExpectClean(AbortStorm(), s);
}

TEST(FuzzScenarioTest, EngineSkewFixedSeeds) {
  for (uint64_t s : kQuickSeeds) {
    ExpectClean(EngineSkew(true), s);
    ExpectClean(EngineSkew(false), s);
  }
}

TEST(FuzzScenarioTest, ReadCommittedMixFixedSeeds) {
  for (uint64_t s : kQuickSeeds) ExpectClean(ReadCommittedMix(), s);
}

TEST(FuzzScenarioTest, EvictionPressureFixedSeeds) {
  uint64_t total_fetches = 0, total_waits = 0, total_wb = 0;
  for (uint64_t s : kQuickSeeds) {
    PoolNumbers pool;
    SiReport r = RunScenario(EvictionPressure(), s, &pool);
    EXPECT_TRUE(r.ok()) << "eviction_pressure seed=" << s << "\n"
                        << r.Summary();
    total_fetches += pool.fetches;
    total_waits += pool.flush_waits;
    total_wb += pool.write_backs;
    std::fprintf(stderr, "  seed=%llu fetches=%llu misses=%llu wb=%llu\n",
                 (unsigned long long)s, (unsigned long long)pool.fetches,
                 (unsigned long long)pool.misses,
                 (unsigned long long)pool.write_backs);
  }
  // The scenario must actually churn dirty pages through eviction, or the
  // flush-wait number below is vacuously zero.
  EXPECT_GT(total_wb, 0u);
  // Satellite measurement for the flush-wait thundering-herd question
  // (see DESIGN.md "Buffer pool"): waits per 10k fetches under forced
  // eviction churn.
  double per_10k = total_fetches == 0
                       ? 0.0
                       : 1e4 * static_cast<double>(total_waits) /
                             static_cast<double>(total_fetches);
  ::testing::Test::RecordProperty("flush_waits_per_10k_fetches",
                                  std::to_string(per_10k));
  std::fprintf(stderr,
               "eviction_pressure: %llu fetches, %llu dirty write-backs, "
               "%llu flush waits (%.2f per 10k fetches)\n",
               static_cast<unsigned long long>(total_fetches),
               static_cast<unsigned long long>(total_wb),
               static_cast<unsigned long long>(total_waits), per_10k);
}

TEST(FuzzScenarioTest, CrashDuringCommitFixedSeeds) {
  for (uint64_t s : kQuickSeeds) {
    SiReport r = RunCrashScenario(s);
    EXPECT_TRUE(r.ok()) << "crash_during_commit seed=" << s << "\n"
                        << r.Summary();
  }
}

TEST(FuzzScenarioTest, ReplicationChaosFixedSeeds) {
  for (uint64_t s : kQuickSeeds) {
    SiReport r = RunReplicationChaosScenario(s);
    EXPECT_TRUE(r.ok()) << "replication_chaos seed=" << s << "\n"
                        << r.Summary();
  }
}

// -------------------------------------------------------- slow stress lane

TEST(FuzzScenarioStress, RandomSeedsAllFamilies) {
  int n = 16;
  if (const char* env = std::getenv("SKEENA_FUZZ_SEEDS")) {
    n = std::max(1, std::atoi(env));
  }
  std::random_device rd;
  for (int i = 0; i < n; ++i) {
    uint64_t seed = (static_cast<uint64_t>(rd()) << 32) ^ rd();
    std::fprintf(stderr, "fuzz stress round %d/%d seed=%llu\n", i + 1, n,
                 static_cast<unsigned long long>(seed));
    ExpectClean(UniformMix(), seed);
    ExpectClean(AbortStorm(), seed);
    ExpectClean(EngineSkew(true), seed);
    ExpectClean(EngineSkew(false), seed);
    ExpectClean(ReadCommittedMix(), seed);
    ExpectClean(EvictionPressure(), seed);
    SiReport r = RunCrashScenario(seed);
    EXPECT_TRUE(r.ok()) << "crash_during_commit seed=" << seed << "\n"
                        << r.Summary();
    r = RunReplicationChaosScenario(seed);
    EXPECT_TRUE(r.ok()) << "replication_chaos seed=" << seed << "\n"
                        << r.Summary();
    if (::testing::Test::HasFailure()) break;  // keep the failing seed hot
  }
}

}  // namespace
}  // namespace skeena
