// Replication lag and replica read throughput (docs/REPLICATION.md).
//
// Each cell stands up a live primary -> replica pair over localhost: the
// shipper streams both WALs plus the CSR journal, the applier replays them
// and publishes the visibility gate. Primary writers commit cross-engine
// transactions at a fixed offered rate, stamping each row with the
// steady-clock nanosecond of the write; replica readers spin snapshot
// transactions that read the stamped rows back. Every replica read yields
// one commit-to-visible lag sample: (read time) - (stamp in the newest
// visible version). The sample over-counts by at most one write interval
// (the stamp predates its commit by the commit latency), which at the
// offered rates here is noise against the shipping + watermark delay
// being measured.
//
// Rows are the primary's offered cross-engine write rate
// (SKEENA_BENCH_REPL_RATES, default "500,2000"); columns are replica
// reader counts (SKEENA_BENCH_CONNS). Matrices: lag p50/p99 (ms), replica
// read throughput (reads/s), achieved primary write rate (txn/s) — all in
// BENCH_repl_lag.json via the emitter.

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/common/bench_harness.h"
#include "common/env.h"
#include "repl/applier.h"
#include "repl/shipper.h"

namespace skeena::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWriters = 2;
constexpr uint64_t kKeys = 16;

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  std::istringstream in(csv);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoi(tok));
  }
  return out;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

RunResult RunCell(int write_rate, int readers, uint64_t duration_ms) {
  repl::CsrInstallJournal journal;
  DatabaseOptions popts;
  popts.csr.install_observer = journal.Observer();
  Database primary(popts);
  auto p_mem = *primary.CreateTable("mem_t", EngineKind::kMem);
  auto p_stor = *primary.CreateTable("stor_t", EngineKind::kStor);

  DatabaseOptions ropts;
  ropts.replica = true;
  Database replica_db(ropts);
  auto r_mem = *replica_db.CreateTable("mem_t", EngineKind::kMem);
  auto r_stor = *replica_db.CreateTable("stor_t", EngineKind::kStor);

  RunResult result;
  repl::Shipper shipper(&primary, &journal);
  if (!shipper.Start().ok()) return result;
  repl::Replica::Options aopts;
  aopts.port = shipper.port();
  repl::Replica replica(&replica_db, aopts);
  if (!replica.Start().ok()) {
    shipper.Stop();
    return result;
  }

  // Seed every key so readers always find a stamped row, and wait for the
  // replica's gate to open before the timed window starts.
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto txn = primary.Begin(IsolationLevel::kSnapshot);
    std::string v = std::to_string(NowNs());
    if (!txn->Put(p_mem, MakeKey(k), v).ok() ||
        !txn->Put(p_stor, MakeKey(k), v).ok() || !txn->Commit().ok()) {
      txn->Abort();
    }
  }
  replica.WaitCaughtUp(primary.engine(EngineKind::kMem)->CurrentLsn(),
                       primary.engine(EngineKind::kStor)->CurrentLsn(),
                       journal.size(), std::chrono::milliseconds(5000));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> reads{0};

  // Paced primary writers: cross-engine commits stamped with "now".
  std::vector<std::thread> writers;
  auto start = Clock::now();
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const double per_thread =
          static_cast<double>(write_rate) / kWriters;
      const auto interval = std::chrono::nanoseconds(
          per_thread <= 0 ? 1 : static_cast<uint64_t>(1e9 / per_thread));
      auto due = start;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_until(due);
        due += interval;
        uint64_t k = (static_cast<uint64_t>(w) + i++ * kWriters) % kKeys;
        auto txn = primary.Begin(IsolationLevel::kSnapshot);
        std::string v = std::to_string(NowNs());
        if (txn->Put(p_mem, MakeKey(k), v).ok() &&
            txn->Put(p_stor, MakeKey(k), v).ok() && txn->Commit().ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          txn->Abort();
        }
      }
    });
  }

  // Replica readers: every successfully parsed row is one lag sample.
  std::vector<Histogram> lag(static_cast<size_t>(readers));
  std::vector<std::thread> reader_threads;
  for (int r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      uint64_t i = 0;
      std::string v;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t k = (static_cast<uint64_t>(r) + i++) % kKeys;
        auto txn = replica_db.Begin(IsolationLevel::kSnapshot);
        bool ok = txn->Get(r_mem, MakeKey(k), &v).ok();
        if (ok) {
          uint64_t stamp = std::strtoull(v.c_str(), nullptr, 10);
          uint64_t now = NowNs();
          if (stamp != 0 && now > stamp) {
            lag[static_cast<size_t>(r)].Record(now - stamp);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (txn->Get(r_stor, MakeKey(k), &v).ok()) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (ok) {
          (void)txn->Commit();
        } else {
          txn->Abort();
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& th : writers) th.join();
  for (auto& th : reader_threads) th.join();
  auto elapsed = Clock::now() - start;

  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  result.commits = commits.load();
  result.queries = reads.load();
  for (const Histogram& h : lag) result.latency.Merge(h);

  replica.Stop();
  shipper.Stop();
  return result;
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  std::vector<int> rate_rows =
      ParseIntList(GetEnvString("SKEENA_BENCH_REPL_RATES", "500,2000"));
  std::vector<int> reader_cols = scale.connections;

  auto p50 = std::make_shared<ResultMatrix>(
      "Replication: commit-to-visible lag p50 (ms)", "Write rate");
  auto p99 = std::make_shared<ResultMatrix>(
      "Replication: commit-to-visible lag p99 (ms)", "Write rate");
  auto rps = std::make_shared<ResultMatrix>(
      "Replication: replica read throughput (reads/s)", "Write rate");
  auto wps = std::make_shared<ResultMatrix>(
      "Replication: achieved primary write rate (txn/s)", "Write rate");

  for (int rate : rate_rows) {
    for (int readers : reader_cols) {
      std::string row = std::to_string(rate) + "/s";
      std::string col = std::to_string(readers) + " readers";
      RegisterCell(
          "ReplLag/rate:" + std::to_string(rate) +
              "/readers:" + std::to_string(readers),
          [=] {
            RunResult r = RunCell(rate, readers, scale.duration_ms);
            p50->Set(row, col,
                     static_cast<double>(r.latency.Percentile(50)) / 1e6);
            p99->Set(row, col,
                     static_cast<double>(r.latency.Percentile(99)) / 1e6);
            rps->Set(row, col, r.Qps());
            wps->Set(row, col, r.Tps());
            return r;
          });
    }
  }
  ::benchmark::RunSpecifiedBenchmarks();
  p50->Print(3);
  p99->Print(3);
  rps->Print(1);
  wps->Print(1);
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
