// Commit path cost (Section 4.5): the pipelined commit on the cross-engine
// microbenchmark with an SSD-like log latency so the flush cost is visible.
//
// Every commit waits on both engine logs' durable LSNs on its own thread.
// A committer leads a flush pass at the log's period floor, spinning out at
// most one period; otherwise a pass in progress covers it and one
// unpark releases every waiter the pass made durable. The wakeup matrix
// counts those kernel wakes per commit; the park matrix counts commits
// whose durable wait blocked in the kernel.

#include "bench/common/bench_harness.h"

#include <atomic>
#include <thread>

#include "log/log_manager.h"

namespace skeena::bench {
namespace {

// Kernel wakes issued to release committers so far: both logs' batched
// durable-advance unparks.
uint64_t CommitWakes(Database* db) {
  return db->mem()->Log()->stats().durable_wakes +
         db->stor()->Log()->stats().durable_wakes;
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  MicroCache cache;

  const std::string row = "pipelined commit";
  auto matrix = std::make_shared<ResultMatrix>(
      "Commit path: throughput (50% InnoDB read-write micro, SSD log)",
      "Commit");
  auto wakeups = std::make_shared<ResultMatrix>(
      "Commit path: commit wakeups (syscall wakeups / commit)", "Commit");
  auto parks = std::make_shared<ResultMatrix>(
      "Commit path: commit waits (waiter parks / commit)", "Commit");

  for (int conns : scale.connections) {
    RegisterCell(
        "AblationCommit/pipelined/conns:" + std::to_string(conns),
        [=, &cache] {
          MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
          cfg.read_pct = 80;
          cfg.stor_pct = 50;
          cfg.pool_fraction = 2.0;
          // SSD-priced log syncs: batching only shows when flushes cost
          // something.
          cfg.log_latency = DeviceLatency::Ssd();
          MicroWorkload* wl = cache.Get(cfg, true);
          // The workload is cached across cells, so per-cell wakeup
          // accounting is the delta across this run.
          CommitPipeline::Stats before = wl->db()->pipeline().stats();
          uint64_t wakes_before = CommitWakes(wl->db());
          RunResult r = RunWorkload(conns, scale.duration_ms,
                                    [wl](int t, Rng& rng, uint64_t* q) {
                                      return wl->RunOneTxn(t, rng, q);
                                    });
          CommitPipeline::Stats after = wl->db()->pipeline().stats();
          uint64_t done = after.completed - before.completed;
          uint64_t wakes = CommitWakes(wl->db()) - wakes_before;
          uint64_t parked = after.waiter_parks - before.waiter_parks;
          std::string col = std::to_string(conns);
          matrix->Set(row, col, r.Tps());
          wakeups->Set(row, col,
                       done == 0 ? 0.0
                                 : static_cast<double>(wakes) /
                                       static_cast<double>(done));
          parks->Set(row, col,
                     done == 0 ? 0.0
                               : static_cast<double>(parked) /
                                     static_cast<double>(done));
          return r;
        });
  }

  // ---- Raw-speed log path: WALs on disk --------------------------------
  // Engine logs on the segmented file device (tables stay in memory) under
  // the self-clocked group-commit flusher. Flushes per commit below 1 is
  // the batching a real fsync buys.
  auto backend_tput = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (commits/s)", "Backend");
  auto backend_p99 = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (p99 commit latency, ms)", "Backend");
  auto backend_wakes = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (syscall wakeups / commit)", "Backend");
  auto backend_flushes = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (log flushes / commit)", "Backend");

  const std::string backend = "segmented";
  const std::string col = "self-clocked";
  const int log_conns = scale.connections.back();
  RegisterCell("AblationLogFlush/" + backend + "/" + col, [=, &cache] {
    MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
    cfg.read_pct = 80;
    cfg.stor_pct = 50;
    cfg.pool_fraction = 2.0;
    cfg.wal_on_disk = true;
    MicroWorkload* wl = cache.Get(cfg, true);
    Database* db = wl->db();
    CommitPipeline::Stats before = db->pipeline().stats();
    uint64_t wakes_before = CommitWakes(db);
    uint64_t flushes_before = db->mem()->Log()->stats().flushes +
                              db->stor()->Log()->stats().flushes;
    RunResult r = RunWorkload(log_conns, scale.duration_ms,
                              [wl](int t, Rng& rng, uint64_t* q) {
                                return wl->RunOneTxn(t, rng, q);
                              });
    CommitPipeline::Stats after = db->pipeline().stats();
    uint64_t flushes = db->mem()->Log()->stats().flushes +
                       db->stor()->Log()->stats().flushes -
                       flushes_before;
    uint64_t done = after.completed - before.completed;
    uint64_t wakes = CommitWakes(db) - wakes_before;
    backend_tput->Set(backend, col, r.Tps());
    backend_p99->Set(backend, col,
                     static_cast<double>(r.latency.Percentile(99)) / 1e6);
    backend_wakes->Set(backend, col,
                       done == 0 ? 0.0
                                 : static_cast<double>(wakes) /
                                       static_cast<double>(done));
    backend_flushes->Set(backend, col,
                         done == 0 ? 0.0
                                   : static_cast<double>(flushes) /
                                         static_cast<double>(done));
    return r;
  });

  // ---- Contended append: the lock-free reservation ring ---------------
  // Raw LogManager::Append throughput with no commit waiting: more
  // appenders must not collapse below a single appender (the old
  // mutex-staged buffer serialized here).
  auto append_matrix = std::make_shared<ResultMatrix>(
      "Ablation: contended log append (appends/s on the reservation ring)",
      "Threads");
  for (int threads : {1, 2, 4, 8}) {
    RegisterCell(
        "LogAppendContention/threads:" + std::to_string(threads), [=] {
          LogManager::Options lo;
          lo.buffer_bytes = 1 << 20;
          LogManager log(std::make_unique<MemDevice>(), lo);
          std::atomic<bool> stop{false};
          std::atomic<uint64_t> total{0};
          std::vector<std::thread> workers;
          for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&] {
              const std::string payload(120, 'x');
              const std::span<const uint8_t> bytes{
                  reinterpret_cast<const uint8_t*>(payload.data()),
                  payload.size()};
              uint64_t n = 0;
              while (!stop.load(std::memory_order_relaxed)) {
                log.Append(bytes);
                ++n;
              }
              total.fetch_add(n, std::memory_order_relaxed);
            });
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(scale.duration_ms));
          stop.store(true, std::memory_order_relaxed);
          for (auto& th : workers) th.join();
          RunResult r;
          r.seconds = static_cast<double>(scale.duration_ms) / 1000.0;
          r.commits = total.load();
          append_matrix->Set(std::to_string(threads), "appends/s", r.Tps());
          return r;
        });
  }

  ::benchmark::RunSpecifiedBenchmarks();
  matrix->Print();
  wakeups->Print(3);
  parks->Print(3);
  backend_tput->Print();
  backend_p99->Print(3);
  backend_wakes->Print(3);
  backend_flushes->Print(3);
  append_matrix->Print();
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
