// Ablation: Skeena's pipelined commit (Section 4.5) vs. a synchronous
// commit that flushes both logs on the worker thread — on the cross-engine
// microbenchmark with an SSD-like log latency so the flush cost is visible.
//
// Expected shape: pipelining wins throughput at saturation. A pipelined
// commit waits on each log's self-clocked group-commit flusher, which
// batches every commit that arrived during the previous flush and releases
// them with one unpark; a synchronous commit issues (or joins) a flush of
// its own. The wakeup matrix counts the kernel wakes issued to release
// committers — the logs' batched durable-advance unparks — per commit; the
// park matrix counts commits whose durable wait blocked in the kernel.

#include "bench/common/bench_harness.h"

#include <atomic>
#include <thread>

#include "log/log_manager.h"

namespace skeena::bench {
namespace {

// Kernel wakes issued to release committers so far: both logs' batched
// durable-advance unparks.
uint64_t CommitWakes(Database* db) {
  return db->mem()->engine()->log()->stats().durable_wakes +
         db->stor()->engine()->log()->stats().durable_wakes;
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  MicroCache cache;

  auto matrix = std::make_shared<ResultMatrix>(
      "Ablation: commit protocol (50% InnoDB read-write micro, SSD log)",
      "Protocol");
  auto wakeups = std::make_shared<ResultMatrix>(
      "Ablation: commit wakeups (syscall wakeups / commit)", "Protocol");
  auto parks = std::make_shared<ResultMatrix>(
      "Ablation: commit waits (waiter parks / commit)", "Protocol");

  struct Variant {
    std::string label;
    CommitPipeline::Mode mode;
  };
  std::vector<Variant> variants = {
      {"pipelined, waits on flusher", CommitPipeline::Mode::kPipelined},
      {"synchronous flush", CommitPipeline::Mode::kSync},
  };

  for (const auto& v : variants) {
    for (int conns : scale.connections) {
      RegisterCell("AblationCommit/" + v.label + "/conns:" +
                       std::to_string(conns),
                   [=, &cache] {
                     MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
                     cfg.read_pct = 80;
                     cfg.stor_pct = 50;
                     cfg.pool_fraction = 2.0;
                     cfg.pipeline.mode = v.mode;
                     // SSD-priced log syncs: the pipelined/synchronous
                     // distinction only exists when flushes cost something.
                     cfg.log_latency = DeviceLatency::Ssd();
                     MicroWorkload* wl = cache.Get(cfg, true);
                     // Workloads are cached per variant, so per-cell wakeup
                     // accounting is the delta across this run.
                     CommitPipeline::Stats before =
                         wl->db()->pipeline().stats();
                     uint64_t wakes_before = CommitWakes(wl->db());
                     RunResult r = RunWorkload(
                         conns, scale.duration_ms,
                         [wl](int t, Rng& rng, uint64_t* q) {
                           return wl->RunOneTxn(t, rng, q);
                         });
                     CommitPipeline::Stats after =
                         wl->db()->pipeline().stats();
                     uint64_t done = after.completed - before.completed;
                     uint64_t wakes = CommitWakes(wl->db()) - wakes_before;
                     uint64_t parked =
                         after.waiter_parks - before.waiter_parks;
                     std::string col = std::to_string(conns);
                     matrix->Set(v.label, col, r.Tps());
                     wakeups->Set(v.label, col,
                                  done == 0 ? 0.0
                                            : static_cast<double>(wakes) /
                                                  static_cast<double>(done));
                     parks->Set(v.label, col,
                                done == 0 ? 0.0
                                          : static_cast<double>(parked) /
                                                static_cast<double>(done));
                     return r;
                   });
    }
  }

  // ---- Raw-speed log path: flush backend ------------------------------
  // Engine logs on real files (tables stay in memory), comparing the
  // synchronous pwrite file device against the segmented writer under the
  // self-clocked group-commit flusher. Flushes per commit below 1 is the
  // batching a real fsync buys.
  auto backend_tput = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (commits/s)", "Backend");
  auto backend_p99 = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (p99 commit latency, ms)", "Backend");
  auto backend_wakes = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (syscall wakeups / commit)", "Backend");
  auto backend_flushes = std::make_shared<ResultMatrix>(
      "Ablation: log flush backend (log flushes / commit)", "Backend");

  struct Backend {
    std::string label;
    MicroConfig::LogDisk disk;
  };
  const std::vector<Backend> backends = {
      {"sync pwrite file", MicroConfig::LogDisk::kFilePwrite},
      {"segmented", MicroConfig::LogDisk::kSegmented},
  };

  const std::string col = "self-clocked";
  const int log_conns = scale.connections.back();
  for (const auto& b : backends) {
    RegisterCell("AblationLogFlush/" + b.label + "/" + col, [=, &cache] {
      MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
      cfg.read_pct = 80;
      cfg.stor_pct = 50;
      cfg.pool_fraction = 2.0;
      cfg.log_disk = b.disk;
      MicroWorkload* wl = cache.Get(cfg, true);
      Database* db = wl->db();
      CommitPipeline::Stats before = db->pipeline().stats();
      uint64_t wakes_before = CommitWakes(db);
      uint64_t flushes_before = db->mem()->engine()->log()->flush_batches() +
                                db->stor()->engine()->log()->flush_batches();
      RunResult r = RunWorkload(log_conns, scale.duration_ms,
                                [wl](int t, Rng& rng, uint64_t* q) {
                                  return wl->RunOneTxn(t, rng, q);
                                });
      CommitPipeline::Stats after = db->pipeline().stats();
      uint64_t flushes = db->mem()->engine()->log()->flush_batches() +
                         db->stor()->engine()->log()->flush_batches() -
                         flushes_before;
      uint64_t done = after.completed - before.completed;
      uint64_t wakes = CommitWakes(db) - wakes_before;
      backend_tput->Set(b.label, col, r.Tps());
      backend_p99->Set(b.label, col,
                       static_cast<double>(r.latency.Percentile(99)) / 1e6);
      backend_wakes->Set(b.label, col,
                         done == 0 ? 0.0
                                   : static_cast<double>(wakes) /
                                         static_cast<double>(done));
      backend_flushes->Set(b.label, col,
                           done == 0 ? 0.0
                                     : static_cast<double>(flushes) /
                                           static_cast<double>(done));
      return r;
    });
  }

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
