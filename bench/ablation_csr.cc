// Ablation: CSR design knobs called out in DESIGN.md — partition capacity
// (paper: 1000 entries per index), recycle period (paper: once per 5000
// accesses), and the anchor-engine choice (Section 4.3 argues for the
// memory engine) — measured on the cross-engine read-write microbenchmark.
//
// Expected shape: throughput is flat across capacity/recycle settings
// (CSR work is negligible next to engine work — the fast-slow bet); tiny
// partitions only raise the Skeena abort share slightly; anchoring at the
// storage engine taxes every memdb-only transaction with trx-sys-mutex
// snapshot acquisition.

#include "bench/common/bench_harness.h"

#include <atomic>

namespace skeena::bench {
namespace {

/// Read-path scalability: raw SelectSnapshot throughput on a pre-populated
/// registry, threads x hit ratio. A "hit" probes an anchor key that already
/// carries a mapping (Algorithm 1's common case — lock-free after the RCU
/// rewrite, zero shared writes); a "miss" selects at a fresh anchor and
/// must install a mapping under the writer mutex. The hit-dominated cells
/// are the ones the paper's Table 4 bet rides on: they must scale with
/// cores instead of serializing on the old list latch.
void RunReadPathMatrix(const BenchScale& scale,
                       const std::shared_ptr<ResultMatrix>& matrix) {
  static constexpr Timestamp kPrepopKeys = 500;
  for (int hit_pct : {100, 90, 50}) {
    std::string row = std::to_string(hit_pct) + "% hit";
    for (int threads : {1, 2, 4, 8}) {
      std::string cell = "AblationCsr/readpath:hit" +
                         std::to_string(hit_pct) + "/threads" +
                         std::to_string(threads);
      RegisterCell(cell, [=] {
        SnapshotRegistry::Options opts;
        opts.partition_capacity = 1000;
        opts.recycle_period = 0;  // isolate the read path
        auto csr = std::make_shared<SnapshotRegistry>(opts);
        for (Timestamp i = 1; i <= kPrepopKeys; ++i) {
          (void)csr->CommitCheck(i * 10, i * 10);
        }
        auto fresh_anchor =
            std::make_shared<std::atomic<Timestamp>>(kPrepopKeys * 10);
        RunResult r = RunWorkload(
            threads, scale.duration_ms,
            [csr, fresh_anchor, hit_pct](int, Rng& rng, uint64_t* queries) {
              (*queries)++;
              Timestamp anchor;
              if (static_cast<int>(rng.Uniform(100)) < hit_pct) {
                anchor = 10 * (1 + rng.Uniform(kPrepopKeys));
              } else {
                anchor = fresh_anchor->fetch_add(
                             10, std::memory_order_relaxed) +
                         10;
              }
              auto sel = csr->SelectSnapshot(anchor, [fresh_anchor] {
                return fresh_anchor->load(std::memory_order_relaxed) + 1;
              });
              return sel.ok() ? Status::OK() : sel.status();
            });
        matrix->Set(row, std::to_string(threads), r.Tps() / 1e6);
        return r;
      });
    }
  }
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  int conns = scale.connections.back();
  MicroCache cache;

  auto read_matrix = std::make_shared<ResultMatrix>(
      "Read-path scalability: SelectSnapshot Mops/s (threads x hit ratio)",
      "Hit ratio");
  RunReadPathMatrix(scale, read_matrix);

  auto base_config = [&] {
    MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
    cfg.read_pct = 80;
    cfg.stor_pct = 50;
    cfg.pool_fraction = 2.0;
    return cfg;
  };

  auto cap_matrix = std::make_shared<ResultMatrix>(
      "Ablation: CSR partition capacity (50% InnoDB read-write micro)",
      "Capacity");
  for (size_t capacity : {16ul, 128ul, 1000ul, 8192ul}) {
    RegisterCell("AblationCsr/capacity:" + std::to_string(capacity),
                 [=, &cache] {
                   MicroConfig cfg = base_config();
                   cfg.csr.partition_capacity = capacity;
                   MicroWorkload* wl = cache.Get(cfg, true);
                   RunResult r = RunWorkload(
                       conns, scale.duration_ms,
                       [wl](int t, Rng& rng, uint64_t* q) {
                         return wl->RunOneTxn(t, rng, q);
                       });
                   cap_matrix->Set(std::to_string(capacity), "TPS", r.Tps());
                   cap_matrix->Set(std::to_string(capacity),
                                   "skeena abort %",
                                   r.SkeenaAbortRate() * 100.0);
                   cap_matrix->Set(
                       std::to_string(capacity), "partitions",
                       static_cast<double>(wl->db()->csr().PartitionCount()));
                   return r;
                 });
  }

  auto recycle_matrix = std::make_shared<ResultMatrix>(
      "Ablation: CSR recycle period", "Period");
  for (uint64_t period : {500ull, 5000ull, 50000ull}) {
    RegisterCell("AblationCsr/recycle:" + std::to_string(period),
                 [=, &cache] {
                   MicroConfig cfg = base_config();
                   cfg.csr.recycle_period = period;
                   MicroWorkload* wl = cache.Get(cfg, true);
                   RunResult r = RunWorkload(
                       conns, scale.duration_ms,
                       [wl](int t, Rng& rng, uint64_t* q) {
                         return wl->RunOneTxn(t, rng, q);
                       });
                   recycle_matrix->Set(std::to_string(period), "TPS",
                                       r.Tps());
                   recycle_matrix->Set(
                       std::to_string(period), "partitions",
                       static_cast<double>(wl->db()->csr().PartitionCount()));
                   recycle_matrix->Set(
                       std::to_string(period), "recycled",
                       static_cast<double>(
                           wl->db()->csr().stats().partitions_recycled));
                   return r;
                 });
  }

  auto anchor_matrix = std::make_shared<ResultMatrix>(
      "Ablation: anchor engine choice (Section 4.3)", "Anchor");
  for (auto [label, anchor, stor_pct] :
       {std::tuple<std::string, EngineKind, int>{"mem anchor, mem-only txns",
                                                 EngineKind::kMem, 0},
        {"stor anchor, mem-only txns", EngineKind::kStor, 0},
        {"mem anchor, 50% cross", EngineKind::kMem, 50},
        {"stor anchor, 50% cross", EngineKind::kStor, 50}}) {
    RegisterCell("AblationCsr/anchor:" + label, [=, &cache] {
      MicroConfig cfg = base_config();
      cfg.anchor = anchor;
      cfg.stor_pct = stor_pct;
      MicroWorkload* wl = cache.Get(cfg, true);
      RunResult r = RunWorkload(conns, scale.duration_ms,
                                [wl](int t, Rng& rng, uint64_t* q) {
                                  return wl->RunOneTxn(t, rng, q);
                                });
      anchor_matrix->Set(label, "TPS", r.Tps());
      return r;
    });
  }

  ::benchmark::RunSpecifiedBenchmarks();
  read_matrix->Print(2);
  cap_matrix->Print(2);
  recycle_matrix->Print(2);
  anchor_matrix->Print(0);
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
