// Reproduces paper Table 4: throughput of the storage-resident 50% InnoDB
// cross-engine workload (5/5 split, 80/20 r:w) under varying buffer-pool
// hit ratios, on a simulated SSD (Section 6.7).
//
// Expected shape: a single connection is largely insensitive (its working
// set stays cached); at saturation, throughput degrades as the hit ratio
// falls because more accesses pay the SSD latency.

#include "bench/common/bench_harness.h"

namespace skeena::bench {
namespace {

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  MicroCache cache;
  std::vector<int> conn_set = {1, scale.connections.back()};
  // Pool fractions chosen to land near the paper's 100/99/90/70% targets.
  struct Target {
    std::string label;
    double pool_fraction;
  };
  std::vector<Target> targets = {
      {"100%", 1.5}, {"99%", 0.8}, {"90%", 0.45}, {"70%", 0.15}};

  auto matrix = std::make_shared<ResultMatrix>(
      "Table 4: TPS under varying buffer pool hit ratios (SSD latency)",
      "Connections");
  auto measured = std::make_shared<ResultMatrix>(
      "Table 4 (measured hit ratios, %)", "Connections");

  for (int conns : conn_set) {
    for (const auto& target : targets) {
      RegisterCell("Table4/conns:" + std::to_string(conns) + "/target:" +
                       target.label,
                   [=, &cache] {
                     MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
                     cfg.read_pct = 80;
                     cfg.stor_pct = 50;
                     cfg.pool_fraction = target.pool_fraction;
                     MicroWorkload* wl =
                         cache.Get(cfg, true, DeviceLatency::Ssd());
                     wl->db()->stor()->pool()->ResetStats();
                     RunResult r = RunWorkload(
                         conns, scale.duration_ms,
                         [wl](int t, Rng& rng, uint64_t* q) {
                           return wl->RunOneTxn(t, rng, q);
                         });
                     matrix->Set(std::to_string(conns), target.label,
                                 r.Tps());
                     measured->Set(
                         std::to_string(conns), target.label,
                         wl->db()->stor()->pool()->HitRatio() *
                             100.0);
                     return r;
                   });
    }
  }

  ::benchmark::RunSpecifiedBenchmarks();
  matrix->Print();
  measured->Print(1);
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
