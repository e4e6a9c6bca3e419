#ifndef SKEENA_BENCH_COMMON_BENCH_HARNESS_H_
#define SKEENA_BENCH_COMMON_BENCH_HARNESS_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "bench/common/micro.h"
#include "bench/common/tpcc.h"
#include "bench/common/workload.h"

namespace skeena::bench {

/// Registers one experiment cell as a google-benchmark. The cell runs once
/// (Iterations(1)); its throughput/latency land both in the benchmark
/// counters and in the paper-style ResultMatrix printed at exit.
inline void RegisterCell(const std::string& name,
                         std::function<RunResult()> fn) {
  ::benchmark::RegisterBenchmark(
      name.c_str(),
      [fn = std::move(fn)](::benchmark::State& state) {
        for (auto _ : state) {
          RunResult r = fn();
          state.counters["TPS"] = r.Tps();
          state.counters["QPS"] = r.Qps();
          state.counters["p95_ms"] =
              static_cast<double>(r.latency.Percentile(95)) / 1e6;
          state.counters["abort_pct"] = r.AbortRate() * 100.0;
        }
      })
      ->Iterations(1)
      ->Unit(::benchmark::kMillisecond);
}

/// Lazily-constructed, cached micro workloads keyed by configuration so
/// cells sharing a scheme reuse the populated database.
class MicroCache {
 public:
  MicroWorkload* Get(const MicroConfig& cfg, bool skeena_on,
                     DeviceLatency latency = DeviceLatency::Tmpfs()) {
    std::string key = Fingerprint(cfg, skeena_on, latency);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second->SetAccessPattern(cfg);  // data identical, pattern may vary
      return it->second.get();
    }
    auto wl = std::make_unique<MicroWorkload>(cfg, skeena_on, latency);
    MicroWorkload* raw = wl.get();
    cache_[key] = std::move(wl);
    return raw;
  }

  void Clear() { cache_.clear(); }

 private:
  // Only data-shaping parameters participate: access-pattern fields
  // (ops/read%/split/skew/isolation) are re-targeted on a cached instance.
  static std::string Fingerprint(const MicroConfig& c, bool skeena_on,
                                 DeviceLatency l) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%d/%llu/%zu/%.3f/%d/%llu/%zu/%llu/%d/%zu/%d/%llu/%d/%d",
                  c.tables_per_engine,
                  static_cast<unsigned long long>(c.rows_per_table),
                  c.value_size, c.pool_fraction, skeena_on ? 1 : 0,
                  static_cast<unsigned long long>(l.read_ns),
                  c.csr.partition_capacity,
                  static_cast<unsigned long long>(c.csr.recycle_period),
                  static_cast<int>(c.pipeline.mode), c.pipeline.num_queues,
                  static_cast<int>(c.anchor),
                  static_cast<unsigned long long>(c.log_latency.sync_ns),
                  c.record_history ? 1 : 0, static_cast<int>(c.log_disk));
    return buf;
  }

  std::map<std::string, std::unique_ptr<MicroWorkload>> cache_;
};

/// The scheme rows used by the microbenchmark figures. stor_pct encodes the
/// "X% InnoDB" access split; skeena_on=false are the raw-engine baselines.
struct MicroScheme {
  std::string label;
  bool skeena_on;
  int stor_pct;
};

inline std::vector<MicroScheme> MemoryResidentSchemes() {
  return {{"ERMIA", false, 0},        {"ERMIA-S", true, 0},
          {"30% InnoDB", true, 30},   {"50% InnoDB", true, 50},
          {"80% InnoDB", true, 80},   {"InnoDB-MS", true, 100},
          {"InnoDB-M", false, 100}};
}

inline std::vector<MicroScheme> StorageResidentSchemes() {
  return {{"ERMIA", false, 0},        {"ERMIA-S", true, 0},
          {"30% InnoDB", true, 30},   {"50% InnoDB", true, 50},
          {"80% InnoDB", true, 80},   {"InnoDB-S", true, 100},
          {"InnoDB", false, 100}};
}

}  // namespace skeena::bench

#endif  // SKEENA_BENCH_COMMON_BENCH_HARNESS_H_
