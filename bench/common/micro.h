#ifndef SKEENA_BENCH_COMMON_MICRO_H_
#define SKEENA_BENCH_COMMON_MICRO_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/common/workload.h"
#include "core/skeena.h"

namespace skeena::bench {

/// YCSB-like microbenchmark of paper Section 6.2: a set of tables per
/// engine, 232-byte rows, each transaction touching `ops_per_txn` records
/// with a fixed read/write split and a fixed fraction of accesses routed to
/// the storage engine ("X% InnoDB").
struct MicroConfig {
  // Scale (paper: 250 tables; 25k rows memory-resident / 250k
  // storage-resident; overridden by SKEENA_BENCH_FULL / env).
  int tables_per_engine = 16;
  uint64_t rows_per_table = 1000;
  size_t value_size = 232;

  int ops_per_txn = 10;
  int read_pct = 80;   // % of the ops that are point reads (rest updates)
  int stor_pct = 50;   // % of the ops routed to stordb tables
  double zipf_theta = 0;  // 0 = uniform

  // Storage-resident runs size the buffer pool to this fraction of the
  // stordb data (memory-resident: > 1.0 to fit everything).
  double pool_fraction = 2.0;

  IsolationLevel isolation = IsolationLevel::kSnapshot;

  // Coordinator knobs (for the ablation benches).
  SnapshotRegistry::Options csr;
  CommitPipeline::Options pipeline;
  EngineKind anchor = EngineKind::kMem;
  DeviceLatency log_latency = DeviceLatency::Tmpfs();

  /// Log write-path ablation (bench/ablation_commit.cc): kNone keeps the
  /// default in-memory log devices; the others put ONLY the engine logs on
  /// real files under a fresh temp dir (tables stay in memory so the log
  /// path is what's measured).
  enum class LogDisk { kNone, kFilePwrite, kSegmented, kSegmentedUring };
  LogDisk log_disk = LogDisk::kNone;

  // Verification-hook cost measurement (bench/recording_overhead.cc).
  bool record_history = false;
};

/// Applies SKEENA_BENCH_FULL / SKEENA_MICRO_* env scaling.
MicroConfig ScaledMicroConfig(MicroConfig base, const BenchScale& scale);

/// A populated database + the per-transaction driver for one scheme.
class MicroWorkload {
 public:
  /// Builds the database (Skeena on/off per `skeena_on`) with the buffer
  /// pool sized from the config, creates the tables in both engines and
  /// populates them identically (Section 6.2: "ERMIA is populated with the
  /// same amount of data as InnoDB").
  MicroWorkload(const MicroConfig& config, bool skeena_on,
                DeviceLatency data_latency = DeviceLatency::Tmpfs());
  ~MicroWorkload();

  /// Executes one transaction: `stor_ops` accesses to stordb tables, the
  /// rest to memdb tables; reads and updates interleaved per read_pct.
  Status RunOneTxn(int thread_id, Rng& rng, uint64_t* queries);

  /// Re-targets the access pattern (ops per txn, read %, engine split,
  /// skew, isolation) without repopulating. Must not race active workers.
  void SetAccessPattern(const MicroConfig& cfg);

  Database* db() { return db_.get(); }
  const MicroConfig& config() const { return config_; }

  /// Pages needed to hold all stordb rows (for pool sizing experiments).
  static size_t StorPagesNeeded(const MicroConfig& config);

 private:
  MicroConfig config_;
  std::string log_dir_;  // temp WAL dir when log_disk != kNone
  std::unique_ptr<Database> db_;
  std::vector<TableHandle> mem_tables_;
  std::vector<TableHandle> stor_tables_;
  std::vector<std::unique_ptr<ZipfianGenerator>> zipf_;  // per thread
  std::string value_template_;
};

}  // namespace skeena::bench

#endif  // SKEENA_BENCH_COMMON_MICRO_H_
