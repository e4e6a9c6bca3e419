#include "bench/common/micro.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/env.h"
#include "log/segmented_device.h"
#include "stordb/page.h"

namespace skeena::bench {

MicroConfig ScaledMicroConfig(MicroConfig base, const BenchScale& scale) {
  if (scale.full) {
    base.tables_per_engine = 250;
    base.rows_per_table = base.pool_fraction >= 1.0 ? 25000 : 25000;
  }
  base.tables_per_engine = static_cast<int>(
      GetEnvInt("SKEENA_MICRO_TABLES", base.tables_per_engine));
  base.rows_per_table = static_cast<uint64_t>(
      GetEnvInt("SKEENA_MICRO_ROWS", static_cast<int64_t>(base.rows_per_table)));
  return base;
}

size_t MicroWorkload::StorPagesNeeded(const MicroConfig& config) {
  size_t slots = stordb::SlotsPerPage(config.value_size);
  size_t pages_per_table = (config.rows_per_table + slots - 1) / slots;
  return pages_per_table * static_cast<size_t>(config.tables_per_engine);
}

MicroWorkload::MicroWorkload(const MicroConfig& config, bool skeena_on,
                             DeviceLatency data_latency)
    : config_(config), zipf_(512) {
  DatabaseOptions opts;
  opts.enable_skeena = skeena_on;
  opts.default_isolation = config.isolation;
  opts.stor.data_latency = data_latency;
  opts.csr = config.csr;
  opts.anchor = config.anchor;
  opts.log_latency = config.log_latency;
  opts.record_history = config.record_history;
  if (config.wal_on_disk) {
    // Only the engine logs go to disk: data_dir stays empty so tables and
    // catalog stay on MemDevices and the WAL write path is what's measured.
    static std::atomic<uint64_t> wal_seq{0};
    log_dir_ = (std::filesystem::temp_directory_path() /
                ("skeena_bench_wal_" +
                 std::to_string(wal_seq.fetch_add(1))))
                   .string();
    std::filesystem::remove_all(log_dir_);
    std::filesystem::create_directories(log_dir_);
    const std::string dir = log_dir_;
    const DeviceLatency latency = config.log_latency;
    opts.log_device_factory =
        [dir, latency](
            const std::string& name) -> std::unique_ptr<StorageDevice> {
      SegmentedLogDevice::Options seg;
      seg.latency = latency;
      const std::string path = dir + "/" + name;
      auto dev = SegmentedLogDevice::Open(path, seg);
      if (!dev.ok()) {
        // An on-disk row must not silently measure an in-memory log.
        std::fprintf(stderr, "MicroWorkload: cannot open %s: %s\n",
                     path.c_str(), dev.status().ToString().c_str());
        std::abort();
      }
      return std::move(dev.value());
    };
  }
  size_t needed = StorPagesNeeded(config);
  size_t pool = static_cast<size_t>(static_cast<double>(needed) *
                                    config.pool_fraction);
  opts.stor.buffer_pool_pages = std::max<size_t>(pool, 64);
  db_ = std::make_unique<Database>(opts);

  value_template_.assign(config.value_size, 'v');

  for (int t = 0; t < config.tables_per_engine; ++t) {
    mem_tables_.push_back(
        *db_->CreateTable("mem_" + std::to_string(t), EngineKind::kMem,
                          config.value_size));
    stor_tables_.push_back(
        *db_->CreateTable("stor_" + std::to_string(t), EngineKind::kStor,
                          config.value_size));
  }

  // Parallel load, one engine table pair per task, batched commits.
  int loaders = std::min(8, config.tables_per_engine);
  std::vector<std::thread> threads;
  for (int l = 0; l < loaders; ++l) {
    threads.emplace_back([&, l] {
      for (int t = l; t < config.tables_per_engine; t += loaders) {
        for (int e = 0; e < 2; ++e) {
          const TableHandle& h = e == 0 ? mem_tables_[t] : stor_tables_[t];
          for (uint64_t start = 0; start < config.rows_per_table;
               start += 1024) {
            uint64_t end = std::min(start + 1024, config.rows_per_table);
            // Retry on transient aborts (concurrent loaders can trip the
            // commit-ordering check); a dropped batch would leave holes.
            while (true) {
              auto txn = db_->Begin(IsolationLevel::kSnapshot);
              bool ok = true;
              for (uint64_t row = start; row < end && ok; ++row) {
                ok = txn->Put(h, MakeKey(row), value_template_).ok();
              }
              if (ok && txn->Commit().ok()) break;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

MicroWorkload::~MicroWorkload() {
  if (!log_dir_.empty()) {
    db_.reset();  // close the WAL devices before removing their files
    std::error_code ec;
    std::filesystem::remove_all(log_dir_, ec);
  }
}

void MicroWorkload::SetAccessPattern(const MicroConfig& cfg) {
  bool zipf_changed = cfg.zipf_theta != config_.zipf_theta;
  config_.ops_per_txn = cfg.ops_per_txn;
  config_.read_pct = cfg.read_pct;
  config_.stor_pct = cfg.stor_pct;
  config_.zipf_theta = cfg.zipf_theta;
  config_.isolation = cfg.isolation;
  if (zipf_changed) {
    for (auto& z : zipf_) z.reset();
  }
}

Status MicroWorkload::RunOneTxn(int thread_id, Rng& rng, uint64_t* queries) {
  const MicroConfig& cfg = config_;
  int stor_ops = cfg.ops_per_txn * cfg.stor_pct / 100;
  int mem_ops = cfg.ops_per_txn - stor_ops;

  ZipfianGenerator* zipf = nullptr;
  if (cfg.zipf_theta > 0) {
    if (!zipf_[thread_id]) {
      zipf_[thread_id] = std::make_unique<ZipfianGenerator>(
          cfg.rows_per_table, cfg.zipf_theta,
          static_cast<uint64_t>(thread_id) + 1);
    }
    zipf = zipf_[thread_id].get();
  }

  auto txn = db_->Begin(cfg.isolation);
  // Each engine group gets its proportional share of reads so varying the
  // engine split doesn't silently change the write mix.
  for (int group = 0; group < 2; ++group) {
    int ops = group == 0 ? stor_ops : mem_ops;
    if (ops == 0) continue;
    int reads = ops * cfg.read_pct / 100;
    const std::vector<TableHandle>& tables =
        group == 0 ? stor_tables_ : mem_tables_;
    for (int i = 0; i < ops; ++i) {
      const TableHandle& h =
          tables[rng.Uniform(static_cast<uint64_t>(tables.size()))];
      uint64_t row =
          zipf != nullptr ? zipf->Next() : rng.Uniform(cfg.rows_per_table);
      (*queries)++;
      Status s;
      if (i < reads) {
        std::string v;
        s = txn->Get(h, MakeKey(row), &v);
        if (s.IsNotFound()) s = Status::OK();
      } else {
        s = txn->Put(h, MakeKey(row), value_template_);
      }
      if (!s.ok()) return s;
    }
  }
  return txn->Commit();
}

}  // namespace skeena::bench
