#include "core/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "core/transaction.h"
#include "log/redo.h"
#include "log/segmented_device.h"

namespace skeena {

namespace {

/// A database whose device does not open must not run: falling back to
/// memory would ack commits that vanish on restart. Fail stop instead.
template <typename Device>
std::unique_ptr<StorageDevice> OpenOrDie(
    Result<std::unique_ptr<Device>> dev, const std::string& path) {
  if (!dev.ok()) {
    std::fprintf(stderr, "Database: cannot open %s: %s\n", path.c_str(),
                 dev.status().ToString().c_str());
    std::abort();
  }
  return std::move(dev).value();
}

std::unique_ptr<StorageDevice> MakeDevice(const std::string& data_dir,
                                          const std::string& name,
                                          DeviceLatency latency) {
  if (data_dir.empty()) {
    return std::make_unique<MemDevice>(latency);
  }
  std::filesystem::create_directories(data_dir);
  const std::string path = data_dir + "/" + name;
  return OpenOrDie(FileDevice::Open(path, latency), path);
}

/// Builds an engine's WAL device: a segment directory named after the log
/// ("<data_dir>/mem.log/" holding wal.NNNNNNNN.seg files).
std::unique_ptr<StorageDevice> MakeLogDevice(const DatabaseOptions& options,
                                             const std::string& name) {
  if (options.log_device_factory) return options.log_device_factory(name);
  if (options.data_dir.empty()) {
    return std::make_unique<MemDevice>(options.log_latency);
  }
  std::filesystem::create_directories(options.data_dir);
  SegmentedLogDevice::Options seg;
  seg.latency = options.log_latency;
  const std::string path = options.data_dir + "/" + name;
  return OpenOrDie(SegmentedLogDevice::Open(path, seg), path);
}

/// Fills in the engine options the database derives from its own.
DatabaseOptions WithEngineDefaults(DatabaseOptions options) {
  // Table-space devices for stordb.
  if (!options.data_dir.empty() && !options.stor.device_factory) {
    std::string dir = options.data_dir;
    DeviceLatency latency = options.stor.data_latency;
    options.stor.device_factory = [dir, latency](const std::string& name) {
      return MakeDevice(dir, "table_" + name + ".tbl", latency);
    };
  }
  // Replica hygiene: local read-only transactions must not log commit
  // records into the replica's own WAL — their gtids are drawn from the
  // replica's counter and would collide with replayed primary gtids.
  if (options.replica) options.mem.log_read_only_commits = false;
  return options;
}

}  // namespace

static_assert(static_cast<int>(EngineKind::kMem) == 0 &&
                  static_cast<int>(EngineKind::kStor) == 1,
              "engines_ is indexed by EngineKind");

// Both engines share the database-owned epoch domain, so one grace period
// covers CSR partition lists, memdb versions and stordb undos.
Database::Database(DatabaseOptions options)
    : options_(WithEngineDefaults(std::move(options))),
      mem_(MakeLogDevice(options_, "mem.log"), options_.mem, &epoch_),
      stor_(MakeLogDevice(options_, "stor.log"), options_.stor, &epoch_),
      engines_{&mem_, &stor_},
      anchor_index_(static_cast<int>(options_.anchor)),
      csr_(options_.csr, &epoch_) {
  // Engine-side GC pinning (the engine analogue of CSR recycling,
  // Section 4.4): a live transaction's anchor snapshot must keep BOTH
  // engines readable for a crossing it has not made yet. The anchor engine
  // is pinned by the oldest active anchor snapshot itself; the other
  // engine by the oldest snapshot the CSR could still select for such an
  // anchor (the predecessor mapping's value).
  auto min_anchor = [this] {
    return anchor_registry_.MinActive(
        engines_[anchor_index_]->LatestSnapshot());
  };
  auto min_other = [this, min_anchor] {
    // MinSelectableValue pins its own epoch for the list traversal; the
    // anchor-registry read needs no epoch protection.
    Timestamp v = csr_.MinSelectableValue(min_anchor());
    return v;  // kMaxTimestamp = unconstrained (fallback uses live clock)
  };
  bool mem_is_anchor = anchor_index_ == static_cast<int>(EngineKind::kMem);
  if (options_.replica) {
    // Replica readers never select through the CSR; their snapshot pair
    // comes from the visibility gate. The gate is the fallback for both
    // registry scans: it only ever advances, and every reader pre-registers
    // a sentinel before reading the pair, so neither floor can pass a pair
    // a reader is about to pin.
    auto replica_min_anchor = [this] {
      return anchor_registry_.MinActive(ReplicaSnapshotPair().first);
    };
    auto replica_min_other = [this] {
      return replica_other_registry_.MinActive(ReplicaSnapshotPair().second +
                                               1);
    };
    csr_.SetMinAnchorProvider(replica_min_anchor);
    if (mem_is_anchor) {
      mem_.SetGcHorizonProvider(replica_min_anchor);
      stor_.SetPurgeHorizonProvider(replica_min_other);
    } else {
      stor_.SetPurgeHorizonProvider([replica_min_anchor] {
        return replica_min_anchor() + 1;
      });
      mem_.SetGcHorizonProvider([this] {
        // replica_other_registry_ holds ser-style horizons (value + 1);
        // memdb wants plain snapshots.
        return replica_other_registry_.MinActive(
                   ReplicaSnapshotPair().second + 1) -
               1;
      });
    }
    pipeline_ = std::make_unique<CommitPipeline>(engines_[0]->Log(),
                                                 engines_[1]->Log());
    if (options_.record_history) {
      recorder_ = std::make_unique<HistoryRecorder>();
    }
    LoadCatalog();
    return;
  }
  csr_.SetMinAnchorProvider(min_anchor);
  // memdb registers plain snapshots; stordb registers view horizons
  // (ser_limit + 1) — hence the +1 on the stordb bounds.
  if (mem_is_anchor) {
    mem_.SetGcHorizonProvider(min_anchor);
    stor_.SetPurgeHorizonProvider([min_other] {
      Timestamp v = min_other();
      return v == kMaxTimestamp ? v : v + 1;
    });
  } else {
    stor_.SetPurgeHorizonProvider([min_anchor] {
      Timestamp v = min_anchor();
      return v == kMaxTimestamp ? v : v + 1;
    });
    mem_.SetGcHorizonProvider(min_other);
  }

  pipeline_ = std::make_unique<CommitPipeline>(engines_[0]->Log(),
                                               engines_[1]->Log());
  if (options_.record_history) {
    recorder_ = std::make_unique<HistoryRecorder>();
  }

  LoadCatalog();
}

Database::~Database() = default;

Result<TableHandle> Database::CreateTable(const std::string& name,
                                          EngineKind home,
                                          size_t max_value_size) {
  MutexLock guard(catalog_mu_);
  if (catalog_.count(name) != 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  TableHandle h;
  h.name = name;
  h.home = home;
  h.engine_index = static_cast<int>(home);
  h.local_id = engines_[h.engine_index]->CreateTable(name, max_value_size);
  catalog_[name] = h;
  PersistCatalogEntry(h, max_value_size);
  return h;
}

Result<TableHandle> Database::GetTable(const std::string& name) const {
  MutexLock guard(catalog_mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second;
}

std::unique_ptr<Transaction> Database::Begin() {
  return Begin(options_.default_isolation);
}

std::unique_ptr<Transaction> Database::Begin(IsolationLevel iso) {
  return std::unique_ptr<Transaction>(new Transaction(this, iso));
}

void Database::PersistCatalogEntry(const TableHandle& h,
                                   size_t max_value_size) {
  if (options_.data_dir.empty()) return;
  std::ofstream out(options_.data_dir + "/catalog.txt", std::ios::app);
  out << h.name << ' ' << static_cast<int>(h.home) << ' ' << max_value_size
      << '\n';
}

void Database::LoadCatalog() {
  if (options_.data_dir.empty()) return;
  std::ifstream in(options_.data_dir + "/catalog.txt");
  if (!in.good()) return;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name;
    int home = 0;
    size_t max_value = 0;
    if (!(ls >> name >> home >> max_value)) continue;
    TableHandle h;
    h.name = name;
    h.home = static_cast<EngineKind>(home);
    h.engine_index = home;
    h.local_id = engines_[home]->CreateTable(name, max_value);
    catalog_[name] = h;
  }
}

Status Database::Recover() {
  // Pair commit-end records across both logs: a cross-engine transaction
  // is durably committed only if its commit-end made it to *both* logs;
  // everything else is rolled back (its results were never released to
  // clients — they were still waiting on durability). Paper Section 4.6.
  LogCensus census[kNumEngines];
  for (int e = 0; e < kNumEngines; ++e) {
    SKEENA_RETURN_NOT_OK(TakeCensus(engines_[e]->Log()->device(), &census[e]));
    // relaxed-ok: single-threaded recovery; no concurrent Begin yet.
    next_gtid_.store(std::max(next_gtid_.load(std::memory_order_relaxed),
                              census[e].max_gtid + 1),
                     std::memory_order_relaxed);
  }
  std::set<GlobalTxnId> torn;
  std::set_symmetric_difference(
      census[0].commit_ends.begin(), census[0].commit_ends.end(),
      census[1].commit_ends.begin(), census[1].commit_ends.end(),
      std::inserter(torn, torn.end()));
  // One engine's committed groups in memory at a time.
  std::vector<CommittedGroup> groups;
  SKEENA_RETURN_NOT_OK(
      ReadCommittedGroups(mem_.Log()->device(), torn, &groups));
  SKEENA_RETURN_NOT_OK(mem_.ApplyRecovered(std::move(groups)));
  groups = {};
  SKEENA_RETURN_NOT_OK(
      ReadCommittedGroups(stor_.Log()->device(), torn, &groups));
  return stor_.ApplyRecovered(groups);
}

}  // namespace skeena
