#ifndef SKEENA_CORE_ADAPTERS_H_
#define SKEENA_CORE_ADAPTERS_H_

#include <memory>
#include <string>

#include "common/epoch.h"
#include "core/engine_iface.h"
#include "memdb/mem_engine.h"
#include "stordb/stor_engine.h"

namespace skeena {

/// EngineIface adapter over the memory-optimized engine. Mirrors the
/// paper's ERMIA integration: snapshots are engine timestamps; "latest"
/// begin reads the clock.
class MemEngineAdapter : public EngineIface {
 public:
  /// `epoch` is the shared reclamation domain threaded into the engine
  /// (the database-owned manager); null lets the engine own a private one.
  MemEngineAdapter(std::unique_ptr<StorageDevice> log_device,
                   memdb::MemEngine::Options options,
                   EpochManager* epoch = nullptr);

  EngineKind kind() const override { return EngineKind::kMem; }

  TableId CreateTable(const std::string& name,
                      size_t max_value_size) override;

  Timestamp LatestSnapshot() const override;
  std::unique_ptr<SubTxn> Begin(IsolationLevel iso,
                                Timestamp snapshot) override;
  Status RefreshSnapshot(SubTxn* sub, Timestamp snapshot) override;

  Status Get(SubTxn* sub, TableId table, const Key& key,
             std::string* value) override;
  Status Put(SubTxn* sub, TableId table, const Key& key,
             std::string_view value) override;
  Status Delete(SubTxn* sub, TableId table, const Key& key) override;
  Status Scan(SubTxn* sub, TableId table, const Key& lower, size_t limit,
              const std::function<bool(const Key&, const std::string&)>& cb)
      override;

  bool IsReadOnly(const SubTxn* sub) const override;
  Status PreCommit(SubTxn* sub, Timestamp* commit_ts) override;
  Lsn PostCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine) override;
  void Abort(SubTxn* sub) override;

  LogManager* Log() override;

  memdb::MemEngine* engine() { return &engine_; }

 private:
  memdb::MemEngine engine_;
};

/// EngineIface adapter over the storage-centric engine. CSR snapshots are
/// serialisation numbers; Begin with a CSR snapshot builds the adjusted
/// read view (paper Section 5).
class StorEngineAdapter : public EngineIface {
 public:
  /// `epoch` is the shared reclamation domain threaded into the engine
  /// (the database-owned manager); null lets the engine own a private one.
  StorEngineAdapter(std::unique_ptr<StorageDevice> log_device,
                    stordb::StorEngine::Options options,
                    EpochManager* epoch = nullptr);

  EngineKind kind() const override { return EngineKind::kStor; }

  TableId CreateTable(const std::string& name,
                      size_t max_value_size) override;

  Timestamp LatestSnapshot() const override;
  std::unique_ptr<SubTxn> Begin(IsolationLevel iso,
                                Timestamp snapshot) override;
  Status RefreshSnapshot(SubTxn* sub, Timestamp snapshot) override;

  Status Get(SubTxn* sub, TableId table, const Key& key,
             std::string* value) override;
  Status Put(SubTxn* sub, TableId table, const Key& key,
             std::string_view value) override;
  Status Delete(SubTxn* sub, TableId table, const Key& key) override;
  Status Scan(SubTxn* sub, TableId table, const Key& lower, size_t limit,
              const std::function<bool(const Key&, const std::string&)>& cb)
      override;

  bool IsReadOnly(const SubTxn* sub) const override;
  Status PreCommit(SubTxn* sub, Timestamp* commit_ts) override;
  Lsn PostCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine) override;
  void Abort(SubTxn* sub) override;

  LogManager* Log() override;

  stordb::StorEngine* engine() { return &engine_; }

 private:
  stordb::StorEngine engine_;
};

}  // namespace skeena

#endif  // SKEENA_CORE_ADAPTERS_H_
