#include "core/adapters.h"

namespace skeena {

namespace {

struct MemSubTxn : public SubTxn {
  std::unique_ptr<memdb::MemTxn> txn;
};

struct StorSubTxn : public SubTxn {
  std::unique_ptr<stordb::StorTxn> txn;
};

memdb::MemTxn* AsMem(SubTxn* sub) {
  return static_cast<MemSubTxn*>(sub)->txn.get();
}
stordb::StorTxn* AsStor(SubTxn* sub) {
  return static_cast<StorSubTxn*>(sub)->txn.get();
}

}  // namespace

// ---------------------------------------------------------- MemEngineAdapter

MemEngineAdapter::MemEngineAdapter(std::unique_ptr<StorageDevice> log_device,
                                   memdb::MemEngine::Options options,
                                   EpochManager* epoch)
    : engine_(std::move(log_device), options, epoch) {}

TableId MemEngineAdapter::CreateTable(const std::string& name,
                                      size_t max_value_size) {
  (void)max_value_size;  // memdb values are heap strings
  return engine_.CreateTable(name);
}

Timestamp MemEngineAdapter::LatestSnapshot() const {
  return engine_.LatestSnapshot();
}

std::unique_ptr<SubTxn> MemEngineAdapter::Begin(IsolationLevel iso,
                                                Timestamp snapshot) {
  auto sub = std::make_unique<MemSubTxn>();
  sub->txn = engine_.Begin(
      iso, snapshot == kMaxTimestamp ? kInvalidTimestamp : snapshot);
  if (sub->txn == nullptr) return nullptr;  // snapshot predates GC floor
  return sub;
}

Status MemEngineAdapter::RefreshSnapshot(SubTxn* sub, Timestamp snapshot) {
  return engine_.RefreshSnapshot(
      AsMem(sub), snapshot == kMaxTimestamp ? kInvalidTimestamp : snapshot);
}

Status MemEngineAdapter::Get(SubTxn* sub, TableId table, const Key& key,
                             std::string* value) {
  return engine_.Get(AsMem(sub), table, key, value);
}

Status MemEngineAdapter::Put(SubTxn* sub, TableId table, const Key& key,
                             std::string_view value) {
  return engine_.Put(AsMem(sub), table, key, value);
}

Status MemEngineAdapter::Delete(SubTxn* sub, TableId table, const Key& key) {
  return engine_.Delete(AsMem(sub), table, key);
}

Status MemEngineAdapter::Scan(
    SubTxn* sub, TableId table, const Key& lower, size_t limit,
    const std::function<bool(const Key&, const std::string&)>& cb) {
  return engine_.Scan(AsMem(sub), table, lower, limit, cb);
}

bool MemEngineAdapter::IsReadOnly(const SubTxn* sub) const {
  return static_cast<const MemSubTxn*>(sub)->txn->read_only();
}

Status MemEngineAdapter::PreCommit(SubTxn* sub, Timestamp* commit_ts) {
  memdb::MemTxn* txn = AsMem(sub);
  Status s = engine_.PreCommit(txn);
  if (s.ok()) *commit_ts = txn->commit_ts();
  return s;
}

Lsn MemEngineAdapter::PostCommit(SubTxn* sub, GlobalTxnId gtid,
                                 bool cross_engine) {
  return engine_.PostCommit(AsMem(sub), gtid, cross_engine);
}

void MemEngineAdapter::Abort(SubTxn* sub) { engine_.Abort(AsMem(sub)); }

LogManager* MemEngineAdapter::Log() { return engine_.log(); }

// --------------------------------------------------------- StorEngineAdapter

StorEngineAdapter::StorEngineAdapter(
    std::unique_ptr<StorageDevice> log_device,
    stordb::StorEngine::Options options, EpochManager* epoch)
    : engine_(std::move(log_device), options, epoch) {}

TableId StorEngineAdapter::CreateTable(const std::string& name,
                                       size_t max_value_size) {
  return engine_.CreateTable(name, max_value_size);
}

Timestamp StorEngineAdapter::LatestSnapshot() const {
  return engine_.LatestSnapshot();
}

std::unique_ptr<SubTxn> StorEngineAdapter::Begin(IsolationLevel iso,
                                                 Timestamp snapshot) {
  auto sub = std::make_unique<StorSubTxn>();
  sub->txn = engine_.Begin(iso, snapshot);
  if (sub->txn == nullptr) return nullptr;  // snapshot predates purge floor
  return sub;
}

Status StorEngineAdapter::RefreshSnapshot(SubTxn* sub, Timestamp snapshot) {
  return engine_.RefreshSnapshot(AsStor(sub), snapshot);
}

Status StorEngineAdapter::Get(SubTxn* sub, TableId table, const Key& key,
                              std::string* value) {
  return engine_.Get(AsStor(sub), table, key, value);
}

Status StorEngineAdapter::Put(SubTxn* sub, TableId table, const Key& key,
                              std::string_view value) {
  return engine_.Put(AsStor(sub), table, key, value);
}

Status StorEngineAdapter::Delete(SubTxn* sub, TableId table, const Key& key) {
  return engine_.Delete(AsStor(sub), table, key);
}

Status StorEngineAdapter::Scan(
    SubTxn* sub, TableId table, const Key& lower, size_t limit,
    const std::function<bool(const Key&, const std::string&)>& cb) {
  return engine_.Scan(AsStor(sub), table, lower, limit, cb);
}

bool StorEngineAdapter::IsReadOnly(const SubTxn* sub) const {
  return static_cast<const StorSubTxn*>(sub)->txn->read_only();
}

Status StorEngineAdapter::PreCommit(SubTxn* sub, Timestamp* commit_ts) {
  stordb::StorTxn* txn = AsStor(sub);
  Status s = engine_.PreCommit(txn);
  if (s.ok()) *commit_ts = txn->ser_no();
  return s;
}

Lsn StorEngineAdapter::PostCommit(SubTxn* sub, GlobalTxnId gtid,
                                  bool cross_engine) {
  return engine_.PostCommit(AsStor(sub), gtid, cross_engine);
}

void StorEngineAdapter::Abort(SubTxn* sub) { engine_.Abort(AsStor(sub)); }

LogManager* StorEngineAdapter::Log() { return engine_.log(); }

}  // namespace skeena
