#ifndef SKEENA_LOG_ENGINE_IFACE_H_
#define SKEENA_LOG_ENGINE_IFACE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/encoding.h"
#include "common/status.h"
#include "common/types.h"

namespace skeena {

class LogManager;

/// Engine-level sub-transaction (paper Section 1.1: a cross-engine
/// transaction consists of one sub-transaction per engine). Each engine's
/// transaction type derives from it, so Begin hands out the engine's own
/// object and the engine downcasts it at entry.
class SubTxn {
 public:
  virtual ~SubTxn() = default;
};

/// The narrow engine contract Skeena requires (paper Section 4.9): engines
/// stay autonomous; the coordinator only needs snapshot-based begin, the
/// pre-/post-commit split exposing commit timestamps, data access routing
/// and durable-LSN visibility for the pipelined commit wait (the engine's
/// LogManager, reached through Log()). memdb::MemEngine and
/// stordb::StorEngine implement it directly; the contract lives at the log
/// layer, the lowest one both engines depend on.
///
/// Snapshot convention: `kMaxTimestamp` means "latest / native snapshot";
/// any other value is a CSR-selected snapshot in this engine's commit-order
/// space (memdb: commit timestamp; stordb: serialisation_no).
class EngineIface {
 public:
  virtual ~EngineIface() = default;

  virtual EngineKind kind() const = 0;

  // ------------------------------------------------------------ schema
  virtual TableId CreateTable(const std::string& name,
                              size_t max_value_size) = 0;

  // ------------------------------------------------------ transactions
  /// Latest snapshot in this engine (anchor acquisition / CSR Algorithm 1
  /// fallback).
  virtual Timestamp LatestSnapshot() const = 0;

  /// Begins a sub-transaction. Returns nullptr when a coordinator-chosen
  /// snapshot can no longer be served (it predates the engine's GC/purge
  /// floor); the coordinator treats this as a Skeena abort and the caller
  /// retries with a fresh snapshot.
  virtual std::unique_ptr<SubTxn> Begin(IsolationLevel iso,
                                        Timestamp snapshot) = 0;
  /// Replaces the sub-transaction's snapshot (read-committed refresh).
  /// Fails with kSkeenaAbort when the requested snapshot predates the
  /// engine's GC/purge floor.
  virtual Status RefreshSnapshot(SubTxn* sub, Timestamp snapshot) = 0;

  virtual Status Get(SubTxn* sub, TableId table, const Key& key,
                     std::string* value) = 0;
  virtual Status Put(SubTxn* sub, TableId table, const Key& key,
                     std::string_view value) = 0;
  virtual Status Delete(SubTxn* sub, TableId table, const Key& key) = 0;
  virtual Status Scan(
      SubTxn* sub, TableId table, const Key& lower, size_t limit,
      const std::function<bool(const Key&, const std::string&)>& cb) = 0;

  /// True if the sub-transaction buffered no writes (its commit timestamp
  /// is a borrowed view bound, not a real commit).
  virtual bool IsReadOnly(const SubTxn* sub) const = 0;

  /// Pre-commit: decide + expose the commit timestamp. The sub-transaction
  /// can still be aborted afterwards (Skeena commit-check failure).
  virtual Status PreCommit(SubTxn* sub, Timestamp* commit_ts) = 0;
  /// Post-commit: make results visible; returns the commit record's LSN.
  virtual Lsn PostCommit(SubTxn* sub, GlobalTxnId gtid,
                         bool cross_engine) = 0;
  virtual void Abort(SubTxn* sub) = 0;

  // ------------------------------------------------------------ logging
  /// This engine's write-ahead log. Every engine has one; the commit
  /// pipeline waits on its durable LSN, recovery pairs commit records
  /// across its device, and the replication shipper streams it.
  virtual LogManager* Log() const = 0;
};

}  // namespace skeena

#endif  // SKEENA_LOG_ENGINE_IFACE_H_
