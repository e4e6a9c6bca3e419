#ifndef SKEENA_CORE_ENGINE_IFACE_H_
#define SKEENA_CORE_ENGINE_IFACE_H_

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "common/encoding.h"
#include "common/status.h"
#include "common/types.h"

namespace skeena {

class LogManager;
class StorageDevice;

/// Opaque engine-level sub-transaction handle (paper Section 1.1: a
/// cross-engine transaction consists of one sub-transaction per engine).
class SubTxn {
 public:
  virtual ~SubTxn() = default;
};

/// The narrow engine contract Skeena requires (paper Section 4.9): engines
/// stay autonomous; the coordinator only needs snapshot-based begin, the
/// pre-/post-commit split exposing commit timestamps, data access routing
/// and durable-LSN visibility for the pipelined commit daemon.
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
  virtual Status PreCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine,
                           Timestamp* commit_ts) = 0;
  /// Post-commit: make results visible; returns the commit record's LSN.
  virtual Lsn PostCommit(SubTxn* sub, GlobalTxnId gtid,
                         bool cross_engine) = 0;
  virtual void Abort(SubTxn* sub) = 0;

  // ------------------------------------------------------------ logging
  virtual Lsn CurrentLsn() const = 0;
  virtual Lsn DurableLsn() const = 0;
  virtual Status FlushLog() = 0;
  /// Blocks until `lsn` is durable (used by committing threads and the
  /// commit daemon). Returns true iff the caller blocked in the kernel.
  virtual bool WaitDurable(Lsn lsn) = 0;

  /// This engine's log manager, for observer wiring (the replication
  /// shipper hooks durable-LSN advances); null when the engine runs
  /// without a log.
  virtual LogManager* Log() = 0;

  // ----------------------------------------------------------- recovery
  virtual Status Recover(const std::set<GlobalTxnId>& excluded_gtids) = 0;
  /// Device holding this engine's log, for cross-engine recovery pairing.
  virtual const StorageDevice* LogDevice() const = 0;
};

}  // namespace skeena

#endif  // SKEENA_CORE_ENGINE_IFACE_H_
