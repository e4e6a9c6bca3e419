#ifndef SKEENA_CORE_TRANSACTION_H_
#define SKEENA_CORE_TRANSACTION_H_

#include <functional>
#include <memory>
#include <string>

#include "common/encoding.h"
#include "common/status.h"
#include "common/types.h"
#include "core/database.h"
#include "log/engine_iface.h"

namespace skeena {

/// A user-level transaction that may span both engines.
///
/// Transactions are not declared cross-engine up front (paper Section 3,
/// "Transparent Adoption"): accesses are routed by each table's home
/// engine, sub-transactions open lazily, and a transaction *becomes*
/// cross-engine on its first access to a second engine. Under Skeena:
///
///  * the anchor snapshot is acquired from the anchor engine at the first
///    data access (one atomic load);
///  * crossing into the non-anchor engine runs CSR snapshot selection
///    (Algorithm 1);
///  * Commit() runs the three-step protocol of Section 4.5 — pre-commit
///    both sub-transactions, CSR commit check (Algorithm 2), post-commit
///    both — then waits (CommitPipeline::WaitDurable) until both engines'
///    logs cover the transaction.
///
/// With Skeena disabled (Database option), sub-transactions use each
/// engine's native snapshots and commit independently: the anomaly baseline
/// and the paper's single-engine configurations.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  Status Get(const TableHandle& table, const Key& key, std::string* value);
  Status Put(const TableHandle& table, const Key& key,
             std::string_view value);
  Status Delete(const TableHandle& table, const Key& key);
  /// Visits visible rows with key >= lower (<= limit rows; 0 = unlimited).
  Status Scan(const TableHandle& table, const Key& lower, size_t limit,
              const std::function<bool(const Key&, const std::string&)>& cb);

  // Convenience overloads resolving the table by name.
  Status Get(const std::string& table, const Key& key, std::string* value);
  Status Put(const std::string& table, const Key& key,
             std::string_view value);

  /// Commits; blocks until the transaction's results are durable in every
  /// engine it touched (pipelined commit). Any abort flavour rolls back
  /// all sub-transactions.
  Status Commit();

  /// Rolls back all sub-transactions. Idempotent.
  void Abort();

  IsolationLevel isolation() const { return iso_; }
  Timestamp anchor_snapshot() const { return anchor_snap_; }
  bool is_cross_engine() const { return used_[0] && used_[1]; }
  GlobalTxnId gtid() const { return gtid_; }

 private:
  friend class Database;
  Transaction(Database* db, IsolationLevel iso);

  // Routes + prepares the sub-transaction for engine `e` (anchor snapshot
  // acquisition, CSR selection, read-committed refresh).
  Status PrepareAccess(int e);
  Status EnsureAnchorSnapshot();
  // Engine `e`'s snapshot under the current anchor snapshot: the anchor
  // snapshot itself in the anchor engine, the CSR's selection (Algorithm 1)
  // in the other. A failed selection aborts the transaction.
  Result<Timestamp> SelectSnapshot(int e);
  // Replica mode: pins the visibility-gate snapshot pair (both registries
  // pre-registered before the pair is read, so GC floors cannot pass it).
  Status EnsureReplicaSnapshots();
  // Aborts everything after an engine-level abort surfaced from a data op.
  Status HandleOpStatus(Status s);
  void ReleaseAnchorSlot();
  // Appends one op to the history record (no-op when not recording).
  void RecordOp(HistOpKind kind, int e, TableId table, const Key& key,
                std::string_view value, bool found);

  Database* db_;
  IsolationLevel iso_;
  GlobalTxnId gtid_;
  bool skeena_on_;

  Timestamp anchor_snap_ = kInvalidTimestamp;
  size_t anchor_slot_ = ~size_t{0};
  // Replica mode: the gate pair's other-engine component and its slot in
  // the replica-other registry (pins the other engine's purge floor).
  Timestamp replica_other_snap_ = kInvalidTimestamp;
  size_t replica_other_slot_ = ~size_t{0};

  std::unique_ptr<SubTxn> subs_[kNumEngines];
  bool used_[kNumEngines] = {false, false};

  enum class State { kActive, kCommitted, kAborted };
  State state_ = State::kActive;

  // Verification hook (core/history.h). Null unless the database records
  // histories, so the disabled cost on every data op is one branch. The
  // record is built privately here — no cross-thread traffic until the
  // finished record files into the recorder's thread shard.
  std::unique_ptr<TxnHistory> hist_;
  // Engine-local snapshot in effect for the next data op (tracks
  // read-committed refreshes); stamps each recorded op.
  Timestamp hist_snap_[kNumEngines] = {kInvalidTimestamp, kInvalidTimestamp};
};

}  // namespace skeena

#endif  // SKEENA_CORE_TRANSACTION_H_
