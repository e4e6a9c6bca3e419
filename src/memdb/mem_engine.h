#ifndef SKEENA_MEMDB_MEM_ENGINE_H_
#define SKEENA_MEMDB_MEM_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/active_registry.h"
#include "common/epoch.h"
#include "common/sharded_counter.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "log/engine_iface.h"
#include "log/log_manager.h"
#include "log/redo.h"
#include "memdb/mem_table.h"
#include "memdb/mem_txn.h"

namespace skeena::memdb {

/// Memory-optimized MVCC engine (ERMIA-like).
///
/// Implements the fast half of the paper's fast-slow architecture:
///  * snapshots are a single atomic load of the engine clock — the property
///    that makes memdb the natural CSR *anchor engine* (Section 4.3);
///  * commit timestamps come from an atomic fetch-add;
///  * snapshot isolation with first-committer-wins write conflicts;
///  * serializability via OCC read-set validation, which forbids
///    anti-dependencies and therefore exhibits the commit-ordering property
///    Skeena requires (Section 4.7);
///  * pre-/post-commit split with buffered writes, so a Skeena commit-check
///    failure after pre-commit aborts without any shared-state undo;
///  * append-only log with group commit; log-replay recovery.
///
/// Version reclamation (docs/RECLAMATION.md) is unified with the CSR's:
/// readers pin an EpochGuard for each chain traversal, committers unlink
/// versions older than the engine's single GC floor and retire them through
/// the shared EpochManager. The floor is min(oldest registered snapshot,
/// external GC-horizon provider) and only ever advances; pinned
/// (coordinator-chosen) snapshots below it are rejected at Begin.
///
/// Implements EngineIface: Begin hands out a MemTxn, and every transaction
/// method downcasts its SubTxn back to one at entry.
class MemEngine final : public EngineIface {
 public:
  /// First-chunk size of the active-snapshot registry (it grows by
  /// chunks, so this is not a cap on concurrent transactions).
  static constexpr size_t kActiveSlotsPerChunk = 4096;

  struct Options {
    LogManager::Options log;
    /// ERMIA appends a commit record even for read-only transactions
    /// (observed in paper Section 6.4); kept for fidelity, switchable for
    /// ablations.
    bool log_read_only_commits = true;
    /// Advance the GC floor every N commits (per committing thread).
    uint64_t gc_interval = 256;
  };

  /// `epoch` is the reclamation domain retired versions are freed through;
  /// pass the database-owned manager so all engines and the CSR share one
  /// epoch domain. When null (standalone use, tests) the engine owns a
  /// private one.
  MemEngine(std::unique_ptr<StorageDevice> log_device, Options options,
            EpochManager* epoch = nullptr);
  ~MemEngine();

  MemEngine(const MemEngine&) = delete;
  MemEngine& operator=(const MemEngine&) = delete;

  EngineKind kind() const override { return EngineKind::kMem; }

  // ----------------------------------------------------------- schema
  /// memdb values are heap strings: `max_value_size` is not enforced.
  TableId CreateTable(const std::string& name,
                      size_t max_value_size) override;
  MemTable* GetTable(TableId id) const;

  // ------------------------------------------------------- transactions
  /// Latest engine snapshot: one atomic load (the cheap anchor-snapshot
  /// acquisition the paper leverages).
  Timestamp LatestSnapshot() const override {
    return clock_.load(std::memory_order_seq_cst);
  }

  /// Begins a transaction. `snapshot == kMaxTimestamp` means "latest".
  /// A coordinator-chosen (cross-engine) snapshot that has already fallen
  /// below the version-GC floor returns nullptr: the versions it would read
  /// may be unlinked, so the caller must re-select (Skeena treats this like
  /// a CSR abort and retries with a fresh snapshot).
  ///
  /// Contract for pinned snapshots: between selecting the snapshot and this
  /// call, the caller must hold the floor below it through the GC-horizon
  /// provider (the Database's anchor registration + CSR MinSelectableValue
  /// chain does exactly this); the floor check here only rejects snapshots
  /// that were already stale at selection time.
  std::unique_ptr<SubTxn> Begin(IsolationLevel iso,
                                Timestamp snapshot = kMaxTimestamp) override;

  /// Re-acquires the transaction's snapshot (read-committed mode refreshes
  /// on every record access, paper Table 2). `snapshot == kMaxTimestamp`
  /// means "latest"; a coordinator-chosen snapshot below the GC floor fails
  /// with kSkeenaAbort (like Begin, the caller must re-select).
  Status RefreshSnapshot(SubTxn* sub,
                         Timestamp snapshot = kMaxTimestamp) override;

  Status Get(SubTxn* sub, TableId table, const Key& key,
             std::string* value) override;
  Status Put(SubTxn* sub, TableId table, const Key& key,
             std::string_view value) override;
  Status Delete(SubTxn* sub, TableId table, const Key& key) override;

  /// Visits visible rows with key >= lower in key order; stops when the
  /// callback returns false or `limit` rows were delivered (0 = unlimited).
  /// The callback runs outside the epoch pin (row values are copied out
  /// first), so it may block freely.
  Status Scan(SubTxn* sub, TableId table, const Key& lower, size_t limit,
              const std::function<bool(const Key&, const std::string&)>& cb)
      override;

  bool IsReadOnly(const SubTxn* sub) const override {
    return static_cast<const MemTxn*>(sub)->read_only();
  }

  /// Pre-commit: latches the write set, draws the commit timestamp
  /// (fetch-add) and validates (first-committer-wins; OCC read validation
  /// under serializable). Logs nothing: images go out at post-commit. On
  /// failure the transaction is fully aborted. After success the
  /// transaction may still be aborted with Abort() (used when Skeena's
  /// commit check fails). Stores the commit timestamp in `*commit_ts`
  /// unless it is null.
  Status PreCommit(SubTxn* sub, Timestamp* commit_ts = nullptr) override;

  /// Post-commit: installs the buffered versions (results become visible),
  /// releases latches and appends the commit / commit-end record. Returns
  /// the LSN the commit is durable at.
  Lsn PostCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine) override;

  /// Aborts an active or pre-committed transaction.
  void Abort(SubTxn* sub) override;

  // ------------------------------------------------------- replication
  /// Commit horizon for log shipping: every commit with cts <= the returned
  /// value has appended ALL of its log records (the committing-window
  /// registry is held from before the timestamp draw until after the last
  /// append, so the scan cannot miss an in-flight committer). Log append
  /// order is not cts order, so a plain "ship up to LSN X" carries no such
  /// guarantee on its own — the shipper samples this horizon, then the LSN.
  Timestamp ReplicationHorizon() const;

  /// Replica-side apply of one replayed committed transaction: installs the
  /// write images at `group.cts`, re-logs them locally, and advances the
  /// clock to at least that. Must be called in ascending-cts order (single
  /// applier thread); concurrent read-only transactions are safe — installs
  /// take the record latches like a primary post-commit. The images move
  /// into the new versions, so `group` is left without its values.
  Status ApplyReplicated(CommittedGroup&& group);

  // ------------------------------------------------------------- misc
  LogManager* Log() const override { return log_.get(); }

  /// Compatibility shim: benchsuite/harness.cc reads
  /// `db->mem()->engine()->stats()`. Retired by ROADMAP direction 1.
  MemEngine* engine() { return this; }

  /// Reclamation domain versions retire through (the database-owned manager
  /// unless this engine runs standalone).
  EpochManager& epoch() { return *epoch_; }

  /// Oldest snapshot any active transaction may use (GC horizon input).
  Timestamp MinActiveSnapshot() const {
    return active_.MinActive(LatestSnapshot());
  }

  /// Version-GC floor: versions strictly older than the newest version at
  /// or below it are unlinked at install time. Monotone. Test hook.
  Timestamp GcFloor() const {
    return gc_floor_.load(std::memory_order_acquire);
  }

  /// External bound on the GC floor: the coordinator supplies the oldest
  /// snapshot a live cross-engine transaction could still select into this
  /// engine (via the CSR), so version unlinking never outruns a crossing
  /// that has not materialized its read view yet. Must be set before
  /// concurrent use; consulted on every floor advance.
  void SetGcHorizonProvider(std::function<Timestamp()> provider) {
    gc_horizon_provider_ = std::move(provider);
  }

  /// Recovery's apply step: installs `groups` (this engine's log read by
  /// ReadCommittedGroups, in commit-timestamp order) into the (already
  /// created) tables, then sets the clock and the GC floor to the newest
  /// commit. Single-threaded, before the engine serves transactions. The
  /// images move into the new versions rather than being copied, so each
  /// row image is held once.
  Status ApplyRecovered(std::vector<CommittedGroup>&& groups);

  struct Stats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t versions_pruned = 0;
  };
  Stats stats() const;

 private:
  Version* ReadVisible(Record* rec, Timestamp snapshot) const;
  void LatchWriteSet(MemTxn* txn);
  void UnlatchWriteSet(MemTxn* txn);
  // Unlinks the prunable sub-chain below `new_head` (caller holds the
  // record latch) and returns it for retirement after the latches drop,
  // or nullptr when nothing is prunable.
  Version* PruneVersions(Version* new_head, Timestamp floor);
  // `thread_commits` is the committing thread's shard-local commit count,
  // used as the periodic trigger clock (every gc_interval commits by a
  // thread) without folding the sharded counter on the hot path.
  void MaybeAdvanceGcFloor(uint64_t thread_commits);

  Options options_;
  std::unique_ptr<LogManager> log_;

  std::atomic<Timestamp> clock_{1};  // ts 1 = pre-loaded ("genesis") data
  ActiveSnapshotRegistry active_;
  // Committers registered from before their cts draw until their last log
  // append; MinActive over it bounds ReplicationHorizon().
  ActiveSnapshotRegistry committing_;

  // Reclamation domain (shared with the CSR and the other engine when
  // database-owned). Declared before the floor/counters so a standalone
  // engine's retired versions outlive everything that retires into it.
  std::unique_ptr<EpochManager> owned_epoch_;
  EpochManager* epoch_;

  // Single version-GC floor (monotone). Inline pruning at install reads it;
  // MaybeAdvanceGcFloor CAS-maxes it to min(registry scan, provider). The
  // old two-level published/apply floor pair is gone: MinActive waits out
  // in-flight registrations (exact scan) and pinned snapshots are covered
  // by the provider from selection to registration, so one floor value is
  // simultaneously safe to prune with and safe to validate against. See
  // docs/RECLAMATION.md for the full argument. gc_round_mu_ only dedups
  // concurrent advance rounds (try-lock); it carries no floor protocol.
  std::atomic<Timestamp> gc_floor_{1};
  Mutex gc_round_mu_;
  std::function<Timestamp()> gc_horizon_provider_;

  // Hot-path counters are sharded so committing threads never contend on
  // a stats cache line; only stats() folds them.
  ShardedCounter commit_count_;
  ShardedCounter abort_count_;
  ShardedCounter pruned_count_;

  mutable Mutex tables_mu_;
  std::vector<std::unique_ptr<MemTable>> tables_ SKEENA_GUARDED_BY(tables_mu_);
};

}  // namespace skeena::memdb

#endif  // SKEENA_MEMDB_MEM_ENGINE_H_
