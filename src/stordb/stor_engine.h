#ifndef SKEENA_STORDB_STOR_ENGINE_H_
#define SKEENA_STORDB_STOR_ENGINE_H_

#include <deque>
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
#include "index/btree.h"
#include "log/engine_iface.h"
#include "log/log_manager.h"
#include "log/redo.h"
#include "stordb/buffer_pool.h"
#include "stordb/lock_manager.h"
#include "stordb/stor_txn.h"
#include "stordb/trx_sys.h"

namespace skeena::stordb {

/// Storage-centric engine (InnoDB-like): the slow half of the paper's
/// fast-slow architecture.
///
/// Structural cost fidelity to InnoDB, which is what the paper's evaluation
/// exercises:
///  * rows live in 16KB slotted pages behind a buffer pool — the
///    storage-resident experiments size the pool below the working set so
///    row accesses pay the storage stack;
///  * updates are in place with before-images in undo chains; readers
///    reconstruct old versions through roll pointers;
///  * read views (watermarks + active-TID list) are created under the
///    trx-sys mutex — the expensive snapshot acquisition that makes memdb
///    the CSR anchor (paper Section 4.3);
///  * writes take record X locks (2PL; serializable mode adds S read
///    locks), giving the commit-ordering property (Section 4.7);
///  * commit draws a serialisation_no from the TID counter — exactly the
///    value the paper's MySQL integration feeds to Skeena's commit check
///    (Section 5).
///
/// Undo/state reclamation (docs/RECLAMATION.md) is unified with memdb's
/// and the CSR's: readers pin an EpochGuard for each roll-chain walk,
/// finished transactions queue their undo batches FIFO, and the purge
/// floor — min(oldest registered view horizon, external provider) —
/// forwards ripe batches to the shared EpochManager, which frees them
/// after the grace period.
///
/// Implements EngineIface: Begin hands out a StorTxn, and every
/// transaction method downcasts its SubTxn back to one at entry.
class StorEngine final : public EngineIface {
 public:
  using DeviceFactory =
      std::function<std::unique_ptr<StorageDevice>(const std::string& name)>;

  struct Options {
    size_t buffer_pool_pages = 2048;
    size_t pool_shards = 8;
    LogManager::Options log;
    /// Latency injected by the default (in-memory) table-space devices;
    /// DeviceLatency::Ssd() models the paper's SSD runs (Section 6.7).
    DeviceLatency data_latency = DeviceLatency::Tmpfs();
    /// Overrides the default MemDevice factory (e.g., FileDevice).
    DeviceFactory device_factory;
    LockManager::Options lock;
    /// Purge states/undo every N commits.
    uint64_t purge_interval = 512;
  };

  /// `epoch` is the reclamation domain retired undo batches are freed
  /// through; pass the database-owned manager so all engines and the CSR
  /// share one epoch domain. When null (standalone use, tests) the engine
  /// owns a private one.
  StorEngine(std::unique_ptr<StorageDevice> log_device, Options options,
             EpochManager* epoch = nullptr);
  ~StorEngine();

  StorEngine(const StorEngine&) = delete;
  StorEngine& operator=(const StorEngine&) = delete;

  EngineKind kind() const override { return EngineKind::kStor; }

  // ----------------------------------------------------------- schema
  TableId CreateTable(const std::string& name,
                      size_t max_value_size) override;

  // ------------------------------------------------------- transactions
  /// Latest commit-order snapshot (for CSR Algorithm 1's fallback).
  Timestamp LatestSnapshot() const override {
    return trx_sys_.LatestSerSnapshot();
  }

  /// Begins a transaction. `snapshot == kMaxTimestamp` requests a native
  /// InnoDB-style read view (created lazily at first access); any other
  /// value is a CSR-selected commit-order snapshot: the engine creates the
  /// latest view and applies the Skeena watermark adjustment (Section 5).
  /// Returns nullptr when a CSR-selected snapshot has fallen below the
  /// undo-purge floor (the caller must re-select; Skeena retries with a
  /// fresh snapshot).
  std::unique_ptr<SubTxn> Begin(IsolationLevel iso,
                                Timestamp snapshot = kMaxTimestamp) override;

  /// Replaces the transaction's view (read-committed refresh). Fails with
  /// kSkeenaAbort when a CSR-selected snapshot predates the purge floor.
  Status RefreshSnapshot(SubTxn* sub,
                         Timestamp snapshot = kMaxTimestamp) override;

  /// External bound on the purge horizon (exclusive, in ser-number space):
  /// the coordinator supplies the smallest view horizon a live cross-engine
  /// transaction could still register, so state/undo purge never outruns a
  /// crossing that has not materialized its read view yet.
  void SetPurgeHorizonProvider(std::function<uint64_t()> provider) {
    purge_horizon_provider_ = std::move(provider);
  }

  Status Get(SubTxn* sub, TableId table, const Key& key,
             std::string* value) override;
  Status Put(SubTxn* sub, TableId table, const Key& key,
             std::string_view value) override;
  Status Delete(SubTxn* sub, TableId table, const Key& key) override;
  Status Scan(SubTxn* sub, TableId table, const Key& lower, size_t limit,
              const std::function<bool(const Key&, const std::string&)>& cb)
      override;

  bool IsReadOnly(const SubTxn* sub) const override {
    return static_cast<const StorTxn*>(sub)->read_only();
  }

  /// Pre-commit: assigns the serialisation number and stores it in
  /// `*commit_ts` unless that is null. Logs nothing (redo images go out at
  /// post-commit). Locks remain held. On failure the transaction is rolled
  /// back.
  Status PreCommit(SubTxn* sub, Timestamp* commit_ts = nullptr) override;

  /// Post-commit: publishes the commit, appends the commit (or commit-end)
  /// record, releases locks. Returns the commit record's LSN.
  Lsn PostCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine) override;

  /// Aborts an active or pre-committed transaction: rolls back in-place
  /// changes from undo, then releases locks.
  void Abort(SubTxn* sub) override;

  // ------------------------------------------------------- replication
  /// Commit horizon for log shipping (see MemEngine::ReplicationHorizon):
  /// every commit with ser_no <= the returned value has appended ALL of
  /// its log records — the committing-window registry is held from before
  /// the serialisation-number draw until after the last append.
  Timestamp ReplicationHorizon() const;

  /// Replica-side commit of one replayed transaction: stamps it with the
  /// primary-assigned serialisation number (TrxSys::ForceSerNo) instead of
  /// drawing one, then runs the normal post-commit (redo logging, commit
  /// publication, lock release). The transaction must have been built
  /// through the public write path (Begin + Put/Delete) and must not be
  /// read-only. Call in ascending-ser order (single applier thread).
  Lsn CommitReplicated(SubTxn* sub, GlobalTxnId gtid, uint64_t ser);

  // ------------------------------------------------------------- misc
  LogManager* Log() const override { return log_.get(); }

  /// Compatibility shim: benchsuite/harness.cc reads
  /// `db->stor()->engine()->stats()` and `->pool()`. Retired by ROADMAP
  /// direction 1.
  StorEngine* engine() { return this; }
  BufferPool* pool() { return pool_.get(); }
  TrxSys* trx_sys() { return &trx_sys_; }
  LockManager* lock_manager() { return &locks_; }

  /// Reclamation domain undo batches retire through (the database-owned
  /// manager unless this engine runs standalone).
  EpochManager& epoch() { return *epoch_; }

  /// Undo-purge floor (exclusive, in ser-number space): batches whose
  /// retire bound is below it have been handed to the epoch manager.
  /// Monotone. Test hook.
  uint64_t PurgeFloor() const {
    return purge_floor_.load(std::memory_order_acquire);
  }

  /// Recovery's apply step: writes `groups`' row images in place (see
  /// MemEngine::ApplyRecovered for the contract), then moves the
  /// serialisation counter past the newest commit.
  Status ApplyRecovered(const std::vector<CommittedGroup>& groups);

  struct Stats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t undo_purged = 0;
    double pool_hit_ratio = 1.0;
    /// Fetches that parked behind an in-flight eviction write-back of the
    /// same page (the read-after-evict window; see BufferPool).
    uint64_t pool_flush_waits = 0;
    /// Dirty eviction write-backs that reached the device.
    uint64_t pool_write_backs = 0;
  };
  Stats stats() const;

 private:
  struct StorTable {
    TableId id;
    std::string name;
    size_t max_value_size;
    size_t slot_size;
    size_t slots_per_page;
    BTree index;  // key -> Rid
    std::unique_ptr<StorageDevice> device;

    Mutex insert_mu;
    uint32_t pages_allocated SKEENA_GUARDED_BY(insert_mu) = 0;
    size_t tail_slots_used SKEENA_GUARDED_BY(insert_mu) = 0;
  };

  StorTable* GetTable(TableId id) const;
  void EnsureTid(StorTxn* txn);
  Status EnsureView(StorTxn* txn);

  // Allocates a fresh slot for an insert.
  Rid AllocateSlot(StorTable* t);

  // Resolves the version of `rid` visible to txn's view into *value (the
  // caller's buffer, capacity reused); *found=false, and *value untouched,
  // if no visible, non-deleted version exists.
  Status ReadVisibleRow(StorTxn* txn, StorTable* t, Rid rid,
                        std::string* value, bool* found);

  // Shared write path for Put/Delete.
  Status WriteRow(StorTxn* txn, StorTable* t, const Key& key,
                  std::string_view value, bool tombstone);

  // Writes the locked row `rid` with one page pin: under one exclusive
  // latch it checks the head version's visibility (updates only), then
  // installs the new version. A write-write conflict unlatches and aborts.
  Status WriteRowLatched(StorTxn* txn, StorTable* t, Rid rid, const Key& key,
                         std::string_view value, bool tombstone,
                         bool fresh_insert);

  // Overwrites the latched `slot` in place, capturing its before-image as
  // an undo record and buffering the after-image for redo, in the
  // transaction's undo and redo arenas.
  void InstallRowVersion(StorTxn* txn, StorTable* t, Rid rid, uint8_t* slot,
                         const Key& key, std::string_view value,
                         bool tombstone, bool fresh_insert);

  void Rollback(StorTxn* txn);
  void FinishTxn(StorTxn* txn);
  void RetireUndos(StorTxn* txn);
  // `thread_commits` is the committing thread's shard-local commit count
  // (the purge_interval trigger clock).
  void MaybePurge(uint64_t thread_commits);

  // Row write used by recovery (no locks, single-threaded).
  Status RecoveryApply(StorTable* t, const Key& key, const std::string& value,
                       bool tombstone);

  Options options_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
  TrxSys trx_sys_;
  LockManager locks_;
  std::atomic<uint64_t> next_lock_owner_{1};
  // Committers registered from before their ser draw until their last log
  // append; MinActive over it bounds ReplicationHorizon().
  ActiveSnapshotRegistry committing_;

  mutable Mutex tables_mu_;
  std::vector<std::unique_ptr<StorTable>> tables_
      SKEENA_GUARDED_BY(tables_mu_);

  // Reclamation domain (shared with the CSR and the other engine when
  // database-owned).
  std::unique_ptr<EpochManager> owned_epoch_;
  EpochManager* epoch_;

  // Finished transactions' undo batches, FIFO in finish order, each tagged
  // with its retire bound in ser space (commit: own ser_no; abort: the live
  // counter — see RetireUndos). MaybePurge drains the ripe prefix,
  // concatenates the batches' chunk lists and retires them to the epoch
  // manager as one entry; out-of-order bounds (a smaller ser finishing
  // after a larger one) just wait one extra round behind the head, which
  // is always safe.
  Mutex pending_mu_;
  struct PendingUndos {
    uint64_t ser;
    // The transaction's released arena: its chunk list plus its undo
    // record count (the undo_purged diagnostic).
    UndoArena::Batch batch;
  };
  std::deque<PendingUndos> pending_undos_ SKEENA_GUARDED_BY(pending_mu_);

  // Single undo-purge floor (monotone, exclusive in ser space). Advanced
  // to min(view-registry scan, provider) every purge_interval commits; the
  // old two-level published/apply floor pair is gone for the same reasons
  // as memdb's (see mem_engine.h and docs/RECLAMATION.md). purge_round_mu_
  // only makes rounds non-reentrant (PurgeStates keeps one-round state for
  // the aborted-entry grace period); it carries no floor protocol.
  std::atomic<uint64_t> purge_floor_{0};
  Mutex purge_round_mu_;
  std::function<uint64_t()> purge_horizon_provider_;

  // Hot-path counters are sharded so committing threads never contend on
  // a stats cache line; MaybePurge triggers off the committing thread's
  // shard-local count instead of a folded total. Only stats() folds them.
  ShardedCounter commit_count_;
  ShardedCounter abort_count_;
  ShardedCounter undo_purged_;
};

}  // namespace skeena::stordb

#endif  // SKEENA_STORDB_STOR_ENGINE_H_
