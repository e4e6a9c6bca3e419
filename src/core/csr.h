#ifndef SKEENA_CORE_CSR_H_
#define SKEENA_CORE_CSR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/epoch.h"
#include "common/thread_annotations.h"
#include "common/sharded_counter.h"
#include "common/status.h"
#include "common/types.h"

namespace skeena {

/// Cross-engine Snapshot Registry (paper Section 4.2-4.4).
///
/// The CSR records mappings between snapshots (commit timestamps) in the
/// anchor engine and snapshots in the other engine, and is consulted
///  (1) when a transaction crosses into the other engine, to select a
///      snapshot that cannot produce skewed reads (Algorithm 1), and
///  (2) at commit, to verify that adding the new (anchor_cts, other_cts)
///      pair keeps the registry free of skew for future transactions
///      (Algorithm 2).
///
/// Design notes mirroring the paper:
///  * One-to-many mappings keyed by anchor snapshots (the anchor-engine
///    optimization of Section 4.3). Same-key values are collapsed to a
///    [vmin, vmax] interval per key: Algorithm 1 only ever uses the max
///    value at keys <= s, but Algorithm 2's high bound and same-key tie
///    check need the MIN — a reader that registered a small other-engine
///    view at this key still forbids later commits at earlier anchor
///    positions from publishing past it (dropping the min re-introduces
///    the Figure 2(a) skew). The interval keeps the "InnoDB-only under
///    Skeena" workload at a single CSR entry (Section 6.3).
///  * Multi-index: the registry is a list of partitions, each covering a
///    disjoint anchor-snapshot range with a bounded number of keys. Only
///    the newest partition accepts inserts; needing a new mapping in a
///    sealed partition aborts the transaction (rare, quantified in
///    Section 6.9). Recycling drops whole partitions older than the oldest
///    active anchor snapshot.
///  * Concurrency (see DESIGN.md "Concurrency model"): the read path is
///    lock-free. The partition list is an immutable snapshot array behind
///    an atomic pointer, swapped RCU-style and reclaimed through an
///    EpochManager; sealed partitions are immutable sorted arrays; the
///    open partition publishes appended entries with a release store of
///    its entry count (out-of-order inserts copy-on-write the partition).
///    SelectSnapshot's hit case (an already-recorded or implied mapping —
///    Algorithm 1's common case) and MinSelectableValue therefore run with
///    zero shared writes. Mutations (mapping installs, partition creation,
///    recycling) serialize on one writer mutex — exactly the operations
///    whose cost the paper's fast-slow bet already amortizes against the
///    slow engine's storage stack.
class SnapshotRegistry {
 public:
  struct Options {
    /// Keys per partition ("1000 entries per index" in Section 6.5).
    size_t partition_capacity = 1000;
    /// Attempt recycling every N CSR accesses ("once per 5000 accesses",
    /// Section 4.4). 0 disables automatic recycling. Accesses are counted
    /// per thread (sharded), so the trigger fires on each thread's own
    /// access count — the aggregate cadence matches the paper's within a
    /// factor of the thread count.
    uint64_t recycle_period = 5000;
    /// Replication hook: called once per state-changing mapping install
    /// (new entry, interval widen, copy-on-write insert, partition seed),
    /// in install order, while the writer mutex is held — the call order IS
    /// the CSR install journal the log shipper streams to replicas
    /// (docs/REPLICATION.md). Covered no-op installs are not reported: they
    /// do not change the registry, so replaying the reported sequence
    /// reproduces identical mapping intervals. Keep the callback cheap.
    std::function<void(Timestamp key, Timestamp value)> install_observer;
  };

  struct Stats {
    uint64_t accesses = 0;
    uint64_t mappings = 0;
    uint64_t select_aborts = 0;   // snapshot selection failed
    uint64_t commit_aborts = 0;   // Algorithm 2 bounds violated
    uint64_t sealed_aborts = 0;   // mapping needed in a sealed partition
    /// commit_aborts split by the bound that failed; the four sum to
    /// commit_aborts. `high`: a later anchor key already maps to a smaller
    /// other-engine value. `low`: an earlier key's view already covers the
    /// commit. `reader_tie`: a reader at exactly the anchor commit
    /// timestamp registered a view that misses the other-engine half.
    /// `sealed`: the anchor position predates the registry or lands in a
    /// sealed partition (also counted in sealed_aborts).
    uint64_t commit_aborts_high = 0;
    uint64_t commit_aborts_low = 0;
    uint64_t commit_aborts_reader_tie = 0;
    uint64_t commit_aborts_sealed = 0;
    uint64_t partitions_created = 0;
    uint64_t partitions_recycled = 0;
  };

  /// `epoch` is the reclamation domain for retired partition lists; pass
  /// the database-owned manager. When null (standalone use, tests) the
  /// registry owns a private one.
  explicit SnapshotRegistry(Options options, EpochManager* epoch = nullptr);
  ~SnapshotRegistry();

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Algorithm 1: selects the other-engine snapshot for a transaction whose
  /// anchor snapshot is `anchor_snap`. `latest_other` supplies the latest
  /// snapshot in the other engine for the no-candidate case. Returns
  /// kSkeenaAbort if the required mapping cannot be recorded.
  Result<Timestamp> SelectSnapshot(Timestamp anchor_snap,
                                   const std::function<Timestamp()>& latest_other);

  /// Algorithm 2: commit check + mapping installation for a cross-engine
  /// transaction committing with the given pair of commit timestamps.
  ///
  /// The `*_wrote` flags distinguish real commits from read-only
  /// sub-transactions whose "commit timestamp" is a borrowed view / begin
  /// bound; they type the bound comparisons:
  ///
  ///  * Low bound, `other_engine_wrote`: a mapping at a strictly earlier
  ///    anchor position with value v means a reader there already observed
  ///    the other engine through v; committing other-engine effects *at* v
  ///    would expose them to that reader while the anchor effects stay
  ///    ahead of it (Figure 2 skew) — so a real commit requires
  ///    other_cts > low, while a read-only timestamp may equal it.
  ///  * Equal anchor keys, `anchor_engine_wrote && other_engine_wrote`:
  ///    a reader whose anchor snapshot equals our anchor commit timestamp
  ///    *does* see our anchor writes (visibility is inclusive), so a
  ///    same-key mapping with value < other_cts is a reader that will see
  ///    our anchor half but not our other half — abort. Anchor-read-only
  ///    ties stay unconstrained (DSI Rule 4 allows <=; there is nothing of
  ///    ours to see in the anchor).
  Status CommitCheck(Timestamp anchor_cts, Timestamp other_cts,
                     bool anchor_engine_wrote = true,
                     bool other_engine_wrote = true);

  /// The commit-timestamp pair a pre-commit callback hands to
  /// OrderedCommitCheck (same meaning as CommitCheck's arguments).
  struct CommitPair {
    Timestamp anchor_cts = 0;
    Timestamp other_cts = 0;
    bool anchor_engine_wrote = false;
    bool other_engine_wrote = false;
  };

  /// One cross-engine commit order: runs `pre_commit(CommitPair*)` — which
  /// draws the engines' commit timestamps and fills the pair — and then
  /// Algorithm 2 on the pair, all under the writer mutex. Every commit
  /// that installs a mapping goes through here, so no two such commits'
  /// timestamp draws interleave: their anchor and other-engine orders
  /// agree, and a reader's selection (SelectSlow, also under the mutex)
  /// never straddles a commit whose first timestamp is drawn but whose
  /// second is not. A non-OK status from `pre_commit` is returned as is;
  /// the caller aborts after this returns, outside the mutex. Lock order:
  /// write_mu_ is taken before anything `pre_commit` acquires (record
  /// latches, engine-internal latches, log ring space).
  template <typename PreCommit>
  Status OrderedCommitCheck(PreCommit&& pre_commit) {
    TickAccess();  // may try-lock write_mu_ to recycle: before we hold it
    MutexLock lock(write_mu_);
    CommitPair pair;
    SKEENA_RETURN_NOT_OK(pre_commit(&pair));
    return CommitCheckLocked(pair.anchor_cts, pair.other_cts,
                             pair.anchor_engine_wrote,
                             pair.other_engine_wrote);
  }

  /// Provider of the oldest anchor snapshot still in use; partitions
  /// entirely below it are recycled.
  void SetMinAnchorProvider(std::function<Timestamp()> provider) {
    min_anchor_provider_ = std::move(provider);
  }

  /// Drops fully-stale partitions now (also runs automatically every
  /// recycle_period accesses). Dropped partitions are retired through the
  /// epoch manager, never freed under a latch a reader could race.
  void Recycle();

  /// Replica-side replay of one primary install-journal entry (the stream
  /// the install_observer produced). Installs unconditionally — no
  /// Algorithm 2 bounds: the primary already ran them — and tolerates
  /// entries below the local recycling floor (stale resends). Replaying a
  /// journal prefix in order reproduces the primary's mapping intervals.
  Status ReplayInstall(Timestamp key, Timestamp value);

  /// The smallest other-engine snapshot SelectSnapshot could still hand to
  /// a transaction whose anchor snapshot is >= `anchor_snap`: the
  /// predecessor mapping's max value at `anchor_snap` (selection values are
  /// monotone in the anchor key). kMaxTimestamp when no mapping constrains
  /// the selection (the fallback then uses the live engine clock). Engine
  /// GC uses this to avoid reclaiming versions a live anchor snapshot may
  /// still cross into (the engine-side analogue of Section 4.4 recycling).
  /// Lock-free: reads the published list under epoch protection.
  Timestamp MinSelectableValue(Timestamp anchor_snap) const;

  size_t PartitionCount() const;
  size_t EntryCount() const;
  Stats stats() const;

  /// One published mapping: anchor-snapshot key and its [vmin, vmax]
  /// other-engine interval.
  struct MappingEntry {
    Timestamp key;
    Timestamp vmin;
    Timestamp vmax;
  };
  /// Snapshot of every published mapping, sorted by key, plus the
  /// recycling floor — the black-box checker verifies committed
  /// cross-engine pairs against this (core/history.h). Lock-free; call on
  /// a quiesced registry for an exact picture.
  std::vector<MappingEntry> DumpMappings(Timestamp* floor = nullptr) const;

  /// Test-only: disables Algorithm 2's abort conditions (mappings still
  /// install) so the mutation test can prove the checker actually catches
  /// the skew the gate prevents. Always compiled — CI test lanes build
  /// with NDEBUG — at the cost of one relaxed load per commit check.
  void TestOnlyWeakenCommitGate(bool weaken) {
    // relaxed-ok: test-only flag; no ordering with registry state needed.
    weaken_gate_.store(weaken, std::memory_order_relaxed);
  }

  EpochManager& epoch() { return *epoch_; }

 private:
  struct Entry {
    Timestamp key;  // anchor-engine snapshot; immutable once published
    // [vmin, vmax] interval of the other-engine snapshots mapped to the
    // key. Widened in place (single-word atomic stores) by the serialized
    // writer; read lock-free.
    std::atomic<Timestamp> vmin;
    std::atomic<Timestamp> vmax;
  };

  /// A partition owns a fixed-capacity sorted entry array. Sealed
  /// partitions are fully immutable. The open (last) partition appends by
  /// writing entries[count] and release-publishing the new count; readers
  /// acquire-load the count and search only the published prefix.
  /// Out-of-order inserts (rare) replace the partition copy-on-write.
  struct Partition {
    Partition(Timestamp min_key_arg, size_t capacity_arg)
        : min_key(min_key_arg),
          capacity(capacity_arg),
          entries(new Entry[capacity_arg]) {}

    // First key covered. Immutable per partition object: an insert below
    // every existing key (possible only in partition 0, above the floor)
    // goes through the copy-on-write path, whose replacement carries the
    // lowered min_key — so the published list is always sorted and
    // location searches need no atomics here.
    const Timestamp min_key;
    const size_t capacity;
    std::atomic<size_t> count{0};
    std::unique_ptr<Entry[]> entries;
  };

  /// The RCU-published snapshot of the partition list. Immutable; writers
  /// build a new one and swap the pointer, retiring the old through the
  /// epoch manager. Partitions are shared across successive lists and are
  /// retired exactly once: when a writer drops them from the newest list
  /// (copy-on-write replacement or recycling).
  struct PartitionList {
    // Smallest anchor snapshot still covered: recycling raises it;
    // snapshots below it abort (their partitions are gone).
    Timestamp floor = 0;
    std::vector<Partition*> parts;
  };

  enum class MapResult { kOk, kSealed };

  static constexpr size_t kNpos = ~size_t{0};

  // Locates the partition covering `snap` (last partition whose min_key <=
  // snap; binary search). Returns kNpos only when `snap` predates the
  // recycling floor.
  static size_t LocatePartition(const PartitionList& list, Timestamp snap);

  // First published index in `p` with key >= / > `key`.
  static size_t LowerBound(const Partition& p, size_t n, Timestamp key);
  static size_t UpperBound(const Partition& p, size_t n, Timestamp key);

  // Installs (key, value) into the list (append, interval widen, COW
  // insert, or new-partition spawn). Caller holds write_mu_ and passes the
  // location it already computed on the current list: `idx` =
  // LocatePartition(list, key) (must not be kNpos; the list must be
  // non-empty) and `lb` = LowerBound(partition idx, its count, key) — both
  // callers (SelectSlow, CommitCheck) have just searched the same list
  // under the same mutex, so installs pay no repeated O(log n) searches.
  MapResult InstallLocked(Timestamp key, Timestamp value, size_t idx,
                          size_t lb) SKEENA_REQUIRES(write_mu_);

  // Appends a fresh partition seeded with (key, value). Caller holds
  // write_mu_.
  void AppendPartitionLocked(Timestamp key, Timestamp value)
      SKEENA_REQUIRES(write_mu_);

  // Swaps in `next` and retires the previous list. Caller holds write_mu_.
  void PublishLocked(PartitionList* next) SKEENA_REQUIRES(write_mu_);

  // Slow path of SelectSnapshot: a new mapping (or first partition) is
  // required.
  Result<Timestamp> SelectSlow(Timestamp anchor_snap,
                               const std::function<Timestamp()>& latest_other);

  // Algorithm 2 body shared by both CommitCheck entry points.
  Status CommitCheckLocked(Timestamp anchor_cts, Timestamp other_cts,
                           bool anchor_engine_wrote, bool other_engine_wrote)
      SKEENA_REQUIRES(write_mu_);

  // Counts one commit-check abort against the bound that failed and
  // returns the abort status carrying `msg`.
  Status CommitAbort(ShardedCounter& bound, const char* msg);

  void RecycleLocked(Timestamp min_snap) SKEENA_REQUIRES(write_mu_);
  void TickAccess();

  Options options_;
  std::function<Timestamp()> min_anchor_provider_;

  std::unique_ptr<EpochManager> owned_epoch_;
  EpochManager* epoch_;

  // Serializes all mutations (mapping installs, partition creation,
  // recycling) and, through OrderedCommitCheck, the commit-timestamp draws
  // of every commit that installs a mapping. Readers never take it. list_
  // itself is NOT guarded (the read path is lock-free under epoch
  // protection); only the exchange-and-retire in PublishLocked requires it.
  Mutex write_mu_;
  std::atomic<PartitionList*> list_;

  std::atomic<bool> weaken_gate_{false};

  ShardedCounter accesses_;
  ShardedCounter mappings_;
  ShardedCounter select_aborts_;
  ShardedCounter commit_aborts_;
  ShardedCounter sealed_aborts_;
  ShardedCounter commit_aborts_high_;
  ShardedCounter commit_aborts_low_;
  ShardedCounter commit_aborts_reader_tie_;
  ShardedCounter commit_aborts_sealed_;
  ShardedCounter partitions_created_;
  ShardedCounter partitions_recycled_;
};

}  // namespace skeena

#endif  // SKEENA_CORE_CSR_H_
