#ifndef SKEENA_STORDB_LOCK_MANAGER_H_
#define SKEENA_STORDB_LOCK_MANAGER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "stordb/page.h"

namespace skeena::stordb {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// Record (row) lock manager with shared/exclusive modes, FIFO waiting,
/// waits-for deadlock detection and a timeout backstop.
///
/// stordb takes X locks on every write (and S locks on reads under
/// serializable isolation), held until post-commit — 2PL, which exhibits the
/// commit-ordering property Skeena's serializability argument relies on
/// (paper Section 4.7). Lock waits are also the mechanism behind the
/// paper's headline TPC-C observation: Delivery on InnoDB is slow because
/// it holds record locks on NEW_ORDER rows (Section 6.9).
class LockManager {
 public:
  /// Lock-table hash buckets (one mutex each).
  static constexpr size_t kNumBuckets = 256;
  /// Emptied queue nodes a bucket keeps for reuse. Steady-state locking
  /// then allocates nothing: a new queue takes a spare node (with its
  /// holder and waiter vectors' capacity) instead of a fresh map node.
  static constexpr size_t kSpareNodesPerBucket = 8;

  struct Options {
    /// Waiting longer than this aborts the requester (InnoDB's
    /// innodb_lock_wait_timeout, scaled down for benchmarks).
    uint64_t wait_timeout_ms = 1000;
  };

  LockManager() : LockManager(Options()) {}
  explicit LockManager(Options options);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `rid` for `txn_id`. Re-entrant: a holder asking for
  /// the same or weaker mode succeeds immediately; S -> X upgrades are
  /// supported. Returns kDeadlock if waiting would close a cycle, or
  /// kTimedOut if the wait exceeds the timeout.
  Status Lock(uint64_t txn_id, Rid rid, LockMode mode);

  /// Releases every lock held by `txn_id` (called at post-commit /
  /// rollback end — strict 2PL).
  void ReleaseAll(uint64_t txn_id, const std::vector<Rid>& rids);

  /// True if `txn_id` currently holds `rid` in a mode covering `mode`.
  bool Holds(uint64_t txn_id, Rid rid, LockMode mode) const;

  uint64_t deadlocks() const { return deadlocks_; }
  uint64_t waits() const { return waits_; }

 private:
  struct Holder {
    uint64_t txn_id;
    LockMode mode;
  };
  struct Waiter {
    uint64_t txn_id;
    LockMode mode;
    bool upgrade = false;
  };
  struct LockQueue {
    std::vector<Holder> holders;
    // FIFO: new waiters append, upgrades insert at the front, grants pop
    // the front. Queues are short, so vector shifts beat a deque's blocks.
    std::vector<Waiter> waiters;
  };
  using QueueMap = std::unordered_map<Rid, LockQueue>;
  struct Bucket {
    mutable Mutex mu;
    CondVar cv;
    QueueMap queues SKEENA_GUARDED_BY(mu);
    // Emptied nodes extracted from `queues`, cleared but keeping capacity.
    std::vector<QueueMap::node_type> spare SKEENA_GUARDED_BY(mu);
  };

  Bucket& BucketFor(Rid rid) {
    return buckets_[std::hash<Rid>{}(rid) % buckets_.size()];
  }
  const Bucket& BucketFor(Rid rid) const {
    return buckets_[std::hash<Rid>{}(rid) % buckets_.size()];
  }

  // The queue for `rid`, reusing a spare node when the rid has none.
  static LockQueue& QueueFor(Bucket& bucket, Rid rid)
      SKEENA_REQUIRES(bucket.mu);

  // Grant check: can (txn, mode) be granted given current holders/waiters?
  static bool CanGrant(const LockQueue& q, uint64_t txn_id, LockMode mode,
                       bool is_upgrade);

  // --- waits-for graph (global, mutex-protected; edges exist only while a
  // transaction blocks, so the graph is tiny and DFS is cheap).
  void AddEdges(uint64_t waiter, const std::vector<uint64_t>& holders);
  void ClearEdges(uint64_t waiter);
  bool WouldDeadlock(uint64_t waiter);

  Options options_;
  std::vector<Bucket> buckets_;

  Mutex graph_mu_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> waits_for_
      SKEENA_GUARDED_BY(graph_mu_);

  std::atomic<uint64_t> deadlocks_{0};
  std::atomic<uint64_t> waits_{0};
};

}  // namespace skeena::stordb

#endif  // SKEENA_STORDB_LOCK_MANAGER_H_
