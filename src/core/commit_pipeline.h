#ifndef SKEENA_CORE_COMMIT_PIPELINE_H_
#define SKEENA_CORE_COMMIT_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parking_lot.h"
#include "common/sharded_counter.h"
#include "common/types.h"
#include "core/engine_iface.h"

namespace skeena {

/// Completion handle for a committed transaction. Results of a
/// transaction become visible internally at post-commit, but are only
/// released to the application once both engines' durable LSNs cover the
/// transaction (paper Section 4.5).
///
/// The handle is one atomic state word (kPending → kDone) instead of a
/// mutex+condvar: completion is a single exchange, and the kernel is only
/// touched when a waiter actually parked on this word (kParked). Blocking
/// commits never do — CommitPipeline::EnqueueAndWait waits on the logs'
/// durable words directly and completes the handle itself.
class CommitWaiter {
 public:
  /// Marks the waiter done and unparks any thread parked on this word.
  /// Returns true iff a kernel wake was issued.
  bool Complete() {
    uint32_t prev = state_.exchange(kDone, std::memory_order_acq_rel);
    if (prev == kParked) {
      ParkingLot::WakeAll(state_);
      return true;
    }
    return false;
  }

  bool done() const {
    return state_.load(std::memory_order_acquire) == kDone;
  }

  /// Standalone blocking wait: spin briefly, then park on this waiter's own
  /// word. Multiple threads may wait on one handle.
  void Wait() {
    if (SpinUntil([this] { return done(); })) return;
    uint32_t s = state_.load(std::memory_order_acquire);
    while (s != kDone) {
      if (s == kPending &&
          !state_.compare_exchange_weak(s, kParked,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        continue;  // raced with Complete() or another waiter; re-examine
      }
      ParkingLot::Park(state_, kParked);
      s = state_.load(std::memory_order_acquire);
    }
  }

  void Reset() { state_.store(kPending, std::memory_order_release); }

 private:
  static constexpr uint32_t kPending = 0;
  static constexpr uint32_t kParked = 1;  // someone parked on this word
  static constexpr uint32_t kDone = 2;

  std::atomic<uint32_t> state_{kPending};
};

/// Skeena's extended group/pipelined commit (paper Section 4.5, after
/// Aether [34]): a transaction is released to its client only once the
/// durable LSNs of *both* engines cover its log records. Single-engine and
/// read-only transactions gate too, because they may have read cross-engine
/// results that are not yet durable.
///
/// Two entry points:
///  * EnqueueAndWait (every Transaction::Commit): the committing thread
///    waits on each engine's WaitDurable itself and completes inline. The
///    logs' self-clocked flushers batch the commits that arrive during a
///    flush period, and one unpark per flush releases them all — one wake
///    hop per commit, no daemon in between (see DESIGN.md "Commit wakeup
///    path").
///  * Enqueue (asynchronous callers): detaches the transaction onto a
///    commit queue; a committer daemon drains the queue, waits once per
///    engine for the batch's maximum LSN, and completes every covered
///    entry. Entries already durable complete inline.
class CommitPipeline {
 public:
  enum class Mode {
    kPipelined,  // wait on the group-commit flushers; Enqueue uses a daemon
    kSync,       // ablation: force both logs durable on the caller's thread
  };

  struct Options {
    Mode mode = Mode::kPipelined;
    /// Number of commit queues (1 = the paper's global queue; more =
    /// "partitioned queue to avoid introducing a central bottleneck").
    size_t num_queues = 1;
  };

  /// Wakeup accounting (sharded counters; folded on read).
  struct Stats {
    uint64_t completed = 0;
    /// Kernel unpark syscalls the pipeline issued to release committers:
    /// CommitWaiter wakes of Wait() callers parked on their own handle. The
    /// logs' durable-advance wakes of EnqueueAndWait callers are counted in
    /// LogManager::Stats::durable_wakes, not here.
    uint64_t wake_syscalls = 0;
    /// Producer→daemon work wakeups (empty→non-empty enqueues that found
    /// the daemon parked).
    uint64_t daemon_wakes = 0;
    /// EnqueueAndWait waits that truly blocked in the kernel at least once
    /// (immediate park returns — the word moved first — do not count).
    uint64_t waiter_parks = 0;
    /// EnqueueAndWait waits resolved without parking (already durable, the
    /// spin budget, or a pre-park recheck win). waiter_parks +
    /// waiter_spin_successes equals the number of pipelined EnqueueAndWait
    /// calls.
    uint64_t waiter_spin_successes = 0;
    /// Daemon drain passes that completed >= 1 transaction.
    uint64_t drain_batches = 0;
    /// Entries pushed onto a commit queue via the wait-free MPSC exchange.
    uint64_t enqueued = 0;
    /// Completions that never touched a queue: every EnqueueAndWait, an
    /// Enqueue whose LSNs were already durable, and kSync mode. Once
    /// drained, completed == enqueued + completed_inline.
    uint64_t completed_inline = 0;
    /// Daemon retries that found a producer mid-push (tail exchanged, next
    /// pointer not yet linked) — the only wait anywhere in the handoff.
    uint64_t handoff_spins = 0;
  };

  CommitPipeline(Options options, EngineIface* engine0, EngineIface* engine1);
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Enqueues a committed transaction awaiting durability of
  /// `lsns[engine]` in each engine (0 = nothing to wait for in that
  /// engine). `waiter->Complete()` fires when durable. `queue_hint`
  /// selects the partitioned queue (e.g., worker id). The waiter is shared:
  /// the daemon keeps its own reference while completing, so the waiting
  /// side may destroy its handle the moment Wait() returns. Entries whose
  /// LSNs are already durable complete inline without touching the queue.
  void Enqueue(const Lsn lsns[2], std::shared_ptr<CommitWaiter> waiter,
               size_t queue_hint = 0);

  /// Blocks until `lsns` are durable in both engines, then completes
  /// `waiter`. Waits on each engine's WaitDurable on the calling thread —
  /// it never touches a queue or the daemon. Only the asynchronous Enqueue
  /// path uses `queue_hint`.
  void EnqueueAndWait(const Lsn lsns[2],
                      const std::shared_ptr<CommitWaiter>& waiter,
                      size_t queue_hint = 0);

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  /// Commit-queue node. Producer-allocated, consumer-freed; `next` is the
  /// intrusive MPSC link.
  struct Entry {
    Lsn lsns[2] = {0, 0};
    std::shared_ptr<CommitWaiter> waiter;
    std::atomic<Entry*> next{nullptr};
  };
  /// A drained entry's payload (the node itself is already freed).
  struct PendingCommit {
    Lsn lsns[2];
    std::shared_ptr<CommitWaiter> waiter;
  };
  struct Queue {
    /// Intrusive MPSC list (Vyukov): producers push with one wait-free
    /// exchange on `tail` + a release store linking `next`; the daemon is
    /// the single consumer walking from `head`. `stub` keeps the list
    /// non-empty so neither side ever needs a CAS loop. There is no
    /// producer lock and no daemon swap lock.
    Entry stub;
    std::atomic<Entry*> tail{&stub};
    Entry* head = &stub;  // consumer-only

    ~Queue() {
      // Free anything never drained (callers must not race Enqueue with
      // pipeline destruction, but a leak here would mask that bug in ASan).
      Entry* node = head;
      while (node != nullptr) {
        Entry* next = node->next.load(std::memory_order_relaxed);
        if (node != &stub) delete node;
        node = next;
      }
    }
    /// Entries pushed but not yet drained. Producers bump it *before* the
    /// push; the 0 -> 1 edge elects the waker, and the daemon parks only
    /// after re-reading it as zero.
    std::atomic<uint64_t> pending{0};
    /// Daemon work word: bumped on empty→non-empty enqueue and at
    /// shutdown; the daemon parks here when its queue is empty.
    std::atomic<uint32_t> work_seq{0};
    std::atomic<uint32_t> daemon_parked{0};
  };

  Queue& QueueFor(size_t hint) {
    return *queues_[hint % queues_.size()];
  }

  /// True when both engines' durable LSNs already cover `lsns`.
  bool Covered(const Lsn lsns[2]) const;

  /// Single-consumer pop. Returns nullptr when the queue is empty — or
  /// when a producer has exchanged `tail` but not yet linked `next` (the
  /// caller distinguishes via `pending` and retries). Caller frees the
  /// returned node.
  static Entry* TryPop(Queue& q);
  /// Drains everything poppable right now into `out`; returns the count.
  size_t DrainInto(Queue& q, std::deque<PendingCommit>& out);

  void DaemonLoop(size_t queue_idx);

  Options options_;
  EngineIface* engines_[2];
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> daemons_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> completed_{0};
  /// Pipelined EnqueueAndWait calls currently inside the wait path; the
  /// destructor flushes both logs until this reaches zero, so exiting
  /// waiters never touch freed counter state.
  std::atomic<uint64_t> in_flight_{0};

  ShardedCounter wake_syscalls_;
  ShardedCounter daemon_wakes_;
  ShardedCounter waiter_parks_;
  ShardedCounter waiter_spin_successes_;
  ShardedCounter drain_batches_;
  ShardedCounter enqueued_;
  ShardedCounter completed_inline_;
  ShardedCounter handoff_spins_;
};

}  // namespace skeena

#endif  // SKEENA_CORE_COMMIT_PIPELINE_H_
