#ifndef SKEENA_CORE_COMMIT_PIPELINE_H_
#define SKEENA_CORE_COMMIT_PIPELINE_H_

#include <atomic>
#include <cstdint>

#include "common/sharded_counter.h"
#include "common/types.h"
#include "log/log_manager.h"

namespace skeena {

/// Skeena's extended group/pipelined commit (paper Section 4.5, after
/// Aether [34]): a transaction is released to its client only once the
/// durable LSNs of *both* engines cover its log records. Single-engine and
/// read-only transactions gate too, because they may have read cross-engine
/// results that are not yet durable.
///
/// Every Transaction::Commit calls WaitDurable, which waits on each
/// engine log's LogManager::WaitDurable on the committing thread. A
/// committer leads a flush pass itself at the log's period floor, spinning
/// out at most one period; otherwise the pass in progress covers it,
/// and one unpark per flush releases every waiter it covers — no daemon in
/// between (see DESIGN.md "Commit wakeup path").
class CommitPipeline {
 public:
  /// Wait accounting (sharded counters; folded on read).
  struct Stats {
    uint64_t completed = 0;
    /// Waits that truly blocked in the kernel at least once (immediate
    /// park returns — the word moved first — do not count).
    uint64_t waiter_parks = 0;
    /// Waits resolved without parking (already durable, the spin budget,
    /// or a pre-park recheck win). waiter_parks + waiter_spin_successes
    /// equals completed.
    uint64_t waiter_spin_successes = 0;
    /// Shim: always completed. Kept one PR for benchsuite/harness.cc
    /// (core.pipeline.inline_ratio).
    uint64_t completed_inline = 0;
    /// Shim: always 0. Kept one PR for benchsuite/harness.cc
    /// (core.pipeline.commits_per_drain).
    uint64_t drain_batches = 0;
    /// Shim: always 0. Kept one PR for benchsuite/harness.cc
    /// (core.pipeline.wake_syscalls_per_commit); the logs' wakes of
    /// waiting committers are LogManager::Stats::durable_wakes.
    uint64_t wake_syscalls = 0;
    /// Shim: always 0. Kept one PR for benchsuite/harness.cc
    /// (core.pipeline.daemon_wakes_per_commit).
    uint64_t daemon_wakes = 0;
  };

  /// `log0`/`log1` are the engines' logs, indexed like Database::engine().
  CommitPipeline(LogManager* log0, LogManager* log1);
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Blocks until `lsns[engine]` is durable in each engine's log (0 =
  /// nothing to wait for in that engine). Never returns while a log trails
  /// its LSN: a failed flush leaves the wait to the log's retries.
  void WaitDurable(const Lsn lsns[2]);

  uint64_t completed() const { return completed_.Read(); }

  Stats stats() const;

 private:
  LogManager* logs_[2];
  /// Calls currently inside WaitDurable; the destructor flushes both logs
  /// until this reaches zero, so exiting waiters never touch freed counter
  /// state.
  std::atomic<uint64_t> in_flight_{0};

  ShardedCounter completed_;
  ShardedCounter waiter_parks_;
  ShardedCounter waiter_spin_successes_;
};

}  // namespace skeena

#endif  // SKEENA_CORE_COMMIT_PIPELINE_H_
