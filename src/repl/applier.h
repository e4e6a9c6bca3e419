#ifndef SKEENA_REPL_APPLIER_H_
#define SKEENA_REPL_APPLIER_H_

// Replica-side replication applier (docs/REPLICATION.md). Connects to a
// Shipper, replays both engines' log streams and the CSR install journal
// into a replica-mode Database, and publishes the visibility gate that
// replica read transactions take their snapshot pair from.
//
// Visibility gating: the shipper's watermark proves both engines are
// individually complete up to (mem_horizon, stor_horizon), but the two
// horizons were sampled at different instants, so a cross-engine commit
// can straddle them — visible in one engine, missing in the other. The
// gate clamps the raw pair against the replayed CSR mappings: scanning
// mappings by anchor key descending, any mapping whose key or value pokes
// above the current pair drags both components below it, until a mapping
// falls entirely inside (CSR values are monotone in key order, so
// everything older is inside too). The published gate is the
// component-wise max with the previous gate — monotone per session, and
// every (anchor, other) pair it ever exposes is cross-engine consistent
// against the replayed CSR prefix.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/database.h"
#include "log/redo.h"
#include "server/socket.h"
#include "server/wire.h"

namespace skeena::repl {

class Replica {
 public:
  /// Backoff between reconnect attempts after a severed channel.
  static constexpr std::chrono::milliseconds kReconnectBackoff{2};

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // the shipper's port
  };

  /// `db` must be constructed with DatabaseOptions::replica = true. The
  /// constructor installs this applier as the db's snapshot provider.
  Replica(Database* db, Options options);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  Status Start();
  void Stop();

  /// Test hook: severs the channel mid-stream. The run loop reconnects
  /// and resumes from the received (frame-aligned) cursors; buffered
  /// pending/ready groups survive the kill.
  void KillChannel();

  /// Test hook: publish the raw watermark horizons as the gate, skipping
  /// the CSR clamp. UNSOUND — exists so the SI checker can demonstrate
  /// the torn cross-engine reads the gate prevents (non-vacuity).
  void TestOnlyDisableGate() {
    gate_disabled_.store(true, std::memory_order_release);
  }

  /// Current gate pair (anchor snapshot, other-engine snapshot).
  /// Component-wise monotone; (1, 1) until the first watermark.
  std::pair<Timestamp, Timestamp> GatePair() const;

  /// Blocks until the received stream positions reach the given targets
  /// AND every buffered group has been applied (the caller samples the
  /// targets on the primary after quiescing writers). False on timeout.
  bool WaitCaughtUp(Lsn mem_lsn, Lsn stor_lsn, uint64_t csr_seq,
                    std::chrono::milliseconds timeout);

  struct Progress {
    Lsn recv_lsn[kNumEngines] = {};
    uint64_t csr_seq = 0;
    Timestamp applied_horizon[kNumEngines] = {};
    uint64_t watermarks = 0;
    uint64_t reconnects = 0;
    uint64_t groups_applied = 0;
  };
  Progress progress() const;

 private:
  void RunLoop();
  /// One connected session: handshake + frame pump. Returns when the
  /// channel dies or Stop() is called.
  void RunSession();
  Status HandleLog(const server::ReplLogBatch& batch);
  Status HandleCsr(const server::ReplCsrBatch& batch);
  Status HandleWatermark(const server::ReplWatermark& wm, uint64_t* rid);
  Status ApplyGroup(int e, CommittedGroup&& group);
  /// Clamp (anchor_h, other_h) against gate_mappings_ and publish.
  void RecomputeGate(Timestamp anchor_h, Timestamp other_h);
  /// WaitCaughtUp's predicate (out-of-line so TSA sees the lock).
  bool CaughtUpLocked(Lsn mem_lsn, Lsn stor_lsn, uint64_t csr_seq) const
      SKEENA_REQUIRES(mu_);

  Database* db_;
  Options options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> gate_disabled_{false};
  server::FramedConn ch_;

  // --- staging state owned by the run thread (no lock).
  // Data records grouped per gtid until the commit record lands.
  RedoGrouper grouper_[kNumEngines];
  // Replayed CSR mappings: anchor key -> installed [lo, hi] value range.
  // Run-thread only; the gate scan walks it descending.
  std::map<Timestamp, std::pair<Timestamp, Timestamp>> gate_mappings_;

  // --- stream progress, shared with WaitCaughtUp/progress. Written only
  // by the run thread; mu_ is held only around touches, never across
  // engine calls — the engines' GC providers call back into GatePair.
  mutable Mutex mu_;
  CondVar cv_;
  Lsn recv_lsn_[kNumEngines] SKEENA_GUARDED_BY(mu_) = {};
  uint64_t csr_seq_ SKEENA_GUARDED_BY(mu_) = 0;
  // Committed groups keyed by commit timestamp (mem cts / stor ser),
  // applied in ascending order once a watermark covers them.
  std::map<Timestamp, CommittedGroup> ready_[kNumEngines]
      SKEENA_GUARDED_BY(mu_);
  // Groups extracted from ready_, not yet applied.
  bool applying_ SKEENA_GUARDED_BY(mu_) = false;
  Timestamp applied_horizon_[kNumEngines] SKEENA_GUARDED_BY(mu_) = {};
  uint64_t watermarks_ SKEENA_GUARDED_BY(mu_) = 0;
  uint64_t reconnects_ SKEENA_GUARDED_BY(mu_) = 0;
  uint64_t groups_applied_ SKEENA_GUARDED_BY(mu_) = 0;

  // Published gate. Separate lock: GatePair() is called from reader
  // threads and from engine GC floors re-entered under mu_.
  mutable Mutex gate_mu_ SKEENA_ACQUIRED_AFTER(mu_);
  Timestamp gate_anchor_ SKEENA_GUARDED_BY(gate_mu_) = 1;
  Timestamp gate_other_ SKEENA_GUARDED_BY(gate_mu_) = 1;
};

}  // namespace skeena::repl

#endif  // SKEENA_REPL_APPLIER_H_
