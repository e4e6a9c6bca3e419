#ifndef SKEENA_REPL_SHIPPER_H_
#define SKEENA_REPL_SHIPPER_H_

// Primary-side log shipper (docs/REPLICATION.md). One listener thread
// accepts replicas; each connection gets a serve loop that streams both
// engines' WAL frames plus the CSR install journal over a single ordered
// channel, punctuated by REPL_WATERMARK frames that tell the replica how
// far it may apply.
//
// The watermark discipline is the heart of the protocol: the shipper first
// samples both engines' commit horizons (every commit at or below a
// horizon has finished ALL of its log appends — see
// MemEngine::ReplicationHorizon), and only then samples the stream targets
// (each log's CurrentLsn and the journal size). Sampling in that order
// guarantees the targets cover every record of every commit under the
// horizons, and every CSR install those commits made. The watermark is
// emitted only after the connection's cursors reach all three targets, so
// a replica that applies up to the horizons can never see half a commit.
//
// Shipping is additionally bounded by each log's DurableLsn(): a frame
// that is not yet durable on the primary is never put on the wire, so a
// primary crash cannot leave a replica ahead of what the primary itself
// recovers (the torn-tail rule). The shipper never forces a flush — it
// waits for the engines' own group commit to advance durability.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/database.h"
#include "server/socket.h"
#include "server/wire.h"

namespace skeena::repl {

/// Append-only journal of CSR mapping installs, in primary install order
/// (the observer runs under the CSR's writer lock, so journal order IS
/// install order). The shipper streams it by sequence number; a replica's
/// csr_seq resume cursor indexes into it. Construct it before the
/// Database, wire `options.csr.install_observer = journal.Observer()`, and
/// keep it alive for the database's lifetime.
class CsrInstallJournal {
 public:
  std::function<void(Timestamp, Timestamp)> Observer() {
    return [this](Timestamp key, Timestamp value) { Append(key, value); };
  }

  void Append(Timestamp key, Timestamp value) {
    MutexLock guard(mu_);
    entries_.emplace_back(key, value);
    if (observer_) observer_();
  }

  /// Registers a post-append hook, invoked while the journal lock is held
  /// (and, transitively, under the CSR writer lock) — keep it wait-free;
  /// the shipper's implementation bumps an eventcount word and issues at
  /// most one wake. Set during wiring; clearing (nullptr) is race-free at
  /// any time but loses wakes for appends that follow.
  void SetAppendObserver(std::function<void()> observer) {
    MutexLock guard(mu_);
    observer_ = std::move(observer);
  }

  uint64_t size() const {
    MutexLock guard(mu_);
    return entries_.size();
  }

  /// Copies up to `max` entries starting at sequence `from` into *out
  /// (cleared first). Returns the number copied.
  size_t Read(uint64_t from, size_t max,
              std::vector<std::pair<Timestamp, Timestamp>>* out) const {
    out->clear();
    MutexLock guard(mu_);
    for (uint64_t i = from; i < entries_.size() && out->size() < max; ++i) {
      out->push_back(entries_[i]);
    }
    return out->size();
  }

 private:
  mutable Mutex mu_;
  std::vector<std::pair<Timestamp, Timestamp>> entries_ SKEENA_GUARDED_BY(mu_);
  std::function<void()> observer_ SKEENA_GUARDED_BY(mu_);
};

class Shipper {
 public:
  /// Soft bound on REPL_LOG payload bytes per frame (one oversized record
  /// still ships alone; the hard bound is kMaxFrameLen).
  static constexpr size_t kMaxBatchBytes = 64 * 1024;
  /// Backstop park timeout when no durable-advance / journal-append wake
  /// arrives. The eventcount provides the fast path; this bounds dead-peer
  /// detection latency (the serve loop's TryRecv is the only thing that
  /// notices a closed replica).
  static constexpr std::chrono::milliseconds kIdleBackstop{50};

  struct Options {
    uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
  };

  Shipper(Database* db, CsrInstallJournal* journal, Options options);
  Shipper(Database* db, CsrInstallJournal* journal)
      : Shipper(db, journal, Options()) {}
  ~Shipper();

  Shipper(const Shipper&) = delete;
  Shipper& operator=(const Shipper&) = delete;

  /// Binds the listener and starts the accept thread.
  Status Start();
  /// Stops accepting, severs live connections, joins all threads.
  void Stop();
  uint16_t port() const { return port_; }

  /// Test hook: after roughly `n` more payload bytes, cut the active
  /// connection mid-frame (the tail of the offending frame is dropped).
  /// One-shot; the next connection ships normally.
  void TestOnlyCutAfterBytes(uint64_t n) {
    cut_after_.store(static_cast<int64_t>(n), std::memory_order_release);
  }

  uint64_t connections_served() const {
    // relaxed-ok: monotone diagnostic counter.
    return connections_.load(std::memory_order_relaxed);
  }
  uint64_t watermarks_sent() const {
    // relaxed-ok: monotone diagnostic counter.
    return watermarks_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void Serve(int fd);
  /// Producer side of the progress eventcount: bump, then wake parked
  /// serve loops. Called from the engines' durable-LSN observers, the CSR
  /// journal's append observer, and Stop().
  void BumpProgress();
  /// Sends with the test cut hook applied; IOError when the cut fires.
  Status SendOnChannel(server::FramedConn& ch, std::string frame);
  /// Ships one bounded REPL_LOG batch for engine `e` from *cursor toward
  /// min(target, DurableLsn). Sets *progress when bytes went out.
  Status ShipLogs(server::FramedConn& ch, int e, uint64_t* rid, Lsn* cursor,
                  Lsn target, bool* progress);
  Status ShipCsr(server::FramedConn& ch, uint64_t* rid, uint64_t* cursor,
                 uint64_t target, bool* progress);

  Database* db_;
  CsrInstallJournal* journal_;
  Options options_;

  // The listening socket; Stop() shuts it down to break a blocked accept.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> cut_after_{-1};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> watermarks_{0};

  // Progress eventcount. A serve loop samples the word before reading any
  // stream state, ships a pass, and parks on the sampled value when the
  // pass made no progress; producers bump the word after the state they
  // publish (durable LSN, journal tail) is visible, so a park can never
  // miss an advance (common/parking_lot.h protocol).
  std::atomic<uint32_t> progress_seq_{0};

  // Live connection channels, so Stop() can break their blocked I/O.
  Mutex conns_mu_;
  std::vector<server::FramedConn*> live_ SKEENA_GUARDED_BY(conns_mu_);
};

}  // namespace skeena::repl

#endif  // SKEENA_REPL_SHIPPER_H_
