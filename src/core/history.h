#ifndef SKEENA_CORE_HISTORY_H_
#define SKEENA_CORE_HISTORY_H_

// Black-box transactional-history verification (ROADMAP "Black-box
// isolation checker + adversarial scenario fuzzing").
//
// Two halves:
//
//  * HistoryRecorder — a cheap opt-in hook (DatabaseOptions::record_history)
//    that captures, per transaction, the per-engine begin/commit
//    serialisation points, the (anchor, other) snapshot pairs Algorithm 1
//    selected, and the full read/write-set with observed values. Recording
//    is per-thread sharded (ShardedCounter-style) so the hot path never
//    contends on a shared line; shards fold at quiesce. Disabled cost is a
//    single null-pointer branch per operation.
//
//  * CheckSnapshotIsolation — a polynomial-time snapshot-isolation check
//    over a recorded history, after Biswas & Enea, "On the Complexity of
//    Checking Transactional Consistency" (OOPSLA 2019). Their general
//    problem searches for a commit order witnessing SI; here the engines
//    publish their commit orders (memdb commit timestamps, stordb
//    serialisation numbers), so the checker verifies that the *claimed*
//    witness actually satisfies the SI axioms against the observed reads —
//    any lie in the claimed order surfaces as a read that does not match
//    the latest visible version. Cross-engine atomicity (the paper's DSI
//    condition) is checked over snapshot/commit *pairs* and against the
//    CSR's published mappings, which catches skew shapes no per-engine
//    check can see (a reader holding a (mem, stor) pair that tears a
//    committed cross-engine transaction in half).
//
// See DESIGN.md "Verification" for the axiom-by-axiom sketch and how the
// scenario fuzzer (tests/fuzz_scenario_test.cc) drives this end to end.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "common/spin_latch.h"
#include "common/types.h"

namespace skeena {

// ---------------------------------------------------------------- records

enum class HistOpKind : uint8_t { kGet, kPut, kDelete, kScanRow };

/// One data operation as the coordinator saw it. Reads carry the observed
/// value (or found=false); writes carry the written value. `snapshot` is
/// the engine-local snapshot in effect when the op ran (read-committed
/// refreshes change it mid-transaction).
struct HistOp {
  HistOpKind kind;
  uint8_t engine;
  TableId table;
  Key key;
  std::string value;
  bool found = true;
  Timestamp snapshot = kInvalidTimestamp;
};

/// A recorded transaction: outcome, per-engine begin/commit serialisation
/// points, the cross-engine snapshot pairs it held, and its ops in program
/// order.
struct TxnHistory {
  enum class Outcome : uint8_t {
    kInFlight,   // never finished (should not appear in a folded history)
    kCommitted,  // commit acknowledged to the caller (durable)
    kAborted,
    kUnacked,    // post-commit may have run, but the ack never happened
                 // (simulated crash); recovery decides its fate
  };

  GlobalTxnId gtid = 0;
  uint64_t session = 0;  // recording thread; program order within a session
  uint64_t seq = 0;      // monotone per session
  IsolationLevel iso = IsolationLevel::kSnapshot;
  bool skeena = true;
  Outcome outcome = Outcome::kInFlight;

  /// Engine-local begin snapshot at first access (kInvalidTimestamp when
  /// the engine was never touched; kMaxTimestamp = uncoordinated "latest").
  Timestamp begin[kNumEngines] = {kInvalidTimestamp, kInvalidTimestamp};
  /// Engine-local commit serialisation point (0 when unused/read-only is
  /// still a borrowed bound — see `wrote`).
  Timestamp commit[kNumEngines] = {0, 0};
  bool used[kNumEngines] = {false, false};
  bool wrote[kNumEngines] = {false, false};

  /// Anchor snapshot (recorded even when the anchor engine holds no data
  /// access; it orders every Skeena transaction, paper Section 4.3).
  Timestamp anchor_snap = kInvalidTimestamp;
  /// Anchor position the commit check installed this transaction's
  /// mapping at (kInvalidTimestamp when it ran no check). An anchor writer's
  /// is its anchor commit; a non-serializable other-engine writer with no
  /// anchor writes takes the anchor's latest snapshot at commit, so it can
  /// exceed `anchor_snap`.
  Timestamp anchor_pos = kInvalidTimestamp;
  /// Every (anchor, other) snapshot pair Algorithm 1 selected for this
  /// transaction (>1 only at read-committed).
  std::vector<std::pair<Timestamp, Timestamp>> snap_pairs;

  /// Crash-scenario bookkeeping for kUnacked: whether post-commit ran per
  /// engine before the simulated crash.
  bool post_committed[kNumEngines] = {false, false};

  std::vector<HistOp> ops;
};

// --------------------------------------------------------------- recorder

/// Lock-cheap history log. Transactions build their TxnHistory privately
/// (owned by the Transaction object) and push it into the calling thread's
/// shard exactly once, at finish; Fold() collects all shards at quiesce.
class HistoryRecorder {
 public:
  HistoryRecorder() = default;
  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  /// Starts a record for a new transaction (called from the transaction
  /// constructor; fills session/seq from the calling thread).
  std::unique_ptr<TxnHistory> StartTxn(GlobalTxnId gtid, IsolationLevel iso,
                                       bool skeena);

  /// Files a finished record under the calling thread's shard.
  void Record(std::unique_ptr<TxnHistory> txn);

  /// Moves every recorded transaction out, ordered by (session, seq).
  /// Callers must quiesce first (no transaction in flight).
  std::vector<TxnHistory> Fold();

  /// Recorded-so-far count (approximate under concurrency).
  size_t Size() const;

 private:
  static constexpr size_t kShards = 64;

  struct Shard {
    SpinLatch latch;
    std::vector<std::unique_ptr<TxnHistory>> txns;
  };

  static size_t ThreadShardIndex();

  Padded<Shard> shards_[kShards];
};

// ---------------------------------------------------------------- checker

/// One detected anomaly. `kind` names the violated axiom; `detail` is a
/// human-readable witness (transaction ids, keys, serialisation points).
struct SiViolation {
  enum class Kind : uint8_t {
    kDirtyRead,          // observed a value no committed transaction wrote
    kFutureRead,         // observed a writer beyond the snapshot
    kStaleRead,          // skipped a newer committed version inside the
                         // snapshot (non-monotone snapshot / torn read)
    kReadYourWrites,     // read after own write returned something else
    kLostUpdate,         // first-committer-wins violated
    kCrossSkew,          // a snapshot pair tears a committed cross-engine
                         // transaction in half (DSI violation)
    kPairInversion,      // committed cross-engine commit pairs not monotone
    kCsrMismatch,        // committed pair absent from the CSR's mappings
    kSessionOrder,       // later txn in a session began before an earlier
                         // commit in the anchor engine
    kGateRegression,     // (replica audit) a replica session's snapshot
                         // pair went backwards on either component
    kDurabilityLost,     // (recovery audit) acknowledged write vanished
    kTornRecovery,       // (recovery audit) cross-engine txn half-recovered
    kCorruptState,       // (recovery audit) final value matches no writer
  };

  Kind kind;
  GlobalTxnId txn = 0;        // primary offending transaction (0 = n/a)
  GlobalTxnId other_txn = 0;  // witness transaction (0 = n/a)
  std::string detail;
};

const char* SiViolationKindName(SiViolation::Kind kind);

struct SiCheckOptions {
  int anchor_index = 0;
  /// Published CSR mappings ([key, vmin, vmax] per entry) and recycling
  /// floor, from SnapshotRegistry::DumpMappings(). Empty = skip the
  /// mapping-containment check.
  struct CsrMapping {
    Timestamp key;
    Timestamp vmin;
    Timestamp vmax;
  };
  std::vector<CsrMapping> csr_mappings;
  Timestamp csr_floor = 0;
  bool have_csr_dump = false;
  /// Session-order assumes one recording thread == one client session.
  /// Histories produced by a worker pool (e.g. the network server, where
  /// any worker runs any connection's transactions) interleave unrelated
  /// clients in one thread-derived session; disable the axiom there.
  bool check_session_order = true;
  /// Replica mode: sessions with id >= replica_session_floor are read-only
  /// sessions on a lagging replica. Their snapshots may be arbitrarily
  /// STALE (the replica lags the primary), so the begin-after-commit
  /// session-order axiom is skipped for them — but their reads must still
  /// be torn-free and pair-consistent (kCrossSkew et al. apply in full),
  /// and per session the snapshot pair must be component-wise monotone in
  /// recording order (kGateRegression otherwise). 0 = no replica sessions.
  uint64_t replica_session_floor = 0;
};

struct SiReport {
  std::vector<SiViolation> violations;
  size_t txns = 0;
  size_t reads = 0;
  size_t writes = 0;
  size_t pairs = 0;

  bool ok() const { return violations.empty(); }
  std::string Summary(size_t max_violations = 8) const;
};

/// Checks a quiesced history for snapshot isolation (see file comment).
/// Transactions with Outcome::kUnacked are treated as committed for
/// visibility (their effects were legitimately observable before a crash);
/// use CheckRecoveredState for the post-recovery audit.
SiReport CheckSnapshotIsolation(const std::vector<TxnHistory>& history,
                                const SiCheckOptions& opts);

/// Post-recovery audit: `final_rows[engine][(table, key)]` is the value a
/// full post-recovery scan observed (absent entry = key not present).
/// Verifies that every acknowledged commit survived, that the final value
/// of every key was produced by some committed/unacked writer, and that no
/// unacked cross-engine transaction was recovered in one engine but rolled
/// back in the other (all-or-nothing, paper Section 4.6).
using FinalStateRows = std::map<std::pair<TableId, Key>, std::string>;
SiReport CheckRecoveredState(const std::vector<TxnHistory>& history,
                             const FinalStateRows final_rows[kNumEngines],
                             const SiCheckOptions& opts);

/// Writes a line-oriented text dump of the history (one transaction per
/// line) — the artifact uploaded by CI when a fuzz seed fails.
std::string DumpHistory(const std::vector<TxnHistory>& history);

}  // namespace skeena

#endif  // SKEENA_CORE_HISTORY_H_
