#ifndef SKEENA_LOG_REDO_H_
#define SKEENA_LOG_REDO_H_

// Redo: how log records form committed transactions (paper Section 4.6).
//
// A transaction's sub-transaction in one engine logs its data images and
// then one commit record, all in that engine's log. Writers append them
// through RedoWriter; recovery and the replica's applier read them back as
// CommittedGroups through RedoGrouper. This module and log_records.h are
// the only code that knows the record types.

#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/log_manager.h"
#include "log/log_records.h"

namespace skeena {

/// One transaction's committed writes in one engine's log.
struct CommittedGroup {
  GlobalTxnId gtid = 0;
  Timestamp cts = 0;
  std::vector<LogRecord> records;  // data records, in log order
};

/// Appends one transaction's redo to a log: its data records, then its
/// commit record. Records are encoded into a per-thread buffer, so once
/// that buffer has grown an append allocates nothing.
class RedoWriter {
 public:
  RedoWriter(LogManager* log, GlobalTxnId gtid, Timestamp cts)
      : log_(log), gtid_(gtid), cts_(cts) {}

  /// Appends one row image (a tombstone when `tombstone`).
  void Data(TableId table, const Key& key, bool tombstone,
            std::string_view value);
  /// Appends the commit record — a commit-end for a cross-engine
  /// sub-transaction — and returns its LSN.
  Lsn Commit(bool cross_engine);

 private:
  Lsn Append(LogRecordType type, TableId table, const Key& key,
             bool tombstone, std::string_view value);

  LogManager* log_;
  GlobalTxnId gtid_;
  Timestamp cts_;
};

/// Folds one log's records, fed in log order, into committed groups. Data
/// records wait under their gtid until its commit record closes the group.
/// A commit with no data in this log (a read-only transaction) closes
/// nothing. Legacy commit-begin records are skipped.
class RedoGrouper {
 public:
  /// `torn` names cross-engine transactions whose commit-end is missing
  /// from the other engine's log: their commit-ends close nothing and
  /// their data is dropped. Null for none.
  explicit RedoGrouper(const std::set<GlobalTxnId>* torn = nullptr)
      : torn_(torn) {}

  /// Feeds the next record. Returns Corruption if `raw` does not decode.
  /// Sets *closed to the group `raw` commits, or resets it.
  Status Add(std::string_view raw, std::optional<CommittedGroup>* closed);

 private:
  const std::set<GlobalTxnId>* torn_;
  std::unordered_map<GlobalTxnId, std::vector<LogRecord>> pending_;
};

/// What recovery learns from one log before it replays either: the
/// cross-engine transactions that ended there, and the highest gtid any
/// record carries.
struct LogCensus {
  std::set<GlobalTxnId> commit_ends;
  GlobalTxnId max_gtid = 0;
};

/// Reads `device`'s log into *census. A torn tail ends the log; a whole
/// frame that does not decode is Corruption.
Status TakeCensus(const StorageDevice* device, LogCensus* census);

/// Reads `device`'s committed groups, except `torn` ones, into *groups in
/// commit-timestamp order (replay order: version chains rebuild
/// newest-first).
Status ReadCommittedGroups(const StorageDevice* device,
                           const std::set<GlobalTxnId>& torn,
                           std::vector<CommittedGroup>* groups);

}  // namespace skeena

#endif  // SKEENA_LOG_REDO_H_
