#ifndef SKEENA_MEMDB_MEM_TXN_H_
#define SKEENA_MEMDB_MEM_TXN_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/encoding.h"
#include "common/types.h"
#include "log/engine_iface.h"
#include "memdb/mem_table.h"

namespace skeena::memdb {

/// A memdb (sub-)transaction.
///
/// Writes are buffered privately and installed only at post-commit, so an
/// abort — including a Skeena commit-check abort *after* pre-commit — never
/// has to undo anything in shared state. This realizes the pre-/post-commit
/// split the paper relies on (Section 4.5): pre-commit assigns the commit
/// timestamp and validates; post-commit makes results visible.
class MemTxn final : public SubTxn {
 public:
  enum class State : uint8_t {
    kActive,
    kPreCommitted,  // commit_ts assigned, write set latched, not yet visible
    kCommitted,
    kAborted,
  };

  struct WriteEntry {
    Record* rec;
    TableId table;
    Key key;
    std::string value;
    bool tombstone;
  };

  struct ReadEntry {
    Record* rec;
    // Version the read returned (nullptr: none visible). OCC validation
    // requires it to still be the record's head at commit.
    Version* read_version;
  };

  MemTxn(Timestamp begin_ts, IsolationLevel iso, size_t registry_slot)
      : begin_ts_(begin_ts), iso_(iso), registry_slot_(registry_slot) {}

  MemTxn(const MemTxn&) = delete;
  MemTxn& operator=(const MemTxn&) = delete;

  Timestamp begin_ts() const { return begin_ts_; }
  Timestamp commit_ts() const { return commit_ts_; }
  IsolationLevel isolation() const { return iso_; }
  State state() const { return state_; }
  size_t registry_slot() const { return registry_slot_; }
  bool read_only() const { return writes_.empty(); }

  /// Index of the buffered write to `rec`, or npos.
  static constexpr size_t kNone = ~size_t{0};
  size_t FindWrite(Record* rec) const {
    auto it = write_index_.find(rec);
    return it == write_index_.end() ? kNone : it->second;
  }

  void AddWrite(Record* rec, TableId table, const Key& key,
                std::string value, bool tombstone) {
    size_t existing = FindWrite(rec);
    if (existing != kNone) {
      writes_[existing].value = std::move(value);
      writes_[existing].tombstone = tombstone;
      return;
    }
    write_index_.emplace(rec, writes_.size());
    writes_.push_back(
        WriteEntry{rec, table, key, std::move(value), tombstone});
  }

  void AddRead(Record* rec, Version* read_version) {
    reads_.push_back(ReadEntry{rec, read_version});
  }

  std::vector<WriteEntry>& writes() { return writes_; }
  const std::vector<ReadEntry>& reads() const { return reads_; }

 private:
  friend class MemEngine;

  Timestamp begin_ts_;
  Timestamp commit_ts_ = kInvalidTimestamp;
  IsolationLevel iso_;
  size_t registry_slot_;
  // Slot in the engine's committing-window registry, held from the
  // commit-timestamp draw until the last log append (replication horizon).
  size_t committing_slot_ = kNone;
  State state_ = State::kActive;
  bool latched_ = false;  // write-set record latches held (pre-committed)

  std::vector<WriteEntry> writes_;
  std::unordered_map<Record*, size_t> write_index_;
  std::vector<ReadEntry> reads_;  // tracked under serializable isolation
};

}  // namespace skeena::memdb

#endif  // SKEENA_MEMDB_MEM_TXN_H_
