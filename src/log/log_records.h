#ifndef SKEENA_LOG_LOG_RECORDS_H_
#define SKEENA_LOG_LOG_RECORDS_H_

#include <cstring>
#include <string>
#include <string_view>

#include "common/encoding.h"
#include "common/types.h"

namespace skeena {

/// Log record types shared by both engines.
///
/// Cross-engine transactions piggyback `kCommitEnd` (appended after
/// post-commit) on each engine's own log (paper Section 4.6); recovery
/// pairs them by global transaction id across both logs and rolls back any
/// cross-engine transaction that is missing a kCommitEnd in either log.
/// The paper's commit-begin marker decided nothing at recovery and was
/// dropped; its type stays reserved and decodes as a no-op (log/redo.h).
enum class LogRecordType : uint8_t {
  kData = 1,         // one row image (insert/update/tombstone)
  kCommit = 2,       // single-engine transaction commit
  kCommitBegin = 3,  // legacy cross-engine pre-commit marker; never written
  kCommitEnd = 4,    // cross-engine: sub-transaction post-committed
};

/// Appends one record's encoding to *out from its fields (LogRecord::Encode
/// without building a LogRecord; the redo writer's path).
inline void EncodeLogRecord(std::string* out, LogRecordType type,
                            GlobalTxnId gtid, Timestamp cts, TableId table,
                            bool tombstone, const Key& key,
                            std::string_view value) {
  out->push_back(static_cast<char>(type));
  PutU64(out, gtid);
  PutU64(out, cts);
  PutU32(out, table);
  out->push_back(tombstone ? 1 : 0);
  out->append(reinterpret_cast<const char*>(key.data()), key.size());
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

/// A decoded log record. Data records carry the full after-image of the row
/// (both engines recover by replaying committed transactions' images in
/// commit-timestamp order, ERMIA-style log-only recovery).
struct LogRecord {
  LogRecordType type = LogRecordType::kData;
  GlobalTxnId gtid = 0;
  Timestamp cts = 0;
  TableId table = 0;
  bool tombstone = false;
  Key key = {};
  std::string value;

  std::string Encode() const {
    std::string out;
    EncodeLogRecord(&out, type, gtid, cts, table, tombstone, key, value);
    return out;
  }

  static bool Decode(std::string_view in, LogRecord* out) {
    constexpr size_t kFixed = 1 + 8 + 8 + 4 + 1 + 16 + 4;
    if (in.size() < kFixed) return false;
    const char* p = in.data();
    out->type = static_cast<LogRecordType>(*p++);
    out->gtid = GetU64(p);
    p += 8;
    out->cts = GetU64(p);
    p += 8;
    out->table = GetU32(p);
    p += 4;
    out->tombstone = (*p++ != 0);
    std::memcpy(out->key.data(), p, 16);
    p += 16;
    uint32_t vlen = GetU32(p);
    p += 4;
    if (in.size() < kFixed + vlen) return false;
    out->value.assign(p, vlen);
    return true;
  }
};

}  // namespace skeena

#endif  // SKEENA_LOG_LOG_RECORDS_H_
