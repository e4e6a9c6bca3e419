#include "log/redo.h"

#include <algorithm>
#include <string>

namespace skeena {

void RedoWriter::Data(TableId table, const Key& key, bool tombstone,
                      std::string_view value) {
  Append(LogRecordType::kData, table, key, tombstone, value);
}

Lsn RedoWriter::Commit(bool cross_engine) {
  return Append(
      cross_engine ? LogRecordType::kCommitEnd : LogRecordType::kCommit,
      /*table=*/0, Key{}, /*tombstone=*/false, std::string_view());
}

Lsn RedoWriter::Append(LogRecordType type, TableId table, const Key& key,
                       bool tombstone, std::string_view value) {
  // LogManager::Append copies the bytes into its ring, so one buffer per
  // thread serves every record that thread logs.
  thread_local std::string buf;
  buf.clear();
  EncodeLogRecord(&buf, type, gtid_, cts_, table, tombstone, key, value);
  return log_->Append(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(buf.data()), buf.size()));
}

Status RedoGrouper::Add(std::string_view raw,
                        std::optional<CommittedGroup>* closed) {
  closed->reset();
  LogRecord rec;
  if (!LogRecord::Decode(raw, &rec)) {
    return Status::Corruption("undecodable log record");
  }
  switch (rec.type) {
    case LogRecordType::kData:
      pending_[rec.gtid].push_back(std::move(rec));
      break;
    case LogRecordType::kCommitBegin:
      break;  // legacy pre-commit marker: no longer written, decides nothing
    case LogRecordType::kCommit:
    case LogRecordType::kCommitEnd: {
      auto it = pending_.find(rec.gtid);
      if (it == pending_.end()) break;  // read-only: nothing to apply
      const bool torn = rec.type == LogRecordType::kCommitEnd &&
                        torn_ != nullptr && torn_->count(rec.gtid) != 0;
      if (!torn) {
        closed->emplace(
            CommittedGroup{rec.gtid, rec.cts, std::move(it->second)});
      }
      pending_.erase(it);
      break;
    }
  }
  return Status::OK();
}

Status TakeCensus(const StorageDevice* device, LogCensus* census) {
  LogReader reader(device);
  std::string raw;
  LogRecord rec;
  while (reader.Next(&raw)) {
    if (!LogRecord::Decode(raw, &rec)) {
      return Status::Corruption("undecodable log record");
    }
    if (rec.type == LogRecordType::kCommitEnd) {
      census->commit_ends.insert(rec.gtid);
    }
    census->max_gtid = std::max(census->max_gtid, rec.gtid);
  }
  return Status::OK();
}

Status ReadCommittedGroups(const StorageDevice* device,
                           const std::set<GlobalTxnId>& torn,
                           std::vector<CommittedGroup>* groups) {
  RedoGrouper grouper(&torn);
  LogReader reader(device);
  std::string raw;
  std::optional<CommittedGroup> closed;
  while (reader.Next(&raw)) {
    SKEENA_RETURN_NOT_OK(grouper.Add(raw, &closed));
    if (closed) groups->push_back(std::move(*closed));
  }
  std::stable_sort(groups->begin(), groups->end(),
                   [](const CommittedGroup& a, const CommittedGroup& b) {
                     return a.cts < b.cts;
                   });
  return Status::OK();
}

}  // namespace skeena
