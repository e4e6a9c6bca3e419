#include "memdb/mem_engine.h"

#include <algorithm>
#include <cassert>

#include "common/spin_latch.h"

namespace skeena::memdb {

MemEngine::MemEngine(std::unique_ptr<StorageDevice> log_device,
                     Options options, EpochManager* epoch)
    : options_(options), active_(kActiveSlotsPerChunk) {
  assert(log_device != nullptr);
  if (epoch == nullptr) {
    owned_epoch_ = std::make_unique<EpochManager>();
    epoch_ = owned_epoch_.get();
  } else {
    epoch_ = epoch;
  }
  log_ = std::make_unique<LogManager>(std::move(log_device), options_.log);
}

MemEngine::~MemEngine() = default;

TableId MemEngine::CreateTable(const std::string& name,
                               size_t max_value_size) {
  (void)max_value_size;
  MutexLock guard(tables_mu_);
  TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<MemTable>(id, name));
  return id;
}

MemTable* MemEngine::GetTable(TableId id) const {
  MutexLock guard(tables_mu_);
  if (id >= tables_.size()) return nullptr;
  return tables_[id].get();
}

std::unique_ptr<SubTxn> MemEngine::Begin(IsolationLevel iso,
                                         Timestamp snapshot) {
  // kMaxTimestamp means "latest"; it must never reach the registry, where
  // it is the acquiring sentinel.
  bool pinned = snapshot != kMaxTimestamp;
  // A pinned (coordinator-chosen) snapshot below the GC floor cannot be
  // served: versions it needs may already be unlinked. The floor cannot
  // move past a snapshot the CSR could still select (the coordinator's
  // GC-horizon provider bounds every floor advance), so this check only
  // fires for snapshots that were stale at selection time — no
  // register-then-validate ordering is needed.
  if (pinned && snapshot < gc_floor_.load(std::memory_order_seq_cst)) {
    return nullptr;
  }
  size_t slot = active_.Acquire();
  active_.BeginAcquire(slot);
  if (!pinned) {
    snapshot = LatestSnapshot();
  }
  active_.SetSnapshot(slot, snapshot);
  return std::make_unique<MemTxn>(snapshot, iso, slot);
}

Status MemEngine::RefreshSnapshot(SubTxn* sub, Timestamp snapshot) {
  auto* txn = static_cast<MemTxn*>(sub);
  // Same kMaxTimestamp-means-latest convention as Begin.
  bool pinned = snapshot != kMaxTimestamp;
  // Same floor check as Begin; on failure the slot keeps its previous
  // registration (conservatively holding the floor down) until the caller
  // aborts the transaction.
  if (pinned && snapshot < gc_floor_.load(std::memory_order_seq_cst)) {
    return Status::SkeenaAbort("refresh snapshot predates GC floor");
  }
  active_.BeginAcquire(txn->registry_slot());
  txn->begin_ts_ = pinned ? snapshot : LatestSnapshot();
  active_.SetSnapshot(txn->registry_slot(), txn->begin_ts_);
  return Status::OK();
}

Version* MemEngine::ReadVisible(Record* rec, Timestamp snapshot) const {
  // Caller must hold an EpochGuard on epoch(): the chain is pruned
  // concurrently (unlink + Retire), and the pin is what keeps an unlinked
  // version mapped while we may still be walking through it.
  //
  // A committer that drew a commit timestamp <= snapshot necessarily held
  // the record latch before our snapshot was read; wait out any in-flight
  // install so the chain we traverse includes its version.
  while (rec->latch.is_locked()) CpuRelax();
  Version* v = rec->head.load(std::memory_order_acquire);
  while (v != nullptr && v->cts > snapshot) v = v->next;
  return v;
}

Status MemEngine::Get(SubTxn* sub, TableId table, const Key& key,
                      std::string* value) {
  auto* txn = static_cast<MemTxn*>(sub);
  MemTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  Record* rec = t->Find(key);
  if (rec == nullptr) return Status::NotFound();

  // Own buffered write wins.
  size_t w = txn->FindWrite(rec);
  if (w != MemTxn::kNone) {
    const auto& entry = txn->writes()[w];
    if (entry.tombstone) return Status::NotFound();
    *value = entry.value;
    return Status::OK();
  }

  // Pin for the chain walk AND the value copy: `v` may be unlinked by a
  // concurrent committer the moment the walk returns, and only the pin
  // keeps it out of the epoch limbo's free set until we are done with it.
  EpochGuard guard(*epoch_);
  Version* v = ReadVisible(rec, txn->begin_ts());
  if (txn->isolation() == IsolationLevel::kSerializable) {
    txn->AddRead(rec, v);
  }
  if (v == nullptr || v->tombstone) return Status::NotFound();
  *value = v->value;
  return Status::OK();
}

Status MemEngine::Put(SubTxn* sub, TableId table, const Key& key,
                      std::string_view value) {
  auto* txn = static_cast<MemTxn*>(sub);
  MemTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  Record* rec = t->FindOrCreate(key);
  // Early write-conflict detection (the authoritative first-committer-wins
  // check re-runs at pre-commit): only update records whose latest committed
  // version is visible.
  Version* head = rec->head.load(std::memory_order_acquire);
  if (head != nullptr && head->cts > txn->begin_ts()) {
    Abort(txn);
    return Status::Aborted("write-write conflict");
  }
  txn->AddWrite(rec, table, key, std::string(value), /*tombstone=*/false);
  return Status::OK();
}

Status MemEngine::Delete(SubTxn* sub, TableId table, const Key& key) {
  auto* txn = static_cast<MemTxn*>(sub);
  MemTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  Record* rec = t->Find(key);
  if (rec == nullptr) return Status::NotFound();
  Version* head = rec->head.load(std::memory_order_acquire);
  if (head != nullptr && head->cts > txn->begin_ts()) {
    Abort(txn);
    return Status::Aborted("write-write conflict");
  }
  txn->AddWrite(rec, table, key, std::string(), /*tombstone=*/true);
  return Status::OK();
}

Status MemEngine::Scan(
    SubTxn* sub, TableId table, const Key& lower, size_t limit,
    const std::function<bool(const Key&, const std::string&)>& cb) {
  auto* txn = static_cast<MemTxn*>(sub);
  MemTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  size_t delivered = 0;
  t->index().ScanFrom(lower, [&](const Key& key, uint64_t value) {
    Record* rec = reinterpret_cast<Record*>(value);
    size_t w = txn->FindWrite(rec);
    if (w != MemTxn::kNone) {
      const auto& entry = txn->writes()[w];
      if (entry.tombstone) return true;
      delivered++;
      if (!cb(key, entry.value)) return false;
      return limit == 0 || delivered < limit;
    }
    // Pin per row, and copy the value out before invoking the (possibly
    // blocking) user callback — an EpochGuard must never be held across a
    // wait we do not control.
    std::string row;
    {
      EpochGuard guard(*epoch_);
      Version* v = ReadVisible(rec, txn->begin_ts());
      if (txn->isolation() == IsolationLevel::kSerializable) {
        txn->AddRead(rec, v);
      }
      if (v == nullptr || v->tombstone) return true;
      row = v->value;
    }
    delivered++;
    if (!cb(key, row)) return false;
    return limit == 0 || delivered < limit;
  });
  return Status::OK();
}

void MemEngine::LatchWriteSet(MemTxn* txn) {
  // Latch in address order so concurrent committers cannot deadlock.
  auto& writes = txn->writes();
  std::vector<Record*> recs;
  recs.reserve(writes.size());
  for (const auto& w : writes) recs.push_back(w.rec);
  std::sort(recs.begin(), recs.end());
  for (Record* r : recs) r->latch.lock();
  txn->latched_ = true;
}

void MemEngine::UnlatchWriteSet(MemTxn* txn) {
  if (!txn->latched_) return;
  for (const auto& w : txn->writes()) w.rec->latch.unlock();
  txn->latched_ = false;
}

Status MemEngine::PreCommit(SubTxn* sub, Timestamp* commit_ts) {
  auto* txn = static_cast<MemTxn*>(sub);
  assert(txn->state_ == MemTxn::State::kActive);

  if (txn->read_only()) {
    // Reads-still-current validation gives read-only serializable
    // transactions a serial point at commit.
    if (txn->isolation() == IsolationLevel::kSerializable) {
      for (const auto& r : txn->reads()) {
        if (r.rec->head.load(std::memory_order_acquire) != r.read_version) {
          Abort(txn);
          return Status::Aborted("serializability validation failed");
        }
      }
    }
    txn->commit_ts_ = txn->begin_ts();
    txn->state_ = MemTxn::State::kPreCommitted;
    if (commit_ts != nullptr) *commit_ts = txn->commit_ts_;
    return Status::OK();
  }

  LatchWriteSet(txn);
  // Enter the committing window *before* drawing the commit timestamp:
  // ReplicationHorizon()'s registry scan waits out the sentinel, so every
  // commit with cts <= a sampled horizon has already left the window —
  // i.e. finished its last log append. Registered until PostCommit/Abort.
  txn->committing_slot_ = committing_.Acquire();
  committing_.BeginAcquire(txn->committing_slot_);
  txn->commit_ts_ = clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  committing_.SetSnapshot(txn->committing_slot_, txn->commit_ts_);

  // First-committer-wins: the latest committed version of every written
  // record must be visible in our snapshot.
  for (const auto& w : txn->writes()) {
    Version* head = w.rec->head.load(std::memory_order_acquire);
    if (head != nullptr && head->cts > txn->begin_ts()) {
      UnlatchWriteSet(txn);
      Abort(txn);
      return Status::Aborted("write-write conflict");
    }
  }

  // OCC read validation: forbids anti-dependencies against transactions
  // that committed after us, which yields the commit-ordering property
  // Skeena's serializability argument needs (paper Section 4.7).
  if (txn->isolation() == IsolationLevel::kSerializable) {
    for (const auto& r : txn->reads()) {
      bool own = txn->FindWrite(r.rec) != MemTxn::kNone;
      if (!own && r.rec->latch.is_locked()) {
        UnlatchWriteSet(txn);
        Abort(txn);
        return Status::Aborted("read validation: concurrent committer");
      }
      if (r.rec->head.load(std::memory_order_acquire) != r.read_version) {
        UnlatchWriteSet(txn);
        Abort(txn);
        return Status::Aborted("read validation: version changed");
      }
    }
  }

  // Pre-commit appends nothing: write images and the commit record are
  // logged at post-commit, outside the cross-engine ordered section.
  txn->state_ = MemTxn::State::kPreCommitted;
  if (commit_ts != nullptr) *commit_ts = txn->commit_ts_;
  return Status::OK();
}

namespace {
// Typed deleter for a whole unlinked version sub-chain: one limbo entry
// per prune instead of one per version.
void DeleteVersionChain(void* p) {
  auto* v = static_cast<Version*>(p);
  while (v != nullptr) {
    Version* next = v->next;
    delete v;
    v = next;
  }
}
}  // namespace

Lsn MemEngine::PostCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine) {
  auto* txn = static_cast<MemTxn*>(sub);
  assert(txn->state_ == MemTxn::State::kPreCommitted);

  // One floor load per commit; the floor only grows, so a stale value is
  // merely conservative (prunes less).
  Timestamp floor = gc_floor_.load(std::memory_order_acquire);
  RedoWriter redo(log_.get(), gtid, txn->commit_ts_);
  if (!txn->read_only()) {
    // Log the write images (before the commit record, same log: recovery
    // sees data before commit in FIFO order).
    for (const auto& w : txn->writes()) {
      redo.Data(w.table, w.key, w.tombstone, w.value);
    }
    // Unlink prunable sub-chains while latched (the cut must be ordered
    // against other installs on the record), but retire them only after
    // the latches drop: RetireRaw drives TryAdvance, which can run every
    // ripe deleter in the shared domain — arbitrary work that must not
    // run while readers spin on this transaction's record latches.
    std::vector<Version*> garbage;
    for (auto& w : txn->writes()) {
      // relaxed-ok: the record latch is held; its release publishes the
      // new head together with everything it links to.
      auto* v = new Version{txn->commit_ts_,
                            w.rec->head.load(std::memory_order_relaxed),
                            w.tombstone, std::move(w.value)};
      w.rec->head.store(v, std::memory_order_release);
      if (Version* g = PruneVersions(v, floor)) garbage.push_back(g);
    }
    UnlatchWriteSet(txn);
    for (Version* g : garbage) epoch_->RetireRaw(g, &DeleteVersionChain);
  }

  Lsn lsn = 0;
  if (!txn->read_only() || cross_engine || options_.log_read_only_commits) {
    lsn = redo.Commit(cross_engine);
  }

  // Leave the committing window only after the last log append: the
  // replication horizon must not pass this cts while records are pending.
  if (txn->committing_slot_ != MemTxn::kNone) {
    committing_.Release(txn->committing_slot_);
    txn->committing_slot_ = MemTxn::kNone;
  }
  txn->state_ = MemTxn::State::kCommitted;
  active_.Release(txn->registry_slot());
  MaybeAdvanceGcFloor(commit_count_.Increment());
  return lsn;
}

void MemEngine::Abort(SubTxn* sub) {
  auto* txn = static_cast<MemTxn*>(sub);
  if (txn->state_ == MemTxn::State::kCommitted ||
      txn->state_ == MemTxn::State::kAborted) {
    return;
  }
  UnlatchWriteSet(txn);
  if (txn->committing_slot_ != MemTxn::kNone) {
    committing_.Release(txn->committing_slot_);
    txn->committing_slot_ = MemTxn::kNone;
  }
  txn->state_ = MemTxn::State::kAborted;
  active_.Release(txn->registry_slot());
  abort_count_.Add(1);
}

Version* MemEngine::PruneVersions(Version* new_head, Timestamp floor) {
  // Keep the newest version with cts <= floor (the version the oldest
  // active snapshot resolves to); everything strictly older is unreachable
  // to every current and future snapshot. Unlink the sub-chain (no new
  // reader can find it) and hand it back for the caller to retire through
  // the shared epoch domain once it drops the record latches — readers
  // already inside the chain hold an EpochGuard, so the memory stays
  // mapped until they unpin.
  Version* keep = new_head;
  while (keep != nullptr && keep->cts > floor) keep = keep->next;
  if (keep == nullptr) return nullptr;
  Version* garbage = keep->next;
  if (garbage == nullptr) return nullptr;
  keep->next = nullptr;
  uint64_t n = 0;
  for (Version* v = garbage; v != nullptr; v = v->next) n++;
  pruned_count_.Add(n);
  return garbage;
}

void MemEngine::MaybeAdvanceGcFloor(uint64_t thread_commits) {
  if (options_.gc_interval == 0 ||
      thread_commits % options_.gc_interval != 0) {
    return;
  }
  // Explicit TryLock so TSA tracks the branch (see thread_annotations.h).
  if (!gc_round_mu_.TryLock()) return;  // another committer is advancing
  // One exact registry scan (MinActive waits out in-flight registrations)
  // plus the coordinator's bound on what the CSR could still select. Both
  // are lower bounds on every live and future snapshot, so their min is
  // safe to prune with AND to validate pinned begins against — one floor,
  // no published/apply split. The try-lock only dedups concurrent scans
  // (committers crossing the interval together); it carries no floor
  // protocol, and CAS-max keeps the advance idempotent regardless.
  Timestamp m = MinActiveSnapshot();
  if (gc_horizon_provider_) m = std::min(m, gc_horizon_provider_());
  AtomicFetchMax(gc_floor_, m, std::memory_order_seq_cst);
  // Retired chains pile up between commits; nudge the epoch so limbo
  // drains even when nothing else drives TryAdvance.
  epoch_->TryAdvance();
  gc_round_mu_.Unlock();
}

MemEngine::Stats MemEngine::stats() const {
  Stats s;
  s.commits = commit_count_.Read();
  s.aborts = abort_count_.Read();
  s.versions_pruned = pruned_count_.Read();
  return s;
}

Timestamp MemEngine::ReplicationHorizon() const {
  // Fallback clock+1, read before the scan: with no committer in the
  // window every drawn cts has finished appending, so the horizon is the
  // clock itself. A committer that enters after the scan draws its cts
  // from a later fetch-add, i.e. strictly above the value we return.
  Timestamp clock = clock_.load(std::memory_order_seq_cst);
  return committing_.MinActive(clock + 1) - 1;
}

Status MemEngine::ApplyReplicated(CommittedGroup&& group) {
  // Resolve target records first, deduplicating by record (the spin latch
  // is not reentrant); the last image wins, matching the primary's
  // write-set semantics.
  struct Pending {
    Record* rec;
    LogRecord* r;
  };
  const Timestamp cts = group.cts;
  std::vector<Pending> pend;
  pend.reserve(group.records.size());
  for (LogRecord& r : group.records) {
    MemTable* t = GetTable(r.table);
    if (t == nullptr) {
      return Status::Corruption("replicated record references unknown table");
    }
    Record* rec = t->FindOrCreate(r.key);
    bool dup = false;
    for (auto& p : pend) {
      if (p.rec == rec) {
        p.r = &r;
        dup = true;
        break;
      }
    }
    if (!dup) pend.push_back(Pending{rec, &r});
  }

  // Re-log locally (data before commit, like a primary post-commit) so the
  // replica's own WAL recovers to the same state.
  RedoWriter redo(log_.get(), group.gtid, cts);
  for (const Pending& p : pend) {
    redo.Data(p.r->table, p.r->key, p.r->tombstone, p.r->value);
  }
  redo.Commit(/*cross_engine=*/false);

  // Install under the record latches: replica readers run concurrently and
  // ReadVisible's wait-out-the-latch handshake is what orders their chain
  // walk against this install.
  std::vector<Record*> recs;
  recs.reserve(pend.size());
  for (const Pending& p : pend) recs.push_back(p.rec);
  std::sort(recs.begin(), recs.end());
  for (Record* r : recs) r->latch.lock();

  Timestamp floor = gc_floor_.load(std::memory_order_acquire);
  std::vector<Version*> garbage;
  for (const Pending& p : pend) {
    // relaxed-ok: the record latch is held (see CommitInternal). The image
    // is re-logged above, so the version takes it over.
    auto* v = new Version{cts, p.rec->head.load(std::memory_order_relaxed),
                          p.r->tombstone, std::move(p.r->value)};
    p.rec->head.store(v, std::memory_order_release);
    if (Version* g = PruneVersions(v, floor)) garbage.push_back(g);
  }
  for (Record* r : recs) r->latch.unlock();
  for (Version* g : garbage) epoch_->RetireRaw(g, &DeleteVersionChain);

  AtomicFetchMax(clock_, cts, std::memory_order_seq_cst);
  MaybeAdvanceGcFloor(commit_count_.Increment());
  return Status::OK();
}

Status MemEngine::ApplyRecovered(std::vector<CommittedGroup>&& groups) {
  Timestamp max_cts = 1;
  for (CommittedGroup& g : groups) {
    for (LogRecord& rec : g.records) {
      MemTable* t = GetTable(rec.table);
      if (t == nullptr) {
        return Status::Corruption("memdb log references unknown table");
      }
      Record* r = t->FindOrCreate(rec.key);
      // relaxed-ok: single-threaded recovery replay; no concurrent reads.
      auto* v = new Version{g.cts, r->head.load(std::memory_order_relaxed),
                            rec.tombstone, std::move(rec.value)};
      r->head.store(v, std::memory_order_release);
    }
    max_cts = std::max(max_cts, g.cts);
  }
  clock_.store(max_cts, std::memory_order_release);
  gc_floor_.store(max_cts, std::memory_order_release);
  return Status::OK();
}

}  // namespace skeena::memdb
