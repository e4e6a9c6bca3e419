#include "stordb/stor_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace skeena::stordb {

StorEngine::StorEngine(std::unique_ptr<StorageDevice> log_device,
                       Options options, EpochManager* epoch)
    : options_(options), locks_(options.lock) {
  assert(log_device != nullptr);
  if (epoch == nullptr) {
    owned_epoch_ = std::make_unique<EpochManager>();
    epoch_ = owned_epoch_.get();
  } else {
    epoch_ = epoch;
  }
  log_ = std::make_unique<LogManager>(std::move(log_device), options_.log);
  if (!options_.device_factory) {
    DeviceLatency latency = options_.data_latency;
    options_.device_factory = [latency](const std::string&) {
      return std::make_unique<MemDevice>(latency);
    };
  }
  pool_ = std::make_unique<BufferPool>(
      options_.buffer_pool_pages,
      [this](TableId table) -> StorageDevice* {
        StorTable* t = GetTable(table);
        return t == nullptr ? nullptr : t->device.get();
      },
      options_.pool_shards);
}

StorEngine::~StorEngine() {
  // The pool's final flush resolves devices through tables_; destroy it
  // before the member destruction order would tear tables_ down first.
  pool_.reset();
  // Undo batches still waiting for the purge floor are freed directly: no
  // reader is left, and the epoch manager (possibly database-owned and
  // already ahead of us in destruction order) must not be touched here.
  for (const PendingUndos& p : pending_undos_) UndoArena::Free(p.batch.head);
  pending_undos_.clear();
}

TableId StorEngine::CreateTable(const std::string& name,
                                size_t max_value_size) {
  MutexLock guard(tables_mu_);
  auto t = std::make_unique<StorTable>();
  t->id = static_cast<TableId>(tables_.size());
  t->name = name;
  t->max_value_size = max_value_size;
  t->slot_size = RowSlotSize(max_value_size);
  t->slots_per_page = SlotsPerPage(max_value_size);
  t->device = options_.device_factory(name);
  TableId id = t->id;
  tables_.push_back(std::move(t));
  return id;
}

StorEngine::StorTable* StorEngine::GetTable(TableId id) const {
  MutexLock guard(tables_mu_);
  if (id >= tables_.size()) return nullptr;
  return tables_[id].get();
}

std::unique_ptr<SubTxn> StorEngine::Begin(IsolationLevel iso,
                                          Timestamp snapshot) {
  auto txn = std::make_unique<StorTxn>(iso);
  // relaxed-ok: lock-owner ids only need uniqueness.
  txn->lock_owner_ = next_lock_owner_.fetch_add(1, std::memory_order_relaxed);
  txn->pending_ser_limit_ = snapshot;
  if (snapshot != kMaxTimestamp) {
    // Cross-engine snapshot known up front: materialize the adjusted view
    // immediately (Skeena selects it before any data access). A snapshot
    // below the purge floor cannot be served — its undo chain may already
    // be reclaimed.
    if (!EnsureView(txn.get()).ok()) return nullptr;
  }
  return txn;
}

void StorEngine::EnsureTid(StorTxn* txn) {
  if (txn->tid_ != 0) return;
  txn->tid_ = trx_sys_.AssignTid();
  if (txn->has_view_) txn->view_.own_tid = txn->tid_;
}

Status StorEngine::EnsureView(StorTxn* txn) {
  if (txn->has_view_) return Status::OK();
  bool pinned = txn->pending_ser_limit_ != kMaxTimestamp;
  // A pinned (CSR-selected) snapshot below the purge floor cannot be
  // served: the undo chains it needs may already be retired. The floor
  // cannot move past a snapshot the CSR could still select (the
  // coordinator's purge-horizon provider bounds every floor advance), so
  // this check only fires for snapshots stale at selection time — no
  // register-then-validate ordering is needed. Native views draw their
  // horizon from the live transaction table and cannot be stale.
  if (pinned && txn->pending_ser_limit_ + 1 <
                    purge_floor_.load(std::memory_order_seq_cst)) {
    return Status::SkeenaAbort("cross-engine snapshot predates undo purge");
  }
  txn->view_slot_ = trx_sys_.view_registry().Acquire();
  trx_sys_.view_registry().BeginAcquire(txn->view_slot_);
  // Pre-register a conservative horizon and only THEN create the view:
  // MinActive waits out sentinel slots, and CreateReadView takes the
  // trx-sys mutex — leaving the sentinel up across that wait would make
  // purge scans spin for a whole contended lock acquisition. The counter
  // value is a safe stand-in: everything the eventual view cannot see
  // retires at a ser >= the view's high watermark, which is drawn from
  // the same counter *after* this store — so a scan that uses this bound
  // (or missed the slot entirely and used its pre-scan fallback, which
  // this store also precedes) never purges an undo the view needs. The
  // real horizon replaces it after view creation; for pinned views the
  // provider chain independently bounds the floor below ser_limit + 1.
  trx_sys_.view_registry().SetSnapshot(txn->view_slot_,
                                       trx_sys_.LatestSerSnapshot() + 1);
  txn->view_ = trx_sys_.CreateReadView(txn->tid_);
  Timestamp horizon;
  if (pinned) {
    txn->view_.AdjustForCrossEngine(txn->pending_ser_limit_);
    horizon = txn->pending_ser_limit_ + 1;
  } else {
    horizon = txn->view_.low_water;
  }
  trx_sys_.view_registry().SetSnapshot(txn->view_slot_, horizon);
  txn->has_view_ = true;
  return Status::OK();
}

Status StorEngine::RefreshSnapshot(SubTxn* sub, Timestamp snapshot) {
  auto* txn = static_cast<StorTxn*>(sub);
  if (txn->has_view_) {
    trx_sys_.view_registry().Release(txn->view_slot_);
    txn->has_view_ = false;
  }
  txn->pending_ser_limit_ = snapshot;
  return EnsureView(txn);
}

Rid StorEngine::AllocateSlot(StorTable* t) {
  MutexLock guard(t->insert_mu);
  if (t->pages_allocated == 0 || t->tail_slots_used == t->slots_per_page) {
    t->pages_allocated++;
    t->tail_slots_used = 0;
  }
  uint32_t page_no = t->pages_allocated - 1;
  uint16_t slot = static_cast<uint16_t>(t->tail_slots_used++);
  return MakeRid(t->id, page_no, slot);
}

Status StorEngine::ReadVisibleRow(StorTxn* txn, StorTable* t, Rid rid,
                                  std::string* value, bool* found) {
  auto page = pool_->FetchPage(MakePageId(t->id, RidPage(rid)));
  if (!page.ok()) return page.status();
  PageGuard& guard = page.value();
  guard.LockShared();
  const uint8_t* slot =
      guard.data() + SlotOffset(RidSlot(rid), t->max_value_size);
  RowHeader hdr;
  DecodeRowHeader(slot, &hdr, nullptr);
  bool deleted = hdr.deleted() || !hdr.in_use();
  // Visible() only spins on a pre-committed writer whose commit is already
  // unconditional, and finishing a commit takes no page latch, so checking
  // the head version under the shared latch cannot wait on this page.
  bool own = txn->tid_ != 0 && hdr.tid == txn->tid_;
  if (own || trx_sys_.Visible(txn->view_, hdr.tid)) {
    // The common case: copy the current image straight into the caller's
    // buffer (its capacity is reused) and skip the roll chain.
    if (deleted) {
      // NotFound leaves the caller's buffer alone.
    } else if (hdr.vlen <= t->max_value_size) {
      value->assign(reinterpret_cast<const char*>(RowValuePtr(slot)),
                    hdr.vlen);
    } else {
      value->clear();
    }
    guard.UnlockShared();
    *found = !deleted;
    return Status::OK();
  }
  const UndoRecord* roll = reinterpret_cast<const UndoRecord*>(hdr.roll_ptr);
  guard.UnlockShared();

  // Pin for the roll-chain walk: batches are retired through the epoch
  // manager once the purge floor passes them, and the pin keeps a batch
  // we may be walking through mapped until we unpin. Pinned AFTER the
  // page fetch (which can block on device I/O — an EpochGuard must not be
  // held across that); the visibility wait inside Visible() for a
  // pre-committed writer is bounded (its post-commit is unconditional).
  EpochGuard epoch_guard(*epoch_);
  for (; roll != nullptr; roll = roll->old_roll) {
    if (!trx_sys_.Visible(txn->view_, roll->old_tid)) continue;
    *found = !roll->old_deleted;
    if (*found) value->assign(roll->old_value);
    return Status::OK();
  }
  *found = false;
  return Status::OK();
}

Status StorEngine::Get(SubTxn* sub, TableId table, const Key& key,
                       std::string* value) {
  auto* txn = static_cast<StorTxn*>(sub);
  StorTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  SKEENA_RETURN_NOT_OK(EnsureView(txn));
  uint64_t ridv = 0;
  if (!t->index.Lookup(key, &ridv)) return Status::NotFound();
  Rid rid = ridv;
  if (txn->isolation() == IsolationLevel::kSerializable) {
    // 2PL read lock: forbids anti-dependencies (commit ordering).
    Status s = locks_.Lock(txn->lock_owner_, rid, LockMode::kShared);
    if (!s.ok()) {
      Abort(txn);
      return s;
    }
    txn->locks_.push_back(rid);
  }
  bool found = false;
  SKEENA_RETURN_NOT_OK(ReadVisibleRow(txn, t, rid, value, &found));
  return found ? Status::OK() : Status::NotFound();
}

Status StorEngine::Scan(
    SubTxn* sub, TableId table, const Key& lower, size_t limit,
    const std::function<bool(const Key&, const std::string&)>& cb) {
  auto* txn = static_cast<StorTxn*>(sub);
  StorTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  SKEENA_RETURN_NOT_OK(EnsureView(txn));
  size_t delivered = 0;
  Status status;
  std::string value;  // one buffer for every row the scan delivers
  t->index.ScanFrom(lower, [&](const Key& key, uint64_t ridv) {
    Rid rid = ridv;
    if (txn->isolation() == IsolationLevel::kSerializable) {
      Status s = locks_.Lock(txn->lock_owner_, rid, LockMode::kShared);
      if (!s.ok()) {
        status = s;
        return false;
      }
      txn->locks_.push_back(rid);
    }
    bool found = false;
    Status s = ReadVisibleRow(txn, t, rid, &value, &found);
    if (!s.ok()) {
      status = s;
      return false;
    }
    if (!found) return true;
    delivered++;
    if (!cb(key, value)) return false;
    return limit == 0 || delivered < limit;
  });
  if (!status.ok() && status.IsAnyAbort()) Abort(txn);
  return status;
}

void StorEngine::InstallRowVersion(StorTxn* txn, StorTable* t, Rid rid,
                                   uint8_t* slot, const Key& key,
                                   std::string_view value, bool tombstone,
                                   bool fresh_insert) {
  UndoRecord* undo = txn->undo_arena_.NewUndo();
  undo->rid = rid;
  if (fresh_insert) {
    undo->old_deleted = true;
  } else {
    RowHeader old_hdr;
    DecodeRowHeader(slot, &old_hdr, nullptr);
    undo->old_tid = old_hdr.tid;
    undo->old_roll = reinterpret_cast<UndoRecord*>(old_hdr.roll_ptr);
    undo->old_deleted = old_hdr.deleted() || !old_hdr.in_use();
    if (old_hdr.vlen <= t->max_value_size) {
      undo->old_value = txn->undo_arena_.Copy(std::string_view(
          reinterpret_cast<const char*>(RowValuePtr(slot)), old_hdr.vlen));
    }
  }
  undo->next_in_txn = txn->undo_head_;
  txn->undo_head_ = undo;

  RowHeader hdr;
  hdr.flags = RowHeader::kFlagInUse |
              (tombstone ? RowHeader::kFlagDeleted : 0);
  hdr.tid = txn->tid_;
  hdr.roll_ptr = reinterpret_cast<uint64_t>(undo);
  hdr.vlen = static_cast<uint32_t>(value.size());
  EncodeRowHeader(slot, hdr, key);
  if (!value.empty()) {
    std::memcpy(RowValuePtr(slot), value.data(), value.size());
  }

  RedoEntry* redo = txn->redo_arena_.NewRedo();
  redo->table = t->id;
  redo->key = key;
  redo->value = txn->redo_arena_.Copy(value);
  redo->tombstone = tombstone;
  if (txn->redo_last_ == nullptr) {
    txn->redo_head_ = redo;
  } else {
    txn->redo_last_->next = redo;
  }
  txn->redo_last_ = redo;
  ++txn->redo_count_;
}

Status StorEngine::WriteRowLatched(StorTxn* txn, StorTable* t, Rid rid,
                                   const Key& key, std::string_view value,
                                   bool tombstone, bool fresh_insert) {
  auto page = pool_->FetchPage(MakePageId(t->id, RidPage(rid)));
  if (!page.ok()) return page.status();
  // Room for the undo record and before-image, and for the redo entry and
  // after-image (plus alignment), so nothing mallocs under the latch.
  txn->undo_arena_.Reserve(sizeof(UndoRecord) + t->max_value_size + 16);
  txn->redo_arena_.Reserve(sizeof(RedoEntry) + value.size() + 16);
  PageGuard& guard = page.value();
  guard.LockExclusive();
  uint8_t* slot = guard.data() + SlotOffset(RidSlot(rid), t->max_value_size);
  if (!fresh_insert) {
    // First-updater-wins under SI: the row's latest version must be
    // visible (the prior writer has fully finished since we hold the X
    // lock; if its commit is outside our snapshot, updating would
    // overwrite data we cannot see).
    RowHeader hdr;
    DecodeRowHeader(slot, &hdr, nullptr);
    if (hdr.tid != txn->tid_ && !trx_sys_.Visible(txn->view_, hdr.tid)) {
      // Unlatch before aborting: Rollback latches the pages this
      // transaction wrote, and this page may be one of them.
      guard.UnlockExclusiveClean();
      Abort(txn);
      return Status::Aborted("write-write conflict");
    }
  }
  InstallRowVersion(txn, t, rid, slot, key, value, tombstone, fresh_insert);
  guard.UnlockExclusive();
  return Status::OK();
}

Status StorEngine::WriteRow(StorTxn* txn, StorTable* t, const Key& key,
                            std::string_view value, bool tombstone) {
  if (value.size() > t->max_value_size) {
    return Status::InvalidArgument("value exceeds table max_value_size");
  }
  EnsureTid(txn);
  SKEENA_RETURN_NOT_OK(EnsureView(txn));

  for (int attempt = 0; attempt < 4; ++attempt) {
    uint64_t ridv = 0;
    if (t->index.Lookup(key, &ridv)) {
      Rid rid = ridv;
      Status s = locks_.Lock(txn->lock_owner_, rid, LockMode::kExclusive);
      if (!s.ok()) {
        Abort(txn);
        return s;
      }
      txn->locks_.push_back(rid);
      return WriteRowLatched(txn, t, rid, key, value, tombstone,
                             /*fresh_insert=*/false);
    }

    // Insert path: claim a fresh slot, then publish it in the index.
    Rid rid = AllocateSlot(t);
    Status s = locks_.Lock(txn->lock_owner_, rid, LockMode::kExclusive);
    if (!s.ok()) {
      Abort(txn);
      return s;
    }
    txn->locks_.push_back(rid);
    if (t->index.Insert(key, rid)) {
      return WriteRowLatched(txn, t, rid, key, value, tombstone,
                             /*fresh_insert=*/true);
    }
    // Lost an insert race; retry through the update path.
  }
  Abort(txn);
  return Status::Busy("insert race");
}

Status StorEngine::Put(SubTxn* sub, TableId table, const Key& key,
                       std::string_view value) {
  StorTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  return WriteRow(static_cast<StorTxn*>(sub), t, key, value,
                  /*tombstone=*/false);
}

Status StorEngine::Delete(SubTxn* sub, TableId table, const Key& key) {
  StorTable* t = GetTable(table);
  if (t == nullptr) return Status::InvalidArgument("no such table");
  uint64_t ridv = 0;
  if (!t->index.Lookup(key, &ridv)) return Status::NotFound();
  return WriteRow(static_cast<StorTxn*>(sub), t, key, std::string_view(),
                  /*tombstone=*/true);
}

Status StorEngine::PreCommit(SubTxn* sub, Timestamp* commit_ts) {
  auto* txn = static_cast<StorTxn*>(sub);
  assert(txn->state_ == StorTxn::State::kActive);

  if (txn->read_only()) {
    txn->ser_no_ = (txn->has_view_ && txn->view_.is_cross_engine())
                       ? txn->view_.ser_limit
                       : trx_sys_.LatestSerSnapshot();
    txn->state_ = StorTxn::State::kPreCommitted;
    if (commit_ts != nullptr) *commit_ts = txn->ser_no_;
    return Status::OK();
  }

  // Enter the committing window *before* drawing the serialisation number
  // (see MemEngine::PreCommit): ReplicationHorizon() must never pass a ser
  // whose redo images are still pending at post-commit.
  txn->committing_slot_ = committing_.Acquire();
  committing_.BeginAcquire(txn->committing_slot_);
  txn->ser_no_ = trx_sys_.AssignSerNo(txn->tid_);
  committing_.SetSnapshot(txn->committing_slot_, txn->ser_no_);

  // Nothing is logged here: redo images and the commit record go out at
  // post-commit, keeping the cross-engine ordered section log-free (see
  // MemEngine::PreCommit).
  txn->state_ = StorTxn::State::kPreCommitted;
  if (commit_ts != nullptr) *commit_ts = txn->ser_no_;
  return Status::OK();
}

Lsn StorEngine::PostCommit(SubTxn* sub, GlobalTxnId gtid, bool cross_engine) {
  auto* txn = static_cast<StorTxn*>(sub);
  assert(txn->state_ == StorTxn::State::kPreCommitted);

  RedoWriter redo(log_.get(), gtid, txn->ser_no_);
  if (!txn->read_only()) {
    for (const RedoEntry* r = txn->redo_head_; r != nullptr; r = r->next) {
      redo.Data(r->table, r->key, r->tombstone, r->value);
    }
    trx_sys_.MarkCommitted(txn->tid_);
  }
  Lsn lsn = 0;
  if (!txn->read_only() || cross_engine) lsn = redo.Commit(cross_engine);
  // Leave the committing window only after the last log append: the
  // replication horizon must not pass this ser while records are pending.
  if (txn->committing_slot_ != StorTxn::kNoSlot) {
    committing_.Release(txn->committing_slot_);
    txn->committing_slot_ = StorTxn::kNoSlot;
  }
  txn->state_ = StorTxn::State::kCommitted;
  FinishTxn(txn);
  MaybePurge(commit_count_.Increment());
  return lsn;
}

Timestamp StorEngine::ReplicationHorizon() const {
  // Fallback counter+1, read before the scan (see
  // MemEngine::ReplicationHorizon): a committer entering the window after
  // the scan draws its ser from a later counter increment, strictly above
  // the value we return.
  Timestamp latest = trx_sys_.LatestSerSnapshot();
  return committing_.MinActive(latest + 1) - 1;
}

Lsn StorEngine::CommitReplicated(SubTxn* sub, GlobalTxnId gtid,
                                 uint64_t ser) {
  auto* txn = static_cast<StorTxn*>(sub);
  assert(txn->state_ == StorTxn::State::kActive);
  assert(!txn->read_only());
  trx_sys_.ForceSerNo(txn->tid_, ser);
  txn->ser_no_ = ser;
  txn->state_ = StorTxn::State::kPreCommitted;
  return PostCommit(txn, gtid, /*cross_engine=*/false);
}

void StorEngine::Abort(SubTxn* sub) {
  auto* txn = static_cast<StorTxn*>(sub);
  if (txn->state_ == StorTxn::State::kCommitted ||
      txn->state_ == StorTxn::State::kAborted) {
    return;
  }
  if (txn->tid_ != 0) {
    trx_sys_.MarkAborting(txn->tid_);
    Rollback(txn);
    trx_sys_.FinishAbort(txn->tid_);
  }
  if (txn->committing_slot_ != StorTxn::kNoSlot) {
    committing_.Release(txn->committing_slot_);
    txn->committing_slot_ = StorTxn::kNoSlot;
  }
  txn->state_ = StorTxn::State::kAborted;
  FinishTxn(txn);
  abort_count_.Add(1);
}

void StorEngine::Rollback(StorTxn* txn) {
  // Restore before-images newest-first (the chain's natural order).
  for (UndoRecord* u = txn->undo_head_; u != nullptr; u = u->next_in_txn) {
    StorTable* t = GetTable(RidTable(u->rid));
    auto page = pool_->FetchPage(MakePageId(t->id, RidPage(u->rid)));
    if (!page.ok()) continue;  // device error: row stays invisible (aborted)
    PageGuard& guard = page.value();
    guard.LockExclusive();
    uint8_t* slot =
        guard.data() + SlotOffset(RidSlot(u->rid), t->max_value_size);
    RowHeader hdr;
    hdr.flags = RowHeader::kFlagInUse |
                (u->old_deleted ? RowHeader::kFlagDeleted : 0);
    hdr.tid = u->old_tid;
    hdr.roll_ptr = reinterpret_cast<uint64_t>(u->old_roll);
    hdr.vlen = static_cast<uint32_t>(u->old_value.size());
    EncodeRowHeaderFields(slot, hdr);
    if (!u->old_value.empty()) {
      std::memcpy(RowValuePtr(slot), u->old_value.data(),
                  u->old_value.size());
    }
    guard.UnlockExclusive();
  }
}

void StorEngine::FinishTxn(StorTxn* txn) {
  locks_.ReleaseAll(txn->lock_owner_, txn->locks_);
  txn->locks_.clear();
  if (txn->has_view_) {
    trx_sys_.view_registry().Release(txn->view_slot_);
    txn->has_view_ = false;
  }
  RetireUndos(txn);
}

namespace {
// Deleter for one purge round's ripe undo batches, concatenated into one
// chunk list.
void FreeUndoChunksRaw(void* p) {
  UndoArena::Free(static_cast<UndoArena::Chunk*>(p));
}
}  // namespace

void StorEngine::RetireUndos(StorTxn* txn) {
  txn->undo_head_ = nullptr;
  txn->redo_head_ = txn->redo_last_ = nullptr;
  txn->redo_arena_.Clear();
  UndoArena::Batch batch = txn->undo_arena_.Release();
  if (batch.head == nullptr) return;
  // Undo images must outlive every view that may still walk them. A
  // committed transaction's undos are only walked by views older than its
  // commit order, so its ser_no is the right retire bound. An ABORTED
  // transaction's undos may be walked by ANY active view that captured the
  // row header before the rollback — even views far newer than its
  // pre-commit ser_no — so aborts always retire at the current counter:
  // every such view began (and registered) before this point, which pins
  // the purge floor below it. The batch then waits FIFO until the floor
  // passes the bound, and is freed through the epoch manager after that
  // (covering readers mid-walk).
  bool committed = txn->state_ == StorTxn::State::kCommitted;
  uint64_t ser = (committed && txn->ser_no_ != 0)
                     ? txn->ser_no_
                     : trx_sys_.LatestSerSnapshot() + 1;
  MutexLock guard(pending_mu_);
  pending_undos_.push_back(PendingUndos{ser, batch});
}

void StorEngine::MaybePurge(uint64_t thread_commits) {
  if (options_.purge_interval == 0 ||
      thread_commits % options_.purge_interval != 0) {
    return;
  }
  // Explicit TryLock so TSA tracks the branch (see thread_annotations.h).
  if (!purge_round_mu_.TryLock()) return;  // another committer is purging
  // One exact view-registry scan (MinActive waits out in-flight
  // registrations) plus the coordinator's bound on what the CSR could
  // still select; their min is safe both to reclaim with and to validate
  // pinned views against — one floor, no published/apply split.
  uint64_t m = trx_sys_.MinActiveViewSer();
  if (purge_horizon_provider_) {
    m = std::min(m, purge_horizon_provider_());
  }
  AtomicFetchMax(purge_floor_, m, std::memory_order_seq_cst);
  trx_sys_.PurgeStates(m);
  // Drain the ripe FIFO prefix: O(ripe), not a scan of everything
  // retained. A smaller ser stuck behind a larger head just waits for the
  // floor to pass the head too — conservative, never unsafe. The ripe
  // batches' chunk lists are concatenated and retired as ONE limbo entry,
  // so a round costs the epoch manager one RetireRaw (one limbo_mu_
  // acquisition, one TryAdvance) however many transactions it reclaims.
  UndoArena::Batch ripe;
  {
    MutexLock guard(pending_mu_);
    while (!pending_undos_.empty() && pending_undos_.front().ser < m) {
      const UndoArena::Batch& b = pending_undos_.front().batch;
      if (ripe.head == nullptr) {
        ripe.head = b.head;
      } else {
        ripe.tail->next = b.head;
      }
      ripe.tail = b.tail;
      ripe.undo_records += b.undo_records;
      pending_undos_.pop_front();
    }
  }
  if (ripe.head != nullptr) {
    undo_purged_.Add(ripe.undo_records);
    epoch_->RetireRaw(ripe.head, &FreeUndoChunksRaw);  // drives TryAdvance
  } else {
    epoch_->TryAdvance();
  }
  purge_round_mu_.Unlock();
}

StorEngine::Stats StorEngine::stats() const {
  Stats s;
  s.commits = commit_count_.Read();
  s.aborts = abort_count_.Read();
  s.undo_purged = undo_purged_.Read();
  s.pool_hit_ratio = pool_->HitRatio();
  s.pool_flush_waits = pool_->flush_waits();
  s.pool_write_backs = pool_->write_backs();
  return s;
}

Status StorEngine::RecoveryApply(StorTable* t, const Key& key,
                                 const std::string& value, bool tombstone) {
  uint64_t ridv = 0;
  Rid rid;
  if (t->index.Lookup(key, &ridv)) {
    rid = ridv;
  } else {
    rid = AllocateSlot(t);
    t->index.Insert(key, rid);
  }
  auto page = pool_->FetchPage(MakePageId(t->id, RidPage(rid)));
  if (!page.ok()) return page.status();
  PageGuard& guard = page.value();
  guard.LockExclusive();
  uint8_t* slot = guard.data() + SlotOffset(RidSlot(rid), t->max_value_size);
  RowHeader hdr;
  hdr.flags =
      RowHeader::kFlagInUse | (tombstone ? RowHeader::kFlagDeleted : 0);
  hdr.tid = 1;  // genesis: anciently committed
  hdr.roll_ptr = 0;
  hdr.vlen = static_cast<uint32_t>(value.size());
  EncodeRowHeader(slot, hdr, key);
  if (!value.empty()) {
    std::memcpy(RowValuePtr(slot), value.data(), value.size());
  }
  guard.UnlockExclusive();
  return Status::OK();
}

Status StorEngine::ApplyRecovered(const std::vector<CommittedGroup>& groups) {
  Timestamp max_cts = 1;
  for (const CommittedGroup& g : groups) {
    for (const LogRecord& rec : g.records) {
      StorTable* t = GetTable(rec.table);
      if (t == nullptr) {
        return Status::Corruption("stordb log references unknown table");
      }
      SKEENA_RETURN_NOT_OK(RecoveryApply(t, rec.key, rec.value,
                                         rec.tombstone));
    }
    max_cts = std::max(max_cts, g.cts);
  }
  trx_sys_.AdvanceTo(max_cts + 1);
  return Status::OK();
}

}  // namespace skeena::stordb
