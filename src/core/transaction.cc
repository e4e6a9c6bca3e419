#include "core/transaction.h"

namespace skeena {

Transaction::Transaction(Database* db, IsolationLevel iso)
    : db_(db),
      iso_(iso),
      gtid_(db->NextGtid()),
      skeena_on_(db->skeena_enabled()) {
  // relaxed-ok: diagnostic gauge (see Database::active_transactions).
  db_->active_txns_.fetch_add(1, std::memory_order_relaxed);
  if (HistoryRecorder* rec = db_->recorder()) {
    hist_ = rec->StartTxn(gtid_, iso_, skeena_on_);
  }
}

Transaction::~Transaction() {
  if (state_ == State::kActive) Abort();
}

void Transaction::ReleaseAnchorSlot() {
  if (anchor_slot_ != ~size_t{0}) {
    db_->anchor_registry().Release(anchor_slot_);
    anchor_slot_ = ~size_t{0};
  }
  if (replica_other_slot_ != ~size_t{0}) {
    db_->replica_other_registry().Release(replica_other_slot_);
    replica_other_slot_ = ~size_t{0};
  }
}

Status Transaction::EnsureReplicaSnapshots() {
  if (anchor_snap_ != kInvalidTimestamp) return Status::OK();
  // Pre-register sentinels in BOTH registries, then read the gate pair:
  // the replica GC providers' MinActive scans wait the sentinels out, so
  // neither engine's floor can pass the pair between the read here and the
  // SetSnapshot stores below (same discipline as EnsureAnchorSnapshot).
  anchor_slot_ = db_->anchor_registry().Acquire();
  db_->anchor_registry().BeginAcquire(anchor_slot_);
  replica_other_slot_ = db_->replica_other_registry().Acquire();
  db_->replica_other_registry().BeginAcquire(replica_other_slot_);
  auto pair = db_->ReplicaSnapshotPair();
  anchor_snap_ = pair.first;
  replica_other_snap_ = pair.second;
  db_->anchor_registry().SetSnapshot(anchor_slot_, anchor_snap_);
  // Ser-horizon convention (see Database::replica_other_registry()).
  db_->replica_other_registry().SetSnapshot(replica_other_slot_,
                                            replica_other_snap_ + 1);
  return Status::OK();
}

Status Transaction::EnsureAnchorSnapshot() {
  if (anchor_snap_ != kInvalidTimestamp) return Status::OK();
  // Register before reading the anchor clock so CSR recycling never drops
  // the partition this snapshot lands in (Section 4.4). Acquire() reuses
  // the calling thread's cached slot, so this is latch-free in steady
  // state — no shared-state round-trip per transaction.
  anchor_slot_ = db_->anchor_registry().Acquire();
  db_->anchor_registry().BeginAcquire(anchor_slot_);
  anchor_snap_ = db_->engine(db_->anchor_index())->LatestSnapshot();
  db_->anchor_registry().SetSnapshot(anchor_slot_, anchor_snap_);
  return Status::OK();
}

Status Transaction::PrepareAccess(int e) {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction is not active");
  }
  int anchor = db_->anchor_index();

  if (db_->replica()) {
    // Replica reads: the snapshot pair is the visibility gate — already
    // proven cross-engine consistent against the replayed CSR — so there
    // is no anchor acquisition and no CSR selection here (a read install
    // would corrupt the replayed registry). The pair stays pinned for the
    // transaction's lifetime, including under read committed: the gate is
    // the only consistent pair the replica knows.
    if (subs_[e]) return Status::OK();
    SKEENA_RETURN_NOT_OK(EnsureReplicaSnapshots());
    Timestamp selected = e == anchor ? anchor_snap_ : replica_other_snap_;
    subs_[e] = db_->engine(e)->Begin(iso_, selected);
    if (subs_[e] == nullptr) {
      Abort();
      return Status::SkeenaAbort("gate snapshot predates engine GC floor");
    }
    used_[e] = true;
    if (hist_) {
      hist_->used[e] = true;
      hist_->begin[e] = selected;
      hist_snap_[e] = selected;
      hist_->anchor_snap = anchor_snap_;
      if (e != anchor) {
        hist_->snap_pairs.emplace_back(anchor_snap_, selected);
      }
    }
    return Status::OK();
  }

  if (!skeena_on_) {
    // Uncoordinated baseline: native latest snapshots in each engine.
    if (!subs_[e]) {
      subs_[e] = db_->engine(e)->Begin(iso_, kMaxTimestamp);
      used_[e] = true;
      if (hist_) {
        hist_->used[e] = true;
        hist_->begin[e] = kMaxTimestamp;
        hist_snap_[e] = kMaxTimestamp;
      }
    } else if (iso_ == IsolationLevel::kReadCommitted) {
      SKEENA_RETURN_NOT_OK(
          db_->engine(e)->RefreshSnapshot(subs_[e].get(), kMaxTimestamp));
    }
    return Status::OK();
  }

  // Read committed refreshes the snapshot on every record access
  // (paper Table 2): drop the pinned anchor snapshot and re-select.
  bool rc_refresh =
      iso_ == IsolationLevel::kReadCommitted && subs_[e] != nullptr;
  if (rc_refresh) {
    db_->anchor_registry().BeginAcquire(anchor_slot_);
    anchor_snap_ = db_->engine(anchor)->LatestSnapshot();
    db_->anchor_registry().SetSnapshot(anchor_slot_, anchor_snap_);
    Result<Timestamp> selected = SelectSnapshot(e);
    if (!selected.ok()) return selected.status();
    Status refreshed =
        db_->engine(e)->RefreshSnapshot(subs_[e].get(), *selected);
    if (!refreshed.ok()) {
      Abort();
      return refreshed;
    }
    if (hist_) {
      hist_snap_[e] = *selected;
      hist_->anchor_snap = anchor_snap_;
    }
    return Status::OK();
  }

  if (subs_[e]) return Status::OK();

  // First access to this engine. Every Skeena-managed transaction starts
  // from the anchor's snapshot order (Section 4.3) — even if it never
  // touches anchor data.
  SKEENA_RETURN_NOT_OK(EnsureAnchorSnapshot());
  Result<Timestamp> sel = SelectSnapshot(e);
  if (!sel.ok()) return sel.status();
  Timestamp selected = *sel;
  subs_[e] = db_->engine(e)->Begin(iso_, selected);
  if (subs_[e] == nullptr) {
    // The engine refused the snapshot: its GC/purge floor moved past it
    // between selection and registration. Retryable, like a CSR abort.
    Abort();
    return Status::SkeenaAbort("selected snapshot predates engine GC floor");
  }
  used_[e] = true;
  if (hist_) {
    hist_->used[e] = true;
    hist_->begin[e] = selected;
    hist_snap_[e] = selected;
    hist_->anchor_snap = anchor_snap_;
    // Snapshot-pair atomicity only holds where the snapshot is pinned:
    // read committed re-selects per access and may legitimately tear.
    if (e != anchor && iso_ != IsolationLevel::kReadCommitted) {
      hist_->snap_pairs.emplace_back(anchor_snap_, selected);
    }
  }
  return Status::OK();
}

Result<Timestamp> Transaction::SelectSnapshot(int e) {
  if (e == db_->anchor_index()) return anchor_snap_;
  Result<Timestamp> sel = db_->csr().SelectSnapshot(anchor_snap_, [this, e] {
    return db_->engine(e)->LatestSnapshot();
  });
  if (!sel.ok()) Abort();
  return sel;
}

Status Transaction::HandleOpStatus(Status s) {
  if (s.IsAnyAbort()) {
    // The engine already rolled back its own sub-transaction; abort the
    // rest of the cross-engine transaction for atomicity.
    Abort();
  }
  return s;
}

void Transaction::RecordOp(HistOpKind kind, int e, TableId table,
                           const Key& key, std::string_view value,
                           bool found) {
  HistOp op;
  op.kind = kind;
  op.engine = static_cast<uint8_t>(e);
  op.table = table;
  op.key = key;
  op.value.assign(value.data(), value.size());
  op.found = found;
  op.snapshot = hist_snap_[e];
  hist_->ops.push_back(std::move(op));
}

Status Transaction::Get(const TableHandle& table, const Key& key,
                        std::string* value) {
  int e = table.engine_index;
  SKEENA_RETURN_NOT_OK(PrepareAccess(e));
  Status s = db_->engine(e)->Get(subs_[e].get(), table.local_id, key, value);
  if (hist_ && (s.ok() || s.IsNotFound())) {
    RecordOp(HistOpKind::kGet, e, table.local_id, key,
             s.ok() ? std::string_view(*value) : std::string_view(), s.ok());
  }
  return HandleOpStatus(s);
}

Status Transaction::Put(const TableHandle& table, const Key& key,
                        std::string_view value) {
  if (db_->replica()) return Status::NotSupported("replica is read-only");
  int e = table.engine_index;
  SKEENA_RETURN_NOT_OK(PrepareAccess(e));
  Status s = db_->engine(e)->Put(subs_[e].get(), table.local_id, key, value);
  if (hist_ && s.ok()) {
    RecordOp(HistOpKind::kPut, e, table.local_id, key, value, true);
  }
  return HandleOpStatus(s);
}

Status Transaction::Delete(const TableHandle& table, const Key& key) {
  if (db_->replica()) return Status::NotSupported("replica is read-only");
  int e = table.engine_index;
  SKEENA_RETURN_NOT_OK(PrepareAccess(e));
  Status s = db_->engine(e)->Delete(subs_[e].get(), table.local_id, key);
  if (hist_ && s.ok()) {
    RecordOp(HistOpKind::kDelete, e, table.local_id, key, {}, false);
  }
  return HandleOpStatus(s);
}

Status Transaction::Scan(
    const TableHandle& table, const Key& lower, size_t limit,
    const std::function<bool(const Key&, const std::string&)>& cb) {
  int e = table.engine_index;
  SKEENA_RETURN_NOT_OK(PrepareAccess(e));
  Status s;
  if (hist_) {
    s = db_->engine(e)->Scan(
        subs_[e].get(), table.local_id, lower, limit,
        [&](const Key& k, const std::string& v) {
          RecordOp(HistOpKind::kScanRow, e, table.local_id, k, v, true);
          return cb(k, v);
        });
  } else {
    s = db_->engine(e)->Scan(subs_[e].get(), table.local_id, lower, limit,
                             cb);
  }
  return HandleOpStatus(s);
}

Status Transaction::Get(const std::string& table, const Key& key,
                        std::string* value) {
  auto h = db_->GetTable(table);
  if (!h.ok()) return h.status();
  return Get(*h, key, value);
}

Status Transaction::Put(const std::string& table, const Key& key,
                        std::string_view value) {
  auto h = db_->GetTable(table);
  if (!h.ok()) return h.status();
  return Put(*h, key, value);
}

Status Transaction::Commit() {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction is not active");
  }
  int anchor = db_->anchor_index();
  int other = 1 - anchor;

  if (!used_[0] && !used_[1]) {
    state_ = State::kCommitted;
    // relaxed-ok: diagnostic gauge (see Database::active_transactions).
    db_->active_txns_.fetch_sub(1, std::memory_order_relaxed);
    ReleaseAnchorSlot();
    if (hist_) {
      hist_->outcome = TxnHistory::Outcome::kCommitted;
      db_->recorder()->Record(std::move(hist_));
    }
    return Status::OK();
  }

  bool cross = used_[0] && used_[1];

  // ---- Step 1: pre-commit every sub-transaction, anchor first, obtaining
  // engine-level commit timestamps (Section 4.5). The write/read-only
  // classification per engine is needed by both the commit check and the
  // history record; it is valid only before post-commit.
  Timestamp cts[kNumEngines] = {0, 0};
  bool wrote[kNumEngines] = {false, false};
  int order[2] = {anchor, other};
  auto pre_commit = [&]() -> Status {
    for (int i = 0; i < 2; ++i) {
      int e = order[i];
      if (!used_[e]) continue;
      SKEENA_RETURN_NOT_OK(
          db_->engine(e)->PreCommit(subs_[e].get(), &cts[e]));
      wrote[e] = !db_->engine(e)->IsReadOnly(subs_[e].get());
    }
    return Status::OK();
  };

  // ---- Step 2: Skeena commit check. An "all-yes" pre-commit is not
  // sufficient — unlike 2PC, the transaction may still abort here.
  // Transactions that touched the non-anchor engine run step 1 and the
  // check as one unit under the CSR writer mutex (OrderedCommitCheck), so
  // their timestamp draws never interleave and the two engines agree on
  // their commit order. Single-engine work in the non-anchor (slow) engine
  // is still effectively cross-engine — its commit must respect the
  // anchor's start order (Section 4.3).
  //
  // Anchor position of a transaction with no anchor writes:
  //  * It wrote the other engine (New-Order under New-Order-Opt), under
  //    snapshot isolation or read committed: the anchor's latest snapshot,
  //    read under the mutex. It has nothing in the anchor for a reader to
  //    see, so any anchor position at or past its view is sound; and no
  //    CSR key can exceed that value while the mutex is held (keys are
  //    anchor snapshots or anchor commit timestamps already drawn), so the
  //    new mapping extends the order instead of landing under a later key
  //    that maps to a smaller other-engine value (a high-bound abort).
  //  * It only read, or runs serializable: its anchor snapshot, the one
  //    its other-engine view was selected against. A serializable
  //    transaction's anchor position is its serial point in the anchor.
  //    memdb's read validation requires each version read to still be
  //    the head, but a read-only sub-transaction's validation cannot see
  //    a writer that has pre-committed and not yet installed its version.
  //    Placed at the latest snapshot, such a reader could follow a writer
  //    whose predecessor it read, and a Figure 3 write skew would commit;
  //    at its begin position the commit check refuses it. Under read
  //    committed the anchor snapshot is the latest refresh.
  // Anchor-only transactions never touch the CSR (Table 3: ERMIA-S matches
  // ERMIA). Replica readers skip the check: their pair was gate-proven
  // consistent, and running it would install read mappings into the
  // replayed CSR.
  Status s;
  Timestamp anchor_pos = kInvalidTimestamp;
  if (skeena_on_ && !db_->replica() && used_[other]) {
    s = db_->csr().OrderedCommitCheck(
        [&](SnapshotRegistry::CommitPair* pair) -> Status {
          SKEENA_RETURN_NOT_OK(pre_commit());
          if (wrote[anchor]) {
            anchor_pos = cts[anchor];
          } else if (wrote[other] && iso_ != IsolationLevel::kSerializable) {
            anchor_pos = db_->engine(anchor)->LatestSnapshot();
          } else {
            anchor_pos = anchor_snap_;
          }
          pair->anchor_cts = anchor_pos;
          pair->other_cts = cts[other];
          pair->anchor_engine_wrote = wrote[anchor];
          pair->other_engine_wrote = wrote[other];
          return Status::OK();
        });
  } else {
    s = pre_commit();
  }
  if (!s.ok()) {
    Abort();  // aborts every pre-committed sub-transaction
    return s;
  }

  // ---- Step 3: post-commit in the same (anchor-first) order in both
  // engines; results become visible internally but are not released to the
  // caller until durable.
  Lsn lsns[kNumEngines] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    int e = order[i];
    if (!used_[e]) continue;
    Lsn lsn = db_->engine(e)->PostCommit(subs_[e].get(), gtid_,
                                         cross && skeena_on_);
    // Read-only sub-transactions may still have observed other
    // transactions' not-yet-durable results: gate on the log tail.
    lsns[e] = lsn != 0 ? lsn : db_->engine(e)->Log()->CurrentLsn();
    if (i == 0 && cross && db_->options_.test_post_commit_hook) {
      // Inter-engine post-commit window: one engine's results are visible
      // (and its commit horizon may pass this transaction), the other's
      // are not yet.
      db_->options_.test_post_commit_hook(gtid_);
    }
  }

  state_ = State::kCommitted;
  // relaxed-ok: diagnostic gauge (see Database::active_transactions).
  db_->active_txns_.fetch_sub(1, std::memory_order_relaxed);
  ReleaseAnchorSlot();

  // ---- Pipelined commit: wait for both engines' durable LSNs (Section
  // 4.5). Callers get synchronous commit semantics while worker threads of
  // the engines stay off the I/O path.
  db_->pipeline().WaitDurable(lsns);
  if (hist_) {
    // Recorded only after the durability wait returns: outcome kCommitted
    // means "acknowledged to the caller".
    hist_->outcome = TxnHistory::Outcome::kCommitted;
    hist_->anchor_snap = anchor_snap_;
    hist_->anchor_pos = anchor_pos;
    for (int e = 0; e < kNumEngines; ++e) {
      hist_->commit[e] = cts[e];
      hist_->wrote[e] = wrote[e];
      hist_->post_committed[e] = used_[e];
    }
    db_->recorder()->Record(std::move(hist_));
  }
  return Status::OK();
}

void Transaction::Abort() {
  if (state_ != State::kActive) return;
  for (int e = 0; e < kNumEngines; ++e) {
    if (used_[e] && subs_[e] != nullptr) db_->engine(e)->Abort(subs_[e].get());
  }
  ReleaseAnchorSlot();
  state_ = State::kAborted;
  // relaxed-ok: diagnostic gauge (see Database::active_transactions).
  db_->active_txns_.fetch_sub(1, std::memory_order_relaxed);
  if (hist_) {
    hist_->outcome = TxnHistory::Outcome::kAborted;
    db_->recorder()->Record(std::move(hist_));
  }
}

}  // namespace skeena
