#include "core/csr.h"

#include <algorithm>
#include <cassert>

namespace skeena {

SnapshotRegistry::SnapshotRegistry(Options options, EpochManager* epoch)
    : options_(options) {
  if (options_.partition_capacity == 0) options_.partition_capacity = 1;
  if (epoch == nullptr) {
    owned_epoch_ = std::make_unique<EpochManager>();
    epoch_ = owned_epoch_.get();
  } else {
    epoch_ = epoch;
  }
  list_.store(new PartitionList(), std::memory_order_release);
}

SnapshotRegistry::~SnapshotRegistry() {
  // Retired lists/partitions live in the epoch manager's limbo and are
  // freed by it; only the currently-published list is still ours.
  PartitionList* list = list_.load(std::memory_order_relaxed);
  for (Partition* p : list->parts) delete p;
  delete list;
}

size_t SnapshotRegistry::LocatePartition(const PartitionList& list,
                                         Timestamp snap) {
  if (list.parts.empty()) return kNpos;
  if (snap < list.floor) return kNpos;  // its partition was recycled
  // Last partition whose range starts at or below `snap` (Section 4.3);
  // binary search on min_key — this runs on every CSR access.
  auto it = std::upper_bound(
      list.parts.begin(), list.parts.end(), snap,
      [](Timestamp s, const Partition* p) { return s < p->min_key; });
  if (it == list.parts.begin()) {
    // Older than the first-ever mapping but nothing recycled beneath it:
    // the first partition's range extends down to the floor.
    return 0;
  }
  return static_cast<size_t>(it - list.parts.begin()) - 1;
}

size_t SnapshotRegistry::LowerBound(const Partition& p, size_t n,
                                    Timestamp key) {
  const Entry* first = p.entries.get();
  return static_cast<size_t>(
      std::lower_bound(first, first + n, key,
                       [](const Entry& e, Timestamp k) { return e.key < k; }) -
      first);
}

size_t SnapshotRegistry::UpperBound(const Partition& p, size_t n,
                                    Timestamp key) {
  const Entry* first = p.entries.get();
  return static_cast<size_t>(
      std::upper_bound(first, first + n, key,
                       [](Timestamp k, const Entry& e) { return k < e.key; }) -
      first);
}

void SnapshotRegistry::PublishLocked(PartitionList* next) {
  PartitionList* old = list_.exchange(next, std::memory_order_acq_rel);
  epoch_->Retire(old);
}

void SnapshotRegistry::AppendPartitionLocked(Timestamp key, Timestamp value) {
  PartitionList* list = list_.load(std::memory_order_relaxed);
  auto* np = new Partition(key, options_.partition_capacity);
  np->entries[0].key = key;
  np->entries[0].vmin.store(value, std::memory_order_relaxed);
  np->entries[0].vmax.store(value, std::memory_order_relaxed);
  np->count.store(1, std::memory_order_relaxed);
  auto* nl = new PartitionList{list->floor, list->parts};
  nl->parts.push_back(np);
  // Partitions are published with their first entry already in place —
  // readers never observe an empty partition.
  PublishLocked(nl);
  partitions_created_.Add(1);
  if (options_.install_observer) options_.install_observer(key, value);
}

SnapshotRegistry::MapResult SnapshotRegistry::InstallLocked(Timestamp key,
                                                            Timestamp value,
                                                            size_t idx,
                                                            size_t lb) {
  PartitionList* list = list_.load(std::memory_order_relaxed);
  Partition* p = list->parts[idx];
  bool is_last = idx + 1 == list->parts.size();
  size_t n = p->count.load(std::memory_order_relaxed);
  // The caller located idx/lb on this same list under write_mu_; nothing
  // can have moved since.
  assert(idx == LocatePartition(*list, key));
  assert(lb == LowerBound(*p, n, key));

  if (lb < n && p->entries[lb].key == key) {
    Entry& e = p->entries[lb];
    Timestamp vmin = e.vmin.load(std::memory_order_relaxed);
    Timestamp vmax = e.vmax.load(std::memory_order_relaxed);
    if (value >= vmin && value <= vmax) {
      return MapResult::kOk;  // already covered by the interval
    }
    if (!is_last) {
      // Widening the interval is a new mapping; sealed partitions are
      // immutable.
      return MapResult::kSealed;
    }
    // In-place single-word widen; concurrent readers see either bound.
    if (value < vmin) e.vmin.store(value, std::memory_order_relaxed);
    if (value > vmax) e.vmax.store(value, std::memory_order_relaxed);
    if (options_.install_observer) options_.install_observer(key, value);
    return MapResult::kOk;
  }
  if (!is_last) return MapResult::kSealed;

  if (n < p->capacity) {
    if (lb == n) {
      // In-order append (the common case): initialize the entry, then
      // release-publish the count — readers acquire the count and only
      // search the published prefix.
      Entry& e = p->entries[n];
      e.key = key;
      e.vmin.store(value, std::memory_order_relaxed);
      e.vmax.store(value, std::memory_order_relaxed);
      p->count.store(n + 1, std::memory_order_release);
      if (options_.install_observer) options_.install_observer(key, value);
      return MapResult::kOk;
    }
    // Out-of-order insert into the open partition (rare: a committer whose
    // anchor cts raced behind already-installed ones): copy-on-write the
    // partition and swap the list, retiring the old copy via the epoch
    // manager so lock-free readers drain off it safely.
    auto* np = new Partition(std::min(p->min_key, key), p->capacity);
    for (size_t i = 0; i < lb; ++i) {
      np->entries[i].key = p->entries[i].key;
      np->entries[i].vmin.store(p->entries[i].vmin.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
      np->entries[i].vmax.store(p->entries[i].vmax.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
    }
    np->entries[lb].key = key;
    np->entries[lb].vmin.store(value, std::memory_order_relaxed);
    np->entries[lb].vmax.store(value, std::memory_order_relaxed);
    for (size_t i = lb; i < n; ++i) {
      np->entries[i + 1].key = p->entries[i].key;
      np->entries[i + 1].vmin.store(
          p->entries[i].vmin.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      np->entries[i + 1].vmax.store(
          p->entries[i].vmax.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    np->count.store(n + 1, std::memory_order_relaxed);  // published via swap
    auto* nl = new PartitionList{list->floor, list->parts};
    nl->parts[idx] = np;
    PublishLocked(nl);
    epoch_->Retire(p);
    if (options_.install_observer) options_.install_observer(key, value);
    return MapResult::kOk;
  }
  // The open partition is full: a fresh key beyond its range moves to a new
  // partition; anything inside its range can no longer be mapped.
  if (key > p->entries[n - 1].key) {
    AppendPartitionLocked(key, value);
    return MapResult::kOk;
  }
  return MapResult::kSealed;
}

Result<Timestamp> SnapshotRegistry::SelectSnapshot(
    Timestamp anchor_snap, const std::function<Timestamp()>& latest_other) {
  TickAccess();

  // ---- Lock-free fast path: Algorithm 1's hit case. The mapping is
  // already recorded (exact key) or implied (sealed predecessor): no
  // mutex, no shared write — only the epoch pin and sharded stats. The
  // guard is scoped to this block: SelectSlow runs entirely under
  // write_mu_, where nothing can be retired, and staying pinned across
  // the lock wait would only stall epoch advancement.
  {
    EpochGuard guard(*epoch_);
    const PartitionList* list = list_.load(std::memory_order_acquire);
    if (!list->parts.empty()) {
      size_t idx = LocatePartition(*list, anchor_snap);
      if (idx == kNpos) {
        // The partition that covered this (old) snapshot was recycled.
        select_aborts_.Add(1);
        return Status::SkeenaAbort("anchor snapshot predates CSR");
      }
      const Partition* p = list->parts[idx];
      bool is_last = idx + 1 == list->parts.size();
      size_t n = p->count.load(std::memory_order_acquire);
      size_t ub = UpperBound(*p, n, anchor_snap);
      if (ub > 0) {
        const Entry& pred = p->entries[ub - 1];
        if (pred.key == anchor_snap || !is_last) {
          // Exact key: the interval at our snapshot already covers the
          // selection (Algorithm 1 line 9). Sealed partition: immutable,
          // so no commit can ever land between the predecessor and our
          // snapshot — the mapping Algorithm 1 line 10 would insert is
          // already implied. This is how inactive indexes "continue to
          // serve existing transactions for snapshot selection"
          // (Section 4.3).
          mappings_.Add(1);
          return pred.vmax.load(std::memory_order_acquire);
        }
      } else if (!is_last) {
        // Without a predecessor the selection would need a new mapping
        // that can never land in a sealed partition: abort.
        sealed_aborts_.Add(1);
        select_aborts_.Add(1);
        return Status::SkeenaAbort("mapping lands in sealed CSR partition");
      }
    }
  }

  // ---- Miss: a new mapping must be installed.
  return SelectSlow(anchor_snap, latest_other);
}

Result<Timestamp> SnapshotRegistry::SelectSlow(
    Timestamp anchor_snap, const std::function<Timestamp()>& latest_other) {
  MutexLock lock(write_mu_);
  PartitionList* list = list_.load(std::memory_order_relaxed);
  if (list->parts.empty()) {
    Timestamp selected = latest_other();
    AppendPartitionLocked(anchor_snap, selected);
    mappings_.Add(1);
    return selected;
  }
  size_t idx = LocatePartition(*list, anchor_snap);
  if (idx == kNpos) {
    select_aborts_.Add(1);
    return Status::SkeenaAbort("anchor snapshot predates CSR");
  }
  Partition* p = list->parts[idx];
  bool is_last = idx + 1 == list->parts.size();
  size_t n = p->count.load(std::memory_order_relaxed);
  size_t ub = UpperBound(*p, n, anchor_snap);
  bool have_pred = ub > 0;
  Timestamp selected;
  if (have_pred) {
    // Algorithm 1 line 9: latest snapshot mapped to a key <= ours.
    selected = p->entries[ub - 1].vmax.load(std::memory_order_relaxed);
  } else {
    // No candidate: use the latest other-engine snapshot (Algorithm 1
    // line 6) — but stay strictly below any mapping made at a *newer*
    // anchor position: if that successor is a commit, reading at or past
    // its other-engine timestamp would show us a transaction whose anchor
    // effects are ahead of our snapshot (DSI Rule 8 / the Figure 2(a)
    // skew). The successor's smallest value is the binding one.
    selected = latest_other();
    if (ub < n) {
      selected = std::min(
          selected, p->entries[ub].vmin.load(std::memory_order_relaxed) - 1);
    } else if (idx + 1 < list->parts.size()) {
      const Partition* succ = list->parts[idx + 1];
      size_t sn = succ->count.load(std::memory_order_relaxed);
      if (sn > 0) {
        selected = std::min(
            selected,
            succ->entries[0].vmin.load(std::memory_order_relaxed) - 1);
      }
    }
  }
  if (!is_last) {
    if (have_pred) {
      // Raced with a partition spawn since the lock-free attempt: the
      // sealed predecessor still implies the mapping.
      mappings_.Add(1);
      return selected;
    }
    sealed_aborts_.Add(1);
    select_aborts_.Add(1);
    return Status::SkeenaAbort("mapping lands in sealed CSR partition");
  }
  // The lower bound falls out of the upper bound already computed: equal
  // only when the predecessor is an exact-key hit.
  size_t lb = (have_pred && p->entries[ub - 1].key == anchor_snap) ? ub - 1
                                                                   : ub;
  MapResult r = InstallLocked(anchor_snap, selected, idx, lb);
  if (r == MapResult::kOk) {
    mappings_.Add(1);
    return selected;
  }
  sealed_aborts_.Add(1);
  select_aborts_.Add(1);
  return Status::SkeenaAbort("mapping lands in sealed CSR partition");
}

Status SnapshotRegistry::CommitCheck(Timestamp anchor_cts,
                                     Timestamp other_cts,
                                     bool anchor_engine_wrote,
                                     bool other_engine_wrote) {
  TickAccess();
  MutexLock lock(write_mu_);
  return CommitCheckLocked(anchor_cts, other_cts, anchor_engine_wrote,
                           other_engine_wrote);
}

Status SnapshotRegistry::CommitCheckLocked(Timestamp anchor_cts,
                                           Timestamp other_cts,
                                           bool anchor_engine_wrote,
                                           bool other_engine_wrote) {
  // No epoch guard: the whole body runs under write_mu_, and every retire
  // of lists/partitions happens under the same mutex, so nothing reachable
  // from the published list can be reclaimed while we hold it. Pinning
  // here would stall epoch advancement for the lock wait + check + install.
  PartitionList* list = list_.load(std::memory_order_relaxed);
  if (list->parts.empty()) {
    // First mapping ever: bounds are trivially open.
    AppendPartitionLocked(anchor_cts, other_cts);
    mappings_.Add(1);
    return Status::OK();
  }
  size_t idx = LocatePartition(*list, anchor_cts);
  if (idx == kNpos) {
    sealed_aborts_.Add(1);
    return CommitAbort(commit_aborts_sealed_, "anchor commit predates CSR");
  }
  const Partition* p = list->parts[idx];
  size_t n = p->count.load(std::memory_order_relaxed);

  // Algorithm 2: bounds from strict neighbors. Entries at exactly
  // anchor_cts are begin-timestamp ties (allowed, Rule 4) and do not
  // constrain.
  Timestamp low = 0;
  Timestamp high = kMaxTimestamp;
  size_t lb = LowerBound(*p, n, anchor_cts);
  bool gate = !weaken_gate_.load(std::memory_order_relaxed);
  // Same-key entry: a reader at exactly our anchor commit timestamp sees
  // our anchor writes; if we really wrote in both engines, every
  // other-engine view registered at this key must already cover our
  // other-engine commit — the SMALLEST registered view is the binding one.
  if (gate && anchor_engine_wrote && other_engine_wrote && lb < n &&
      p->entries[lb].key == anchor_cts &&
      p->entries[lb].vmin.load(std::memory_order_relaxed) < other_cts) {
    return CommitAbort(commit_aborts_reader_tie_,
                       "commit check failed: reader tie at anchor commit");
  }
  if (lb > 0) {
    low = p->entries[lb - 1].vmax.load(std::memory_order_relaxed);
  } else if (idx > 0) {
    // Boundary hardening: the true predecessor lives in the previous
    // (sealed, immutable) partition.
    const Partition* pred = list->parts[idx - 1];
    size_t pn = pred->count.load(std::memory_order_relaxed);
    if (pn > 0) {
      low = pred->entries[pn - 1].vmax.load(std::memory_order_relaxed);
    }
  }
  size_t succ = lb;
  if (succ < n && p->entries[succ].key == anchor_cts) ++succ;
  if (succ < n) {
    high = p->entries[succ].vmin.load(std::memory_order_relaxed);
  } else if (idx + 1 < list->parts.size()) {
    const Partition* nextp = list->parts[idx + 1];
    size_t nn = nextp->count.load(std::memory_order_relaxed);
    if (nn > 0) high = nextp->entries[0].vmin.load(std::memory_order_relaxed);
  }

  bool low_violated =
      other_engine_wrote ? other_cts <= low : other_cts < low;
  if (gate && other_cts > high) {
    return CommitAbort(commit_aborts_high_, "commit check failed");
  }
  if (gate && low != 0 && low_violated) {
    return CommitAbort(commit_aborts_low_, "commit check failed");
  }

  MapResult r = InstallLocked(anchor_cts, other_cts, idx, lb);
  if (r == MapResult::kOk) {
    mappings_.Add(1);
    return Status::OK();
  }
  sealed_aborts_.Add(1);
  return CommitAbort(commit_aborts_sealed_,
                     "mapping lands in sealed CSR partition");
}

Status SnapshotRegistry::CommitAbort(ShardedCounter& bound, const char* msg) {
  bound.Add(1);
  commit_aborts_.Add(1);
  return Status::SkeenaAbort(msg);
}

void SnapshotRegistry::Recycle() {
  if (!min_anchor_provider_) return;
  Timestamp min_snap = min_anchor_provider_();
  MutexLock lock(write_mu_);
  RecycleLocked(min_snap);
}

Status SnapshotRegistry::ReplayInstall(Timestamp key, Timestamp value) {
  TickAccess();
  MutexLock lock(write_mu_);
  PartitionList* list = list_.load(std::memory_order_relaxed);
  if (list->parts.empty()) {
    AppendPartitionLocked(key, value);
    mappings_.Add(1);
    return Status::OK();
  }
  size_t idx = LocatePartition(*list, key);
  if (idx == kNpos) return Status::OK();  // below the local recycling floor
  Partition* p = list->parts[idx];
  size_t n = p->count.load(std::memory_order_relaxed);
  size_t lb = LowerBound(*p, n, key);
  MapResult r = InstallLocked(key, value, idx, lb);
  if (r == MapResult::kOk) {
    mappings_.Add(1);
    return Status::OK();
  }
  // A journal prefix replayed in order lands in the open partition exactly
  // like it did on the primary (same capacity, same sequence); a sealed
  // result means the replica was configured differently.
  sealed_aborts_.Add(1);
  return Status::SkeenaAbort("replayed mapping lands in sealed CSR partition");
}

void SnapshotRegistry::RecycleLocked(Timestamp min_snap) {
  PartitionList* list = list_.load(std::memory_order_relaxed);
  size_t drop = 0;
  // A partition covers [min_key, next.min_key); it is stale once the next
  // partition's range already starts at or below the oldest active anchor
  // snapshot. The open (last) partition is never dropped.
  while (drop + 1 < list->parts.size() &&
         list->parts[drop + 1]->min_key <= min_snap) {
    drop++;
  }
  if (drop == 0) return;
  auto* nl = new PartitionList();
  nl->parts.assign(list->parts.begin() + static_cast<long>(drop),
                   list->parts.end());
  nl->floor = nl->parts.front()->min_key;
  // Readers may still be walking the dropped partitions; EBR requires
  // them to be unreachable before Retire(), so unlink first by publishing
  // the new list, then retire. Capture the pointers up front: PublishLocked
  // retires the old list itself, and Retire() runs TryAdvance synchronously
  // — with no reader pinned it can free `list` before we finish, no
  // concurrency required.
  std::vector<Partition*> dropped(
      list->parts.begin(), list->parts.begin() + static_cast<long>(drop));
  PublishLocked(nl);
  for (Partition* p : dropped) epoch_->Retire(p);
  partitions_recycled_.Add(drop);
}

Timestamp SnapshotRegistry::MinSelectableValue(Timestamp anchor_snap) const {
  EpochGuard guard(*epoch_);
  const PartitionList* list = list_.load(std::memory_order_acquire);
  if (list->parts.empty()) return kMaxTimestamp;
  size_t idx = LocatePartition(*list, anchor_snap);
  // Anchors below the floor abort at selection; they constrain nothing.
  if (idx == kNpos) return kMaxTimestamp;
  // Find the nearest mapping at a key <= anchor_snap, walking across
  // partition boundaries (the true predecessor may live in an older,
  // sealed partition).
  for (size_t i = idx + 1; i-- > 0;) {
    const Partition* p = list->parts[i];
    size_t n = p->count.load(std::memory_order_acquire);
    size_t ub = UpperBound(*p, n, anchor_snap);
    if (ub > 0) {
      return p->entries[ub - 1].vmax.load(std::memory_order_acquire);
    }
  }
  return kMaxTimestamp;
}

void SnapshotRegistry::TickAccess() {
  uint64_t c = accesses_.Increment();
  if (options_.recycle_period == 0 || c % options_.recycle_period != 0) {
    return;
  }
  if (!min_anchor_provider_) return;
  Timestamp min_snap = min_anchor_provider_();
  // Opportunistic: never block the access that happened to cross the
  // period boundary — skip if a writer or another recycler is active.
  // Explicit TryLock so TSA tracks the branch (see thread_annotations.h).
  if (!write_mu_.TryLock()) return;
  RecycleLocked(min_snap);
  write_mu_.Unlock();
}

size_t SnapshotRegistry::PartitionCount() const {
  EpochGuard guard(*epoch_);
  return list_.load(std::memory_order_acquire)->parts.size();
}

size_t SnapshotRegistry::EntryCount() const {
  EpochGuard guard(*epoch_);
  const PartitionList* list = list_.load(std::memory_order_acquire);
  size_t n = 0;
  for (const Partition* p : list->parts) {
    n += p->count.load(std::memory_order_acquire);
  }
  return n;
}

std::vector<SnapshotRegistry::MappingEntry> SnapshotRegistry::DumpMappings(
    Timestamp* floor) const {
  EpochGuard guard(*epoch_);
  const PartitionList* list = list_.load(std::memory_order_acquire);
  if (floor != nullptr) *floor = list->floor;
  std::vector<MappingEntry> out;
  for (const Partition* p : list->parts) {
    size_t n = p->count.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(MappingEntry{
          p->entries[i].key,
          p->entries[i].vmin.load(std::memory_order_acquire),
          p->entries[i].vmax.load(std::memory_order_acquire)});
    }
  }
  return out;
}

SnapshotRegistry::Stats SnapshotRegistry::stats() const {
  Stats s;
  s.accesses = accesses_.Read();
  s.mappings = mappings_.Read();
  s.select_aborts = select_aborts_.Read();
  s.commit_aborts = commit_aborts_.Read();
  s.sealed_aborts = sealed_aborts_.Read();
  s.commit_aborts_high = commit_aborts_high_.Read();
  s.commit_aborts_low = commit_aborts_low_.Read();
  s.commit_aborts_reader_tie = commit_aborts_reader_tie_.Read();
  s.commit_aborts_sealed = commit_aborts_sealed_.Read();
  s.partitions_created = partitions_created_.Read();
  s.partitions_recycled = partitions_recycled_.Read();
  return s;
}

}  // namespace skeena
