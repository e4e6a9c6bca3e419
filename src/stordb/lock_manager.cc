#include "stordb/lock_manager.h"

#include <algorithm>
#include <chrono>

namespace skeena::stordb {

LockManager::LockManager(Options options)
    : options_(options), buckets_(kNumBuckets) {}

LockManager::LockQueue& LockManager::QueueFor(Bucket& bucket, Rid rid) {
  auto it = bucket.queues.find(rid);
  if (it != bucket.queues.end()) return it->second;
  if (bucket.spare.empty()) return bucket.queues[rid];
  QueueMap::node_type node = std::move(bucket.spare.back());
  bucket.spare.pop_back();
  node.key() = rid;
  return bucket.queues.insert(std::move(node)).position->second;
}

bool LockManager::CanGrant(const LockQueue& q, uint64_t txn_id, LockMode mode,
                           bool is_upgrade) {
  if (is_upgrade) {
    // Upgradeable only when we are the sole holder.
    return q.holders.size() == 1 && q.holders[0].txn_id == txn_id;
  }
  if (mode == LockMode::kExclusive) return q.holders.empty();
  for (const Holder& h : q.holders) {
    if (h.mode == LockMode::kExclusive) return false;
  }
  return true;
}

void LockManager::AddEdges(uint64_t waiter,
                           const std::vector<uint64_t>& holders) {
  MutexLock guard(graph_mu_);
  waits_for_[waiter] = holders;
}

void LockManager::ClearEdges(uint64_t waiter) {
  MutexLock guard(graph_mu_);
  waits_for_.erase(waiter);
}

bool LockManager::WouldDeadlock(uint64_t waiter) {
  MutexLock guard(graph_mu_);
  // DFS from the waiter's blockers; a path back to the waiter is a cycle.
  std::vector<uint64_t> stack;
  std::unordered_set<uint64_t> visited;
  auto it = waits_for_.find(waiter);
  if (it == waits_for_.end()) return false;
  for (uint64_t b : it->second) stack.push_back(b);
  while (!stack.empty()) {
    uint64_t t = stack.back();
    stack.pop_back();
    if (t == waiter) return true;
    if (!visited.insert(t).second) continue;
    auto e = waits_for_.find(t);
    if (e == waits_for_.end()) continue;
    for (uint64_t b : e->second) stack.push_back(b);
  }
  return false;
}

Status LockManager::Lock(uint64_t txn_id, Rid rid, LockMode mode) {
  Bucket& bucket = BucketFor(rid);
  MutexLock lk(bucket.mu);
  LockQueue& q = QueueFor(bucket, rid);

  bool upgrade = false;
  for (Holder& h : q.holders) {
    if (h.txn_id != txn_id) continue;
    if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // already covered
    }
    upgrade = true;  // held S, wants X
    break;
  }

  if (upgrade) {
    if (CanGrant(q, txn_id, mode, /*is_upgrade=*/true)) {
      for (Holder& h : q.holders) {
        if (h.txn_id == txn_id) h.mode = LockMode::kExclusive;
      }
      return Status::OK();
    }
    // Upgrades jump the queue: they already hold S and would otherwise
    // deadlock with ordinary waiters behind them.
    q.waiters.insert(q.waiters.begin(),
                     Waiter{txn_id, mode, /*upgrade=*/true});
  } else {
    if (q.waiters.empty() && CanGrant(q, txn_id, mode, false)) {
      q.holders.push_back(Holder{txn_id, mode});
      return Status::OK();
    }
    q.waiters.push_back(Waiter{txn_id, mode, /*upgrade=*/false});
  }

  // relaxed-ok: stat counter.
  waits_.fetch_add(1, std::memory_order_relaxed);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.wait_timeout_ms);

  auto granted = [&]() {
    for (const Holder& h : q.holders) {
      if (h.txn_id == txn_id &&
          (h.mode == mode || h.mode == LockMode::kExclusive)) {
        return true;
      }
    }
    return false;
  };
  auto remove_waiter = [&]() {
    for (auto it = q.waiters.begin(); it != q.waiters.end(); ++it) {
      if (it->txn_id == txn_id) {
        q.waiters.erase(it);
        break;
      }
    }
  };

  while (true) {
    if (granted()) {
      ClearEdges(txn_id);
      return Status::OK();
    }
    // (Re)compute blockers and probe for a waits-for cycle. Blockers are
    // the current holders plus waiters queued ahead of us.
    std::vector<uint64_t> blockers;
    for (const Holder& h : q.holders) {
      if (h.txn_id != txn_id) blockers.push_back(h.txn_id);
    }
    for (const Waiter& w : q.waiters) {
      if (w.txn_id == txn_id) break;
      blockers.push_back(w.txn_id);
    }
    AddEdges(txn_id, blockers);
    if (WouldDeadlock(txn_id)) {
      remove_waiter();
      ClearEdges(txn_id);
      // relaxed-ok: stat counter.
      deadlocks_.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("record lock deadlock");
    }
    // Sleep in short slices so a deadlock formed while every participant is
    // already blocked is still detected promptly by the re-probe above.
    auto slice = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    bucket.cv.WaitUntil(bucket.mu, std::min(slice, deadline));
    if (std::chrono::steady_clock::now() >= deadline) {
      if (granted()) {
        ClearEdges(txn_id);
        return Status::OK();
      }
      remove_waiter();
      ClearEdges(txn_id);
      return Status::TimedOut("lock wait timeout");
    }
  }
}

void LockManager::ReleaseAll(uint64_t txn_id, const std::vector<Rid>& rids) {
  for (Rid rid : rids) {
    Bucket& bucket = BucketFor(rid);
    MutexLock lk(bucket.mu);
    auto it = bucket.queues.find(rid);
    if (it == bucket.queues.end()) continue;
    LockQueue& q = it->second;
    q.holders.erase(
        std::remove_if(q.holders.begin(), q.holders.end(),
                       [&](const Holder& h) { return h.txn_id == txn_id; }),
        q.holders.end());

    // Promote waiters FIFO while compatible.
    bool promoted = false;
    while (!q.waiters.empty()) {
      Waiter& w = q.waiters.front();
      if (!CanGrant(q, w.txn_id, w.mode, w.upgrade)) break;
      if (w.upgrade) {
        for (Holder& h : q.holders) {
          if (h.txn_id == w.txn_id) h.mode = LockMode::kExclusive;
        }
      } else {
        q.holders.push_back(Holder{w.txn_id, w.mode});
      }
      q.waiters.erase(q.waiters.begin());
      promoted = true;
    }
    if (q.holders.empty() && q.waiters.empty()) {
      if (bucket.spare.size() < kSpareNodesPerBucket) {
        bucket.spare.push_back(bucket.queues.extract(it));
      } else {
        bucket.queues.erase(it);
      }
    }
    if (promoted) bucket.cv.NotifyAll();
  }
}

bool LockManager::Holds(uint64_t txn_id, Rid rid, LockMode mode) const {
  const Bucket& bucket = BucketFor(rid);
  MutexLock lk(bucket.mu);
  auto it = bucket.queues.find(rid);
  if (it == bucket.queues.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn_id == txn_id &&
        (h.mode == mode || h.mode == LockMode::kExclusive)) {
      return true;
    }
  }
  return false;
}

}  // namespace skeena::stordb
