#include "core/commit_pipeline.h"

#include <algorithm>

namespace skeena {

CommitPipeline::CommitPipeline(Options options, EngineIface* engine0,
                               EngineIface* engine1)
    : options_(options) {
  engines_[0] = engine0;
  engines_[1] = engine1;
  if (options_.num_queues == 0) options_.num_queues = 1;
  if (options_.mode == Mode::kPipelined) {
    for (size_t i = 0; i < options_.num_queues; ++i) {
      queues_.push_back(std::make_unique<Queue>());
    }
    for (size_t i = 0; i < options_.num_queues; ++i) {
      daemons_.emplace_back([this, i] { DaemonLoop(i); });
    }
  }
}

CommitPipeline::~CommitPipeline() {
  stop_.store(true, std::memory_order_release);
  // Unblock daemons parked inside WaitDurable before joining.
  for (int i = 0; i < 2; ++i) {
    if (engines_[i] != nullptr) engines_[i]->FlushLog();
  }
  for (auto& q : queues_) {
    q->work_seq.fetch_add(1, std::memory_order_seq_cst);
    ParkingLot::WakeAll(q->work_seq);
  }
  for (auto& d : daemons_) d.join();
  // Drain anything left: force both logs durable, then complete — and keep
  // doing so until the last in-flight EnqueueAndWait has exited. A
  // straddling waiter may append after our first flush and then park in
  // WaitDurable on a log with no background flusher, so each round flushes
  // both logs again while anyone is in flight. Only after that is it safe
  // to free the queues and stat counters the exiting waiters touch. With
  // the daemons joined, this thread is the queues' single consumer.
  while (true) {
    for (auto& q : queues_) {
      std::deque<PendingCommit> left;
      DrainInto(*q, left);
      for (PendingCommit& e : left) {
        for (int i = 0; i < 2; ++i) {
          if (e.lsns[i] != 0 && engines_[i] != nullptr) {
            engines_[i]->FlushLog();
          }
        }
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (e.waiter != nullptr) e.waiter->Complete();
      }
    }
    if (in_flight_.load(std::memory_order_acquire) == 0) break;
    for (int i = 0; i < 2; ++i) {
      if (engines_[i] != nullptr) engines_[i]->FlushLog();
    }
    // A straddler may be descheduled mid-call; give its core up rather
    // than spinning the sweep.
    std::this_thread::yield();
  }
}

CommitPipeline::Entry* CommitPipeline::TryPop(Queue& q) {
  Entry* head = q.head;
  Entry* next = head->next.load(std::memory_order_acquire);
  if (head == &q.stub) {
    if (next == nullptr) return nullptr;  // empty, or a producer mid-push
    q.head = next;
    head = next;
    next = head->next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    q.head = next;
    return head;
  }
  // `head` looks like the last node. If tail says otherwise, a producer
  // has exchanged tail but not yet linked next — report empty and let the
  // caller retry off `pending`.
  if (q.tail.load(std::memory_order_acquire) != head) return nullptr;
  // Sole node: push the stub back so `head` can be taken out.
  q.stub.next.store(nullptr, std::memory_order_relaxed);
  Entry* prev = q.tail.exchange(&q.stub, std::memory_order_acq_rel);
  prev->next.store(&q.stub, std::memory_order_release);
  next = head->next.load(std::memory_order_acquire);
  if (next != nullptr) {
    q.head = next;
    return head;
  }
  // A producer slipped in between the tail read and our exchange: the
  // chain will read head -> its node -> stub once its link store lands;
  // report empty and let the caller retry off `pending`.
  return nullptr;
}

size_t CommitPipeline::DrainInto(Queue& q, std::deque<PendingCommit>& out) {
  size_t popped = 0;
  while (Entry* node = TryPop(q)) {
    PendingCommit e;
    e.lsns[0] = node->lsns[0];
    e.lsns[1] = node->lsns[1];
    e.waiter = std::move(node->waiter);
    delete node;
    out.push_back(std::move(e));
    ++popped;
  }
  if (popped > 0) {
    q.pending.fetch_sub(popped, std::memory_order_seq_cst);
  }
  return popped;
}

bool CommitPipeline::Covered(const Lsn lsns[2]) const {
  for (int i = 0; i < 2; ++i) {
    if (lsns[i] != 0 && engines_[i] != nullptr &&
        engines_[i]->DurableLsn() < lsns[i]) {
      return false;
    }
  }
  return true;
}

void CommitPipeline::Enqueue(const Lsn lsns[2],
                             std::shared_ptr<CommitWaiter> waiter,
                             size_t queue_hint) {
  if (options_.mode == Mode::kSync) {
    // Ablation baseline: the worker thread pays for both flushes itself.
    for (int i = 0; i < 2; ++i) {
      if (lsns[i] != 0 && engines_[i] != nullptr &&
          engines_[i]->DurableLsn() < lsns[i]) {
        engines_[i]->FlushLog();
      }
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    completed_inline_.Add(1);
    if (waiter != nullptr && waiter->Complete()) wake_syscalls_.Add(1);
    return;
  }
  if (Covered(lsns)) {
    // Both logs already durable: complete inline, skip the queue entirely
    // (no daemon round-trip, no wakeup).
    completed_.fetch_add(1, std::memory_order_relaxed);
    completed_inline_.Add(1);
    if (waiter != nullptr && waiter->Complete()) wake_syscalls_.Add(1);
    return;
  }
  Queue& q = QueueFor(queue_hint);
  Entry* e = new Entry;
  e->lsns[0] = lsns[0];
  e->lsns[1] = lsns[1];
  e->waiter = std::move(waiter);
  // Bump pending before the push: the 0 -> 1 edge elects this producer as
  // the one waker, and a daemon about to park re-reads pending after
  // publishing daemon_parked, so either it sees our count or we see its
  // parked flag.
  const uint64_t pending_before =
      q.pending.fetch_add(1, std::memory_order_seq_cst);
  // Wait-free MPSC push: one exchange claims the tail slot, one release
  // store links it. No producer lock, no daemon swap lock — a preempted
  // producer stalls nobody except the consumer's final hop to its node.
  Entry* prev = q.tail.exchange(e, std::memory_order_acq_rel);
  prev->next.store(e, std::memory_order_release);
  enqueued_.Add(1);
  // Wake the daemon only on the empty → non-empty transition, and only
  // when it actually parked — a busy daemon keeps draining without
  // per-enqueue syscalls.
  if (pending_before == 0) {
    q.work_seq.fetch_add(1, std::memory_order_seq_cst);
    if (q.daemon_parked.load(std::memory_order_seq_cst) != 0) {
      ParkingLot::WakeOne(q.work_seq);
      daemon_wakes_.Add(1);
    }
  }
}

void CommitPipeline::EnqueueAndWait(const Lsn lsns[2],
                                    const std::shared_ptr<CommitWaiter>& waiter,
                                    size_t queue_hint) {
  waiter->Reset();
  if (options_.mode == Mode::kSync) {
    Enqueue(lsns, waiter, queue_hint);  // completes inline
    return;
  }
  // No daemon hop: wait for each engine's durable LSN on the caller's
  // thread. Each log's flusher releases every waiter an advance covers with
  // one batched unpark, so a daemon in between would only add a second
  // wake. The in-flight count keeps the destructor from freeing the stat
  // counters while a waiter is still on its way out.
  in_flight_.fetch_add(1, std::memory_order_acquire);
  bool parked = false;
  for (int i = 0; i < 2; ++i) {
    if (lsns[i] != 0 && engines_[i] != nullptr) {
      parked |= engines_[i]->WaitDurable(lsns[i]);
    }
  }
  // Every wait resolves in exactly one bucket: blocked in the kernel at
  // least once, or never needed it (already durable, or the spin budget).
  if (parked) {
    waiter_parks_.Add(1);
  } else {
    waiter_spin_successes_.Add(1);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  completed_inline_.Add(1);
  if (waiter->Complete()) wake_syscalls_.Add(1);
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void CommitPipeline::DaemonLoop(size_t queue_idx) {
  Queue& q = *queues_[queue_idx];
  // Drain accumulator; uncovered absorbed entries carry over between
  // iterations, so it can be non-empty at loop top.
  std::deque<PendingCommit> batch;
  while (true) {
    // Read the work sequence before checking the queue: an enqueue that
    // races past the drain bumps it, so the park below returns immediately.
    uint32_t seq = q.work_seq.load(std::memory_order_acquire);
    DrainInto(q, batch);
    if (batch.empty()) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (q.pending.load(std::memory_order_seq_cst) != 0) {
        // A producer is mid-push (counted, not yet linked): its node is a
        // few instructions away, so spin rather than park.
        handoff_spins_.Add(1);
        CpuRelax();
        continue;
      }
      q.daemon_parked.store(1, std::memory_order_seq_cst);
      if (q.pending.load(std::memory_order_seq_cst) == 0 &&
          !stop_.load(std::memory_order_acquire)) {
        ParkingLot::Park(q.work_seq, seq);
      }
      q.daemon_parked.store(0, std::memory_order_relaxed);
      continue;
    }
    // One pass over the drain: a single durable wait per engine covers the
    // whole batch (every entry was appended before the swap, so the batch
    // maximum bounds them all), then every entry completes together.
    // WaitDurable blocks on the engine's group-commit flusher, so the
    // daemon — not the workers — absorbs the log-flush latency.
    Lsn need[2] = {0, 0};
    for (const PendingCommit& e : batch) {
      need[0] = std::max(need[0], e.lsns[0]);
      need[1] = std::max(need[1], e.lsns[1]);
    }
    for (int i = 0; i < 2; ++i) {
      if (need[i] != 0 && engines_[i] != nullptr) {
        engines_[i]->WaitDurable(need[i]);
      }
    }
    // Absorb entries that arrived during the wait: the ones this advance
    // already covers complete in the same pass instead of waiting out
    // another flush round.
    DrainInto(q, batch);
    std::deque<PendingCommit> covered;
    std::deque<PendingCommit> leftover;
    for (PendingCommit& e : batch) {
      if (Covered(e.lsns)) {
        covered.push_back(std::move(e));
      } else {
        leftover.push_back(std::move(e));
      }
    }
    batch.swap(leftover);  // uncovered entries lead the next drain
    // Publish the count before releasing any waiter: a client returning
    // from Wait() must already be reflected in completed().
    completed_.fetch_add(covered.size(), std::memory_order_relaxed);
    drain_batches_.Add(1);
    for (PendingCommit& e : covered) {
      if (e.waiter != nullptr && e.waiter->Complete()) {
        wake_syscalls_.Add(1);
      }
    }
  }
}

CommitPipeline::Stats CommitPipeline::stats() const {
  Stats s;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.wake_syscalls = wake_syscalls_.Read();
  s.daemon_wakes = daemon_wakes_.Read();
  s.waiter_parks = waiter_parks_.Read();
  s.waiter_spin_successes = waiter_spin_successes_.Read();
  s.drain_batches = drain_batches_.Read();
  s.enqueued = enqueued_.Read();
  s.completed_inline = completed_inline_.Read();
  s.handoff_spins = handoff_spins_.Read();
  return s;
}

}  // namespace skeena
