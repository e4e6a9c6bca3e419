#include "core/commit_pipeline.h"

#include <thread>

namespace skeena {

CommitPipeline::CommitPipeline(LogManager* log0, LogManager* log1)
    : logs_{log0, log1} {}

CommitPipeline::~CommitPipeline() {
  // A waiter still inside WaitDurable may be parked on a log with no
  // background flusher, and a straddler may append after any one flush, so
  // flush both logs again for as long as anyone is in flight. Only after
  // the last one has exited is it safe to free the counters it touches.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    for (LogManager* log : logs_) log->Flush();
    // A straddler may be descheduled mid-call; give its core up rather
    // than spinning the sweep.
    std::this_thread::yield();
  }
}

void CommitPipeline::WaitDurable(const Lsn lsns[2]) {
  in_flight_.fetch_add(1, std::memory_order_acquire);
  // No daemon hop: each log releases every waiter a flush covers with one
  // batched unpark.
  bool parked = false;
  for (int i = 0; i < 2; ++i) {
    if (lsns[i] != 0) parked |= logs_[i]->WaitDurable(lsns[i]);
  }
  // Every wait resolves in exactly one bucket: blocked in the kernel at
  // least once, or never needed it (already durable, or the spin budget).
  if (parked) {
    waiter_parks_.Add(1);
  } else {
    waiter_spin_successes_.Add(1);
  }
  completed_.Add(1);
  in_flight_.fetch_sub(1, std::memory_order_release);
}

CommitPipeline::Stats CommitPipeline::stats() const {
  Stats s;
  s.completed = completed_.Read();
  s.waiter_parks = waiter_parks_.Read();
  s.waiter_spin_successes = waiter_spin_successes_.Read();
  s.completed_inline = s.completed;
  return s;
}

}  // namespace skeena
