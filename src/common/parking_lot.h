#ifndef SKEENA_COMMON_PARKING_LOT_H_
#define SKEENA_COMMON_PARKING_LOT_H_

#include <atomic>
#include <cstdint>

#include "common/spin_latch.h"

namespace skeena {

/// Futex-style parking lot: threads block ("park") on a 32-bit word and are
/// released by a single wake issued after the word (or the waiters'
/// predicate) changes. This is the kernel-synchronization primitive behind
/// the commit pipeline's batched wakeups and the log manager's durable-LSN
/// waits — it replaces per-waiter mutex+condvar round-trips with at most
/// one syscall per *event*, and none at all when nobody is parked.
///
/// Protocol (the futex(2) contract):
///  * `Park(word, expected)` blocks only while `word == expected`, checked
///    atomically against concurrent wakes; it returns immediately when the
///    word already moved, and may return spuriously — callers always
///    recheck their predicate in a loop.
///  * Wakers must change the word (or the state the waiters' predicate
///    reads, ordered before a bump of the word) *before* calling
///    `WakeOne/WakeAll`, otherwise a concurrent Park can sleep through the
///    wake.
///
/// Built directly on Linux `futex(2)` (private futexes, one kernel wait
/// queue per word). The system is Linux-only: the server already needs
/// epoll and eventfd.
class ParkingLot {
 public:
  /// Process-wide counters (sharded; relaxed increments, folded on read).
  struct Stats {
    uint64_t parks = 0;            // kernel-blocking park attempts
    uint64_t immediate_parks = 0;  // Park() returned without blocking
    uint64_t wakes = 0;            // WakeOne/WakeAll calls issued
  };

  /// Blocks the calling thread while `word == expected` (see protocol
  /// above). Spurious returns allowed; recheck and re-park. Returns true
  /// iff the thread actually blocked in the kernel; false when the word
  /// had already moved (pre-check or the futex's atomic EAGAIN check).
  static bool Park(const std::atomic<uint32_t>& word, uint32_t expected);

  /// Park with a relative timeout. Same contract as Park plus: returns
  /// after ~`timeout_ns` even if nobody woke the word (indistinguishable
  /// from a spurious wake — callers recheck their predicate either way).
  /// Return value matches Park: true iff the thread actually blocked.
  static bool ParkFor(const std::atomic<uint32_t>& word, uint32_t expected,
                      uint64_t timeout_ns);

  /// Wakes every thread parked on `word`.
  static void WakeAll(const std::atomic<uint32_t>& word);

  /// Wakes one thread parked on `word`.
  static void WakeOne(const std::atomic<uint32_t>& word);

  static Stats stats();
};

/// Spins up to `iters` pause iterations waiting for `pred()`; returns true
/// on success, false when the caller should fall back to parking. The
/// budget is deliberately tiny: it covers the "completer is one cache miss
/// away" window, not a scheduling quantum.
template <typename Pred>
inline bool SpinUntil(Pred&& pred, int iters = 128) {
  for (int i = 0; i < iters; ++i) {
    if (pred()) return true;
    CpuRelax();
  }
  return pred();
}

}  // namespace skeena

#endif  // SKEENA_COMMON_PARKING_LOT_H_
