#include "common/parking_lot.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>

#include "common/sharded_counter.h"

namespace skeena {
namespace {

struct LotCounters {
  ShardedCounter parks;
  ShardedCounter immediate_parks;
  ShardedCounter wakes;
};

LotCounters& Counters() {
  static LotCounters c;
  return c;
}

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "futex requires a plain 4-byte lock-free word");

// Returns true iff the thread blocked (EAGAIN = the kernel's atomic check
// saw the word already moved; EINTR/0 = it slept). Callers recheck either
// way.
bool FutexWait(const std::atomic<uint32_t>* word, uint32_t expected,
               const struct timespec* timeout = nullptr) {
  long rc = syscall(SYS_futex, reinterpret_cast<const uint32_t*>(word),
                    FUTEX_WAIT_PRIVATE, expected, timeout, nullptr, 0);
  return !(rc == -1 && errno == EAGAIN);
}

void FutexWake(const std::atomic<uint32_t>* word, int count) {
  Counters().wakes.Add(1);
  syscall(SYS_futex, reinterpret_cast<const uint32_t*>(word),
          FUTEX_WAKE_PRIVATE, count, nullptr, nullptr, 0);
}

bool ParkImpl(const std::atomic<uint32_t>& word, uint32_t expected,
              const struct timespec* timeout) {
  bool blocked = word.load(std::memory_order_acquire) == expected &&
                 FutexWait(&word, expected, timeout);
  if (blocked) {
    Counters().parks.Add(1);
  } else {
    Counters().immediate_parks.Add(1);
  }
  return blocked;
}

}  // namespace

bool ParkingLot::Park(const std::atomic<uint32_t>& word, uint32_t expected) {
  return ParkImpl(word, expected, nullptr);
}

bool ParkingLot::ParkFor(const std::atomic<uint32_t>& word, uint32_t expected,
                         uint64_t timeout_ns) {
  struct timespec ts;  // FUTEX_WAIT takes a *relative* timeout
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000ull);
  return ParkImpl(word, expected, &ts);
}

void ParkingLot::WakeAll(const std::atomic<uint32_t>& word) {
  FutexWake(&word, INT_MAX);
}

void ParkingLot::WakeOne(const std::atomic<uint32_t>& word) {
  FutexWake(&word, 1);
}

ParkingLot::Stats ParkingLot::stats() {
  Stats s;
  s.parks = Counters().parks.Read();
  s.immediate_parks = Counters().immediate_parks.Read();
  s.wakes = Counters().wakes.Read();
  return s;
}

}  // namespace skeena
