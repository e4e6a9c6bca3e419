#include "common/parking_lot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace skeena {
namespace {

TEST(ParkingLotTest, ParkReturnsImmediatelyWhenWordAlreadyMoved) {
  std::atomic<uint32_t> word{1};
  ParkingLot::Stats before = ParkingLot::stats();
  ParkingLot::Park(word, 0);  // must not block: word != expected
  ParkingLot::Stats after = ParkingLot::stats();
  EXPECT_GT(after.immediate_parks, before.immediate_parks);
}

TEST(ParkingLotTest, WakeAllReleasesEveryParkedThread) {
  std::atomic<uint32_t> word{0};
  std::atomic<int> entered{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      entered.fetch_add(1);
      // Spurious wakes just re-enter the loop; only the word release exits.
      while (word.load(std::memory_order_acquire) == 0) {
        ParkingLot::Park(word, 0);
      }
    });
  }
  while (entered.load() < kThreads) std::this_thread::yield();
  // Give the threads a moment to actually park (not required for
  // correctness — an early WakeAll is simply a no-op and the parks return
  // immediately on the changed word).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  word.store(1, std::memory_order_release);
  ParkingLot::WakeAll(word);
  for (auto& th : threads) th.join();  // completion == no lost wakeup
}

// Park-vs-unpark ordering: an eventcount-style ping-pong where each round
// re-reads the word before parking. A waker that bumps the word between
// the read and the park must make that park return immediately — any lost
// wakeup deadlocks the test (caught by the suite timeout).
TEST(ParkingLotTest, NoLostWakeupUnderRapidWakeRaces) {
  constexpr uint32_t kRounds = 5000;
  std::atomic<uint32_t> word{0};
  std::atomic<uint32_t> consumed{0};
  std::thread consumer([&] {
    for (uint32_t i = 1; i <= kRounds; ++i) {
      while (true) {
        uint32_t cur = word.load(std::memory_order_acquire);
        if (cur >= i) break;
        ParkingLot::Park(word, cur);
      }
      consumed.store(i, std::memory_order_release);
    }
  });
  for (uint32_t i = 0; i < kRounds; ++i) {
    word.fetch_add(1, std::memory_order_seq_cst);
    ParkingLot::WakeAll(word);
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), kRounds);
}

TEST(ParkingLotTest, WakeOneReleasesAtLeastOneWaiter) {
  std::atomic<uint32_t> word{0};
  std::atomic<int> released{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (word.load(std::memory_order_acquire) == 0) {
        ParkingLot::Park(word, 0);
      }
      released.fetch_add(1);
      // Baton pattern: WakeOne releases a single waiter, which passes the
      // wake along — the classic shape for one-at-a-time handoff.
      ParkingLot::WakeOne(word);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  word.store(1, std::memory_order_release);
  ParkingLot::WakeOne(word);
  for (auto& th : threads) th.join();
  EXPECT_EQ(released.load(), kThreads);
}

// Thread churn: waves of short-lived threads park on words that live on
// (and die with) each wave's stack, while a persistent waker hammers a
// shared word. Exercises kernel wait-queue reuse across addresses and
// thread exit with no parked-state leakage.
TEST(ParkingLotTest, ThreadChurnAcrossManyWordsIsSafe) {
  std::atomic<bool> done{false};
  std::atomic<uint32_t> shared{0};
  std::thread waker([&] {
    while (!done.load(std::memory_order_acquire)) {
      shared.fetch_add(1, std::memory_order_seq_cst);
      ParkingLot::WakeAll(shared);
      std::this_thread::yield();
    }
  });
  constexpr int kWaves = 6;
  constexpr int kPerWave = 8;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    std::atomic<uint32_t> local{0};
    for (int t = 0; t < kPerWave; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          // Parks on the shared word block at most one waker round.
          ParkingLot::Park(shared, shared.load(std::memory_order_acquire));
          // Parks on the wave-local word never block: the value moved.
          ParkingLot::Park(local, 1u);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  done.store(true, std::memory_order_release);
  waker.join();
}

// Many distinct words, each with one waiter and exactly one WakeOne: every
// wake must reach its own word's waiter. A lot that shares wait queues
// across words (hashed buckets) could hand the single wake to a waiter of
// a colliding word, which re-parks and swallows it, stranding the intended
// thread forever (caught here by the suite timeout).
TEST(ParkingLotTest, WakeOneIsNotSwallowedByBucketCollisions) {
  constexpr int kWords = 80;
  std::vector<std::atomic<uint32_t>> words(kWords);
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kWords; ++i) {
    threads.emplace_back([&, i] {
      started.fetch_add(1);
      while (words[i].load(std::memory_order_acquire) == 0) {
        ParkingLot::Park(words[i], 0);
      }
    });
  }
  while (started.load() < kWords) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < kWords; ++i) {
    words[i].store(1, std::memory_order_release);
    ParkingLot::WakeOne(words[i]);  // one notify per word, ever
  }
  for (auto& th : threads) th.join();  // completion == no swallowed wake
}

TEST(ParkingLotTest, StatsCountParksAndWakes) {
  std::atomic<uint32_t> word{0};
  ParkingLot::Stats before = ParkingLot::stats();
  std::thread waiter([&] {
    while (word.load(std::memory_order_acquire) == 0) {
      ParkingLot::Park(word, 0);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  word.store(1, std::memory_order_release);
  ParkingLot::WakeAll(word);
  waiter.join();
  ParkingLot::Stats after = ParkingLot::stats();
  EXPECT_GT(after.wakes, before.wakes);
  EXPECT_GE(after.parks + after.immediate_parks,
            before.parks + before.immediate_parks);
}

}  // namespace
}  // namespace skeena
