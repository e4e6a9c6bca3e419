#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/active_registry.h"
#include "common/encoding.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/sharded_counter.h"
#include "common/status.h"

namespace skeena {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::NotFound("missing row");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing row");
}

TEST(StatusTest, AbortFamilies) {
  EXPECT_TRUE(Status::Aborted().IsAnyAbort());
  EXPECT_TRUE(Status::SkeenaAbort().IsAnyAbort());
  EXPECT_TRUE(Status::Deadlock().IsAnyAbort());
  EXPECT_TRUE(Status::TimedOut().IsAnyAbort());
  EXPECT_FALSE(Status::NotFound().IsAnyAbort());
  EXPECT_FALSE(Status::IOError().IsAnyAbort());
}

TEST(StatusTest, SkeenaAbortDistinctFromEngineAbort) {
  // Section 6.9 attributes aborts to Skeena vs engines; the codes must not
  // collapse.
  EXPECT_TRUE(Status::SkeenaAbort().IsSkeenaAbort());
  EXPECT_FALSE(Status::SkeenaAbort().IsAborted());
  EXPECT_FALSE(Status::Aborted().IsSkeenaAbort());
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);

  Result<int> err(Status::IOError("disk gone"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIOError);
}

// --------------------------------------------------------------- Encoding

TEST(EncodingTest, KeyOrderMatchesIntegerOrder) {
  for (uint64_t a : {0ull, 1ull, 255ull, 256ull, 1ull << 32, ~0ull}) {
    for (uint64_t b : {0ull, 1ull, 255ull, 256ull, 1ull << 32, ~0ull}) {
      EXPECT_EQ(MakeKey(a) < MakeKey(b), a < b) << a << " vs " << b;
    }
  }
}

TEST(EncodingTest, CompositeKeysOrderLexicographically) {
  KeyBuilder b1, b2, b3;
  b1.AppendU16(3).AppendU8(1).AppendU32(100);
  b2.AppendU16(3).AppendU8(1).AppendU32(101);
  b3.AppendU16(3).AppendU8(2).AppendU32(0);
  EXPECT_LT(b1.Build(), b2.Build());
  EXPECT_LT(b2.Build(), b3.Build());
}

TEST(EncodingTest, PrefixIsLowerBoundOfItsRange) {
  // A key with only a prefix set is <= every key sharing that prefix.
  KeyBuilder prefix;
  prefix.AppendU16(7).AppendU8(3);
  KeyBuilder full;
  full.AppendU16(7).AppendU8(3).AppendU32(12345);
  EXPECT_LE(prefix.Build(), full.Build());
  EXPECT_TRUE(KeyHasPrefix(full.Build(), prefix.Build(), 3));
  KeyBuilder other;
  other.AppendU16(7).AppendU8(4);
  EXPECT_FALSE(KeyHasPrefix(other.Build(), prefix.Build(), 3));
}

TEST(EncodingTest, RoundTripU64) {
  Key k = MakeKey(0xdeadbeefcafe1234ull);
  EXPECT_EQ(KeyPrefixU64(k), 0xdeadbeefcafe1234ull);
}

TEST(EncodingTest, HashIsStable) {
  KeyBuilder a, b;
  a.AppendHash64("BARBARBAR");
  b.AppendHash64("BARBARBAR");
  EXPECT_EQ(a.Build(), b.Build());
  KeyBuilder c;
  c.AppendHash64("BARBAROUGHT");
  EXPECT_NE(a.Build(), c.Build());
}

// ----------------------------------------------------------------- Random

TEST(RandomTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, ZipfianSkewsTowardHead) {
  ZipfianGenerator zipf(1000, 0.99, 42);
  std::vector<uint64_t> counts(1000, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Head items dominate under theta=0.99.
  uint64_t head = 0;
  for (int i = 0; i < 10; ++i) head += counts[i];
  EXPECT_GT(head, kDraws / 4) << "zipf(0.99) head mass too small";
}

TEST(RandomTest, ZipfianUniformWhenThetaZero) {
  ZipfianGenerator zipf(100, 0.0, 43);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Next()]++;
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(counts[i], 500u);
    EXPECT_LT(counts[i], 2000u);
  }
}

TEST(RandomTest, NURandWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NURand(255, 0, 999, 123);
    EXPECT_LE(v, 999u);
  }
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (uint64_t i = 1; i <= 10000; ++i) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.max());
}

TEST(HistogramTest, PercentileApproximatesRank) {
  Histogram h;
  for (uint64_t i = 1; i <= 100000; ++i) h.Record(i);
  // Log-bucketing gives <=6.25% relative error.
  uint64_t p50 = h.Percentile(50);
  EXPECT_GT(p50, 45000u);
  EXPECT_LT(p50, 56000u);
  uint64_t p95 = h.Percentile(95);
  EXPECT_GT(p95, 88000u);
  EXPECT_LT(p95, 103000u);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(100);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, MeanExact) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

// --------------------------------------------------------- ShardedCounter

TEST(ShardedCounterTest, ReadIsExact) {
  ShardedCounter c;
  c.Add(5);
  EXPECT_EQ(c.Read(), 5u);
  c.Add(3);
  EXPECT_EQ(c.Read(), 8u);  // every Read folds fresh
}

TEST(ShardedCounterTest, ReadsMonotoneUnderConcurrency) {
  ShardedCounter c;
  std::atomic<bool> stop{false};
  std::vector<std::thread> adders;
  for (int t = 0; t < 4; ++t) {
    adders.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.Add(1);
    });
  }
  // Several concurrent readers, each checking its own observation
  // sequence: every shard only grows, and a thread's successive loads of
  // one shard never go back, so each reader's folds are monotone.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      for (int i = 0; i < 20000; ++i) {
        uint64_t v = c.Read();
        ASSERT_GE(v, last) << "fold went backwards";
        last = v;
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : adders) th.join();
  uint64_t quiesced = c.Read();
  EXPECT_EQ(c.Read(), quiesced) << "no adder left: the fold is exact";
}

// --------------------------------------------------- ActiveSnapshotRegistry

TEST(ActiveRegistryTest, MinOfRegisteredSnapshots) {
  ActiveSnapshotRegistry reg(16);
  size_t s1 = reg.Acquire();
  size_t s2 = reg.Acquire();
  reg.BeginAcquire(s1);
  reg.SetSnapshot(s1, 100);
  reg.BeginAcquire(s2);
  reg.SetSnapshot(s2, 50);
  EXPECT_EQ(reg.MinActive(999), 50u);
  reg.Release(s2);
  EXPECT_EQ(reg.MinActive(999), 100u);
  reg.Release(s1);
  EXPECT_EQ(reg.MinActive(999), 999u);  // fallback when empty
}

TEST(ActiveRegistryTest, AcquiringSlotsAreWaitedOut) {
  // A slot mid-registration makes the scan wait — ignoring it would let a
  // registrant that read the clock before the scan began slip under the
  // returned minimum (see the class docs). Once the snapshot lands, the
  // scan must report it, not the fallback.
  ActiveSnapshotRegistry reg(16);
  size_t s = reg.Acquire();
  reg.BeginAcquire(s);
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reg.SetSnapshot(s, 7);
  });
  EXPECT_EQ(reg.MinActive(77), 7u);
  finisher.join();
  reg.Release(s);
}

TEST(ActiveRegistryTest, SlotsRecycledThroughFreeList) {
  ActiveSnapshotRegistry reg(4);
  std::set<size_t> seen;
  for (int i = 0; i < 100; ++i) {
    size_t s = reg.Acquire();
    seen.insert(s);
    reg.BeginAcquire(s);
    reg.SetSnapshot(s, 1);
    reg.Release(s);
  }
  // Sequential acquire/release must reuse a single slot, not claim 100.
  EXPECT_LE(seen.size(), 2u);
}

// Regression: slot claims past the initial capacity used to be guarded by
// an assert() only — compiled out in release builds, slot 1025 of a
// 1024-slot registry silently wrote out of bounds. The registry now grows
// chunk by chunk and MinActive scans across chunk boundaries.
TEST(ActiveRegistryTest, GrowsBeyondInitialCapacity) {
  ActiveSnapshotRegistry reg(4);  // chunk size 4
  std::vector<size_t> slots;
  for (size_t i = 0; i < 100; ++i) {
    size_t s = reg.ClaimSlot();
    EXPECT_EQ(s, i);
    slots.push_back(s);
    reg.BeginAcquire(s);
    reg.SetSnapshot(s, 1000 + static_cast<Timestamp>(i));
  }
  // The oldest snapshot lives in the first chunk, the scan must cross all
  // allocated chunks to find it.
  EXPECT_EQ(reg.MinActive(1), 1000u);
  reg.SetSnapshot(slots[77], 7);  // chunk 19
  EXPECT_EQ(reg.MinActive(1), 7u);
  for (size_t s : slots) reg.Clear(s);
  EXPECT_EQ(reg.MinActive(42), 42u);
}

TEST(ActiveRegistryTest, ConcurrentGrowthWithScans) {
  ActiveSnapshotRegistry reg(2);  // force chunk growth under contention
  std::atomic<bool> stop{false};
  std::vector<std::thread> claimers;
  for (int t = 0; t < 4; ++t) {
    claimers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        size_t s = reg.ClaimSlot();
        reg.BeginAcquire(s);
        reg.SetSnapshot(s, 100 + static_cast<Timestamp>(t));
      }
    });
  }
  std::thread scanner([&] {
    while (!stop.load()) {
      Timestamp m = reg.MinActive(5000);
      EXPECT_GE(m, 100u);
    }
  });
  for (auto& th : claimers) th.join();
  stop.store(true);
  scanner.join();
  EXPECT_EQ(reg.MinActive(5000), 100u);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(ActiveRegistryDeathTest, RegisteringTheSentinelValueFailsLoudly) {
  // kMaxTimestamp doubles as the acquiring sentinel; registering it as a
  // real snapshot would make MinActive's sentinel wait spin for the whole
  // registration lifetime, so it must die loudly instead.
  EXPECT_DEATH(
      {
        ActiveSnapshotRegistry reg(4);
        size_t s = reg.Acquire();
        reg.BeginAcquire(s);
        reg.SetSnapshot(s, ActiveSnapshotRegistry::kAcquiringSentinel);
      },
      "cannot be registered");
}

TEST(ActiveRegistryDeathTest, ExhaustingAbsoluteCapacityFailsLoudly) {
  // Capacity = chunk size * 64 chunks; the claim past it must abort with a
  // diagnostic in every build type instead of writing out of bounds.
  EXPECT_DEATH(
      {
        ActiveSnapshotRegistry reg(1);
        for (int i = 0; i < 70; ++i) reg.ClaimSlot();
      },
      "slot capacity exhausted");
}
#endif

// Regression: Release() used to push the slot into the *releasing* thread's
// TLS cache, spilled back only at thread exit. Under acquire-on-one-thread /
// release-on-another handoff (worker pools), the acquiring thread never saw
// slots come back and claimed fresh ones until the hard capacity abort. The
// cache is now capped and spills excess to the shared pool.
TEST(ActiveRegistryTest, CrossThreadHandoffRecyclesSlots) {
  ActiveSnapshotRegistry reg(2);  // hard capacity 2 * 64 = 128 slots
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> handoff;
  bool done = false;
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] { return !handoff.empty() || done; });
      while (!handoff.empty()) {
        size_t s = handoff.front();
        handoff.pop_front();
        lock.unlock();
        reg.Release(s);
        lock.lock();
        cv.notify_all();
      }
      if (done) return;
    }
  });
  std::set<size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    size_t s = reg.Acquire();
    seen.insert(s);
    reg.BeginAcquire(s);
    reg.SetSnapshot(s, 1);
    std::unique_lock<std::mutex> lock(mu);
    handoff.push_back(s);
    cv.notify_all();
    // Bound the slots in flight so recycling has a chance to keep up.
    cv.wait(lock, [&] { return handoff.size() < 4; });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  releaser.join();
  // Slots must flow back through the shared spill pool rather than strand
  // in the releaser's TLS cache: total claims stay far below capacity.
  EXPECT_LT(seen.size(), 64u);
}

TEST(ActiveRegistryTest, ConcurrentChurn) {
  ActiveSnapshotRegistry reg(256);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      while (!stop.load()) {
        size_t s = reg.Acquire();
        reg.BeginAcquire(s);
        reg.SetSnapshot(s, 10 + rng.Uniform(100));
        reg.Release(s);
      }
    });
  }
  for (int i = 0; i < 1000; ++i) {
    Timestamp m = reg.MinActive(1000);
    EXPECT_GE(m, 10u);  // never below any registered value
  }
  stop.store(true);
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace skeena
