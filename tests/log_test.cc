#include "log/log_manager.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "log/log_records.h"
#include "log/redo.h"
#include "log/segmented_device.h"
#include "log/storage_device.h"

namespace skeena {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// Encodes one log frame exactly as LogManager::Append lays it out.
std::string Frame(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t check = LogFrameCheck(Bytes(payload));
  std::string f;
  f.append(reinterpret_cast<const char*>(&len), sizeof(len));
  f.append(reinterpret_cast<const char*>(&check), sizeof(check));
  f += payload;
  return f;
}

// A fresh (removed) temp directory for segmented-device tests.
std::string FreshDir(const std::string& name) {
  auto p = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(p);
  return p.string();
}

// ----------------------------------------------------------------- Devices

TEST(MemDeviceTest, AppendReadRoundTrip) {
  MemDevice dev;
  ASSERT_TRUE(dev.WriteAt(dev.Size(), Bytes("hello")).ok());
  EXPECT_EQ(dev.Size(), 5u);
  ASSERT_TRUE(dev.WriteAt(dev.Size(), Bytes("world!")).ok());
  EXPECT_EQ(dev.Size(), 11u);

  std::string out(6, '\0');
  ASSERT_TRUE(
      dev.ReadAt(5, {reinterpret_cast<uint8_t*>(out.data()), 6}).ok());
  EXPECT_EQ(out, "world!");
}

TEST(MemDeviceTest, WriteAtExtends) {
  MemDevice dev;
  ASSERT_TRUE(dev.WriteAt(100, Bytes("xyz")).ok());
  EXPECT_EQ(dev.Size(), 103u);
  // The hole reads as zeros.
  std::string out(3, 'q');
  ASSERT_TRUE(dev.ReadAt(0, {reinterpret_cast<uint8_t*>(out.data()), 3}).ok());
  EXPECT_EQ(out, std::string(3, '\0'));
}

TEST(MemDeviceTest, ReadPastEndFails) {
  MemDevice dev;
  ASSERT_TRUE(dev.WriteAt(dev.Size(), Bytes("abc")).ok());
  std::string out(10, '\0');
  EXPECT_FALSE(
      dev.ReadAt(0, {reinterpret_cast<uint8_t*>(out.data()), 10}).ok());
}

TEST(MemDeviceTest, WritesAcrossChunkBoundariesRoundTrip) {
  // The device stores fixed-size chunks; a write that straddles several of
  // them must read back byte for byte, from any offset.
  MemDevice dev;
  std::string data(3 * (1 << 20) + 123, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i % 251);
  const uint64_t at = (1 << 20) - 7;
  ASSERT_TRUE(dev.WriteAt(at, Bytes(data)).ok());
  EXPECT_EQ(dev.Size(), at + data.size());
  std::string out(data.size(), '\0');
  ASSERT_TRUE(
      dev.ReadAt(at, {reinterpret_cast<uint8_t*>(out.data()), out.size()})
          .ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(dev.WriteAt(dev.Size(), Bytes("tail")).ok());
  EXPECT_EQ(dev.Size(), at + data.size() + 4);
}

TEST(MemDeviceTest, TruncatedBytesReadAsZeroAfterRegrowth) {
  MemDevice dev;
  const std::string ones((1 << 20) + 500, '\x01');
  ASSERT_TRUE(dev.WriteAt(0, Bytes(ones)).ok());
  const uint64_t cut = (1 << 20) + 10;
  ASSERT_TRUE(dev.Truncate(cut).ok());
  EXPECT_EQ(dev.Size(), cut);
  // Regrow past the old end: the cut-off bytes and the new hole are zeros.
  ASSERT_TRUE(dev.WriteAt(3 << 20, Bytes("x")).ok());
  std::string out((3 << 20) - cut, 'q');
  ASSERT_TRUE(
      dev.ReadAt(cut, {reinterpret_cast<uint8_t*>(out.data()), out.size()})
          .ok());
  EXPECT_EQ(out, std::string(out.size(), '\0'));
  char kept = 0;
  ASSERT_TRUE(dev.ReadAt(cut - 1, {reinterpret_cast<uint8_t*>(&kept), 1}).ok());
  EXPECT_EQ(kept, '\x01');
}

TEST(FileDeviceTest, PersistsAcrossReopen) {
  std::string path =
      (std::filesystem::temp_directory_path() / "skeena_dev_test.bin")
          .string();
  std::filesystem::remove(path);
  {
    auto dev = FileDevice::Open(path);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE((*dev)->WriteAt((*dev)->Size(), Bytes("durable")).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    auto dev = FileDevice::Open(path);
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ((*dev)->Size(), 7u);
    std::string out(7, '\0');
    ASSERT_TRUE(
        (*dev)->ReadAt(0, {reinterpret_cast<uint8_t*>(out.data()), 7}).ok());
    EXPECT_EQ(out, "durable");
  }
  std::filesystem::remove(path);
}

// Raw-pwrite hook honoring the syscall contract but writing at most 3 bytes
// per call: every multi-byte write becomes a chain of short writes.
ssize_t ShortPwrite(int fd, const void* buf, size_t count, off_t off) {
  return ::pwrite(fd, buf, count > 3 ? 3 : count, off);
}

TEST(FileDeviceTest, ShortWritesAreRetriedToCompletion) {
  std::string path =
      (std::filesystem::temp_directory_path() / "skeena_shortwrite_test.bin")
          .string();
  std::filesystem::remove(path);
  auto dev = FileDevice::Open(path);
  ASSERT_TRUE(dev.ok());
  (*dev)->SetPwriteHookForTest(&ShortPwrite);

  const std::string payload = "short-writes-must-not-tear-this-record";
  ASSERT_TRUE((*dev)->WriteAt((*dev)->Size(), Bytes(payload)).ok());
  ASSERT_TRUE((*dev)->WriteAt(10, Bytes("OVERWRITE")).ok());
  (*dev)->SetPwriteHookForTest(nullptr);

  EXPECT_EQ((*dev)->Size(), payload.size());
  std::string out(payload.size(), '\0');
  ASSERT_TRUE(
      (*dev)
          ->ReadAt(0, {reinterpret_cast<uint8_t*>(out.data()), out.size()})
          .ok());
  std::string expect = payload;
  expect.replace(10, 9, "OVERWRITE");
  EXPECT_EQ(out, expect) << "short writes dropped or duplicated bytes";
  std::filesystem::remove(path);
}

TEST(DeviceLatencyTest, InjectedLatencyIsCharged) {
  MemDevice slow(DeviceLatency{.read_ns = 200000, .write_ns = 0, .sync_ns = 0});
  std::string payload(64, 'x');
  slow.WriteAt(slow.Size(), Bytes(payload));
  std::string out(64, '\0');
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    slow.ReadAt(0, {reinterpret_cast<uint8_t*>(out.data()), 64});
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            2000) << "10 reads at 200us each must take >= 2ms";
}

// -------------------------------------------------------------- LogManager

TEST(LogManagerTest, LsnsAreMonotoneByteOffsets) {
  LogManager log(std::make_unique<MemDevice>());
  Lsn a = log.Append(Bytes("aaaa"));
  Lsn b = log.Append(Bytes("bb"));
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(log.CurrentLsn(), b);
}

TEST(LogManagerTest, DurableLsnAdvancesToCover) {
  LogManager log(std::make_unique<MemDevice>());
  Lsn lsn = log.Append(Bytes("record"));
  log.WaitDurable(lsn);
  EXPECT_GE(log.DurableLsn(), lsn);
}

TEST(LogManagerTest, FlushForcesDurability) {
  LogManager::Options opts;
  opts.auto_flush = false;  // only Flush() may advance durability
  LogManager log(std::make_unique<MemDevice>(), opts);
  Lsn lsn = log.Append(Bytes("x"));
  EXPECT_LT(log.DurableLsn(), lsn);
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_GE(log.DurableLsn(), lsn);
}

TEST(LogManagerTest, GroupCommitBatchesConcurrentAppends) {
  LogManager log(std::make_unique<MemDevice>());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Lsn lsn = log.Append(Bytes("record-payload"));
        log.WaitDurable(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Group commit must aggregate many appends per device write.
  EXPECT_LT(log.stats().flushes, kThreads * kPerThread)
      << "every append got its own flush: group commit broken";
  EXPECT_GE(log.DurableLsn(), log.CurrentLsn());
}

TEST(LogManagerTest, ReaderSeesAllRecordsInOrder) {
  auto dev = std::make_unique<MemDevice>();
  MemDevice* raw = dev.get();
  LogManager log(std::move(dev));
  for (int i = 0; i < 100; ++i) {
    log.Append(Bytes("rec" + std::to_string(i)));
  }
  log.Flush();
  LogReader reader(raw);
  std::string rec;
  int i = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec, "rec" + std::to_string(i));
    i++;
  }
  EXPECT_EQ(i, 100);
}

TEST(LogManagerTest, ReaderStopsAtTornTail) {
  auto dev = std::make_unique<MemDevice>();
  // One valid frame, then a frame header promising more bytes than exist.
  std::string bytes = Frame("abc");
  uint32_t torn_len = 100;
  uint32_t torn_check = LogFrameCheck(Bytes("partial"));
  bytes.append(reinterpret_cast<const char*>(&torn_len), 4);
  bytes.append(reinterpret_cast<const char*>(&torn_check), 4);
  bytes += "partial";
  dev->WriteAt(dev->Size(), Bytes(bytes));

  LogReader reader(dev.get());
  std::string rec;
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec, "abc");
  EXPECT_FALSE(reader.Next(&rec)) << "torn tail must end the scan";
}

TEST(LogManagerTest, ReaderStopsAtCorruptFrameCheck) {
  auto dev = std::make_unique<MemDevice>();
  // Second frame is fully present but its payload was torn mid-write: the
  // length/check header no longer matches the bytes that follow.
  std::string bytes = Frame("good-record");
  std::string bad = Frame("stale-bytes-from-a-torn-write");
  bad[bad.size() - 1] ^= 0x5a;
  bytes += bad;
  bytes += Frame("unreachable");
  dev->WriteAt(dev->Size(), Bytes(bytes));

  LogReader reader(dev.get());
  std::string rec;
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec, "good-record");
  EXPECT_FALSE(reader.Next(&rec))
      << "a frame-check mismatch must end the scan, not skip ahead";
}

TEST(LogManagerTest, RingWrapStressConcurrentAppends) {
  // A 64 KiB ring forced through ~1.7 MB of appends: reservations wrap the
  // ring many times and appenders must park for space without ever letting
  // the flusher tear a frame.
  LogManager::Options opts;
  opts.buffer_bytes = 64 * 1024;
  opts.block_bytes = 4 * 1024;
  auto dev = std::make_unique<MemDevice>();
  MemDevice* raw = dev.get();
  LogManager log(std::move(dev), opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  const std::string payload(100, 'w');
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Lsn last = 0;
      for (int i = 0; i < kPerThread; ++i) {
        last = log.Append(Bytes(payload));
      }
      log.WaitDurable(last);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_GE(log.DurableLsn(), log.CurrentLsn());

  LogReader reader(raw);
  std::string rec;
  int n = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec.size(), payload.size());
    ++n;
  }
  EXPECT_EQ(n, kThreads * kPerThread);
}

TEST(LogManagerTest, FlushStopsAtOneRingLapWithAParkedAppender) {
  // Deterministic repro of a prefix-walk wrap bug: fill the ring EXACTLY to
  // capacity with one-block frames (all released), then park a 17th append
  // on the space eventcount. The flusher's completed-prefix walk reaches
  // `flushed + capacity`, where the block index wraps onto the block it
  // started from — whose release count is still the current lap's (it is
  // only retired after the device write). An unbounded walk reads that
  // stale count as proof the parked appender's claim is copied and ships
  // its uncopied bytes; the reader then finds a torn frame at exactly the
  // capacity boundary. The walk must stop at one lap instead.
  LogManager::Options opts;
  opts.buffer_bytes = 64 * 1024;
  opts.block_bytes = 4 * 1024;
  opts.auto_flush = false;  // only explicit Flush() runs the walk
  auto dev = std::make_unique<MemDevice>();
  MemDevice* raw = dev.get();
  LogManager log(std::move(dev), opts);

  // 16 frames of exactly one block each: reserved == capacity, flushed == 0.
  // Distinct payloads matter: the bug ships the ring's first block a second
  // time at the capacity offset, which is a VALID frame of the wrong record
  // — a count-only check would read 17 well-formed records and miss it.
  std::vector<std::string> payloads;
  for (int i = 0; i < 17; ++i) {
    payloads.emplace_back(4 * 1024 - kLogFrameHeaderSize,
                          static_cast<char>('a' + i));
  }
  for (int i = 0; i < 16; ++i) log.Append(Bytes(payloads[i]));
  ASSERT_EQ(log.CurrentLsn(), 64u * 1024);

  // The 17th append claims [capacity, capacity + 4K) and must park for
  // space before copying a byte.
  std::thread extra([&] { log.Append(Bytes(payloads[16])); });
  while (log.CurrentLsn() != 68u * 1024) CpuRelax();

  // Flush with the parked claim outstanding, then drain everything.
  ASSERT_TRUE(log.Flush().ok());
  extra.join();
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_GE(log.DurableLsn(), 68u * 1024);

  LogReader reader(raw);
  std::string rec;
  int n = 0;
  while (reader.Next(&rec)) {
    ASSERT_LT(n, 17);
    EXPECT_EQ(rec, payloads[n]) << "record " << n << " torn or replaced by a "
                                   "stale lap of the ring";
    ++n;
  }
  EXPECT_EQ(n, 17) << "flush walk wrapped past the ring capacity and "
                      "shipped the parked appender's uncopied claim";
}

TEST(LogManagerTest, SelfClockedFlusherBatchesCommitsOnSlowDevice) {
  // No batch window: the device's own latency is what batches. Every
  // commit that arrives while one SSD-priced flush is on the device rides
  // the next flush, so concurrent committers share flushes.
  LogManager log(std::make_unique<MemDevice>(DeviceLatency::Ssd()));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        log.WaitDurable(log.Append(Bytes("commit-record")));
      }
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t commits = kThreads * kPerThread;
  EXPECT_LE(log.stats().flushes, commits / 2)
      << "flushes per commit must fall well below 1 once a flush costs "
         "device time";
  EXPECT_GE(log.DurableLsn(), log.CurrentLsn());
  EXPECT_EQ(log.stats().window_us, 0u) << "deprecated window shim reads 0";
}

TEST(LogManagerTest, FlushesStartAtLeastOnePeriodApartOnFastDevice) {
  // A zero-latency device would let the flusher flush per commit; the
  // period floor caps it, so concurrent committers share flushes. No
  // flush runs before `t0`, and each later one starts a full period after
  // the one before it.
  LogManager log(std::make_unique<MemDevice>());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        log.WaitDurable(log.Append(Bytes("commit-record")));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const uint64_t flushes = log.stats().flushes;
  EXPECT_LE(flushes, 1 + static_cast<uint64_t>(
                             elapsed / LogManager::kMinFlushPeriod));
  EXPECT_LT(flushes, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(log.DurableLsn(), log.CurrentLsn());
}

TEST(LogManagerTest, SequentialCommitsLeadAtTheFloor) {
  // Back-to-back commits on a fast device each find the floor less than a
  // period ahead: the committer spins it out and leads the pass itself, so
  // it neither parks nor waits for the flusher's timed sleep.
  LogManager log(std::make_unique<MemDevice>());
  constexpr int kCommits = 200;
  int parks = 0;
  for (int i = 0; i < kCommits; ++i) {
    if (log.WaitDurable(log.Append(Bytes("commit-record")))) ++parks;
  }
  EXPECT_LE(parks, kCommits / 10)
      << "a lone committer parked instead of leading the pass at the floor";
  EXPECT_GE(log.DurableLsn(), log.CurrentLsn());
}

// ------------------------------------------------- SegmentedLogDevice

TEST(SegmentedDeviceTest, RecordsSplitAcrossSegmentBoundaries) {
  std::string dir = FreshDir("skeena_seg_split");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  const std::string payload(300, 'p');
  Lsn end = 0;
  {
    auto dev = SegmentedLogDevice::Open(dir, o);
    ASSERT_TRUE(dev.ok());
    SegmentedLogDevice* raw = dev->get();
    LogManager log(std::move(dev.value()));
    for (int i = 0; i < 120; ++i) {
      log.Append(Bytes(payload + std::to_string(i)));
    }
    ASSERT_TRUE(log.Flush().ok());
    end = log.CurrentLsn();
    // ~37 KB through 8 KiB segments: many records straddle an edge.
    EXPECT_GE(raw->segment_count(), 4u);
  }
  auto dev = SegmentedLogDevice::Open(dir, o);
  ASSERT_TRUE(dev.ok());
  EXPECT_GE((*dev)->Size(), end) << "reopen must cover all written bytes";
  LogReader reader(dev->get());
  std::string rec;
  int i = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec, payload + std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, 120);
  EXPECT_EQ(reader.offset(), end)
      << "the preallocated zero tail must read as end-of-log";
  std::filesystem::remove_all(dir);
}

TEST(SegmentedDeviceTest, TornTailInLastSegmentRecovered) {
  std::string dir = FreshDir("skeena_seg_torn");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  Lsn end = 0;
  {
    auto dev = SegmentedLogDevice::Open(dir, o);
    ASSERT_TRUE(dev.ok());
    LogManager log(std::move(dev.value()));
    for (int i = 0; i < 40; ++i) {
      log.Append(Bytes("payload-" + std::to_string(i)));
    }
    ASSERT_TRUE(log.Flush().ok());
    end = log.CurrentLsn();
  }
  {
    // Crash mid-write: a plausible header lands after the durable prefix
    // but its payload never fully made it.
    auto dev = SegmentedLogDevice::Open(dir, o);
    ASSERT_TRUE(dev.ok());
    std::string torn;
    uint32_t len = 64;
    uint32_t check = 0xdeadbeef;
    torn.append(reinterpret_cast<const char*>(&len), 4);
    torn.append(reinterpret_cast<const char*>(&check), 4);
    torn += "only-part-of-the-payload";
    ASSERT_TRUE((*dev)->WriteAt(end, Bytes(torn)).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  // Reopen: the tail scan must stop at the torn frame and resume appending
  // exactly there.
  auto dev = SegmentedLogDevice::Open(dir, o);
  ASSERT_TRUE(dev.ok());
  SegmentedLogDevice* raw = dev->get();
  LogManager log(std::move(dev.value()));
  EXPECT_EQ(log.CurrentLsn(), end);
  Lsn fresh = log.Append(Bytes("after-recovery"));
  log.WaitDurable(fresh);

  LogReader reader(raw);
  std::string rec;
  std::string last;
  int n = 0;
  while (reader.Next(&rec)) {
    last = rec;
    ++n;
  }
  EXPECT_EQ(n, 41) << "40 original records plus the post-recovery append";
  EXPECT_EQ(last, "after-recovery");
  std::filesystem::remove_all(dir);
}

TEST(SegmentedDeviceTest, CrashDuringSegmentRotationHeals) {
  std::string dir = FreshDir("skeena_seg_rotate");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  Lsn end = 0;
  {
    auto dev = SegmentedLogDevice::Open(dir, o);
    ASSERT_TRUE(dev.ok());
    LogManager log(std::move(dev.value()));
    const std::string payload(500, 'r');
    for (int i = 0; i < 20; ++i) log.Append(Bytes(payload));  // ~10 KB
    ASSERT_TRUE(log.Flush().ok());
    end = log.CurrentLsn();
  }
  {
    // A crash between creating the next segment file and preallocating it
    // leaves a short segment behind.
    std::ofstream f(dir + "/wal.00000002.seg", std::ios::binary);
    f << "xx";
  }
  auto dev = SegmentedLogDevice::Open(dir, o);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->segment_count(), 3u);
  EXPECT_EQ((*dev)->Size(), 3 * o.segment_bytes)
      << "reopen must re-preallocate the short segment";
  LogManager log(std::move(dev.value()));
  EXPECT_EQ(log.CurrentLsn(), end);
  Lsn fresh = log.Append(Bytes("post-rotation"));
  log.WaitDurable(fresh);
  EXPECT_GE(log.DurableLsn(), fresh);
  std::filesystem::remove_all(dir);
}

TEST(SegmentedDeviceTest, TruncateDropsLaterSegmentsAndRezerosTail) {
  std::string dir = FreshDir("skeena_seg_trunc");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  auto opened = SegmentedLogDevice::Open(dir, o);
  ASSERT_TRUE(opened.ok());
  auto dev = std::move(opened.value());

  const std::string blob(20000, 'a');  // spans 3 segments
  ASSERT_TRUE(dev->WriteAt(0, Bytes(blob)).ok());
  EXPECT_EQ(dev->segment_count(), 3u);

  const uint64_t keep = 4096 + 50;
  ASSERT_TRUE(dev->Truncate(keep).ok());
  EXPECT_EQ(dev->segment_count(), 1u);
  EXPECT_EQ(dev->Size(), keep);

  // The kept prefix survives; the tail beyond it reads as zeros again even
  // though 'a' bytes were there before the truncate.
  std::string head(keep, '\0');
  ASSERT_TRUE(
      dev->ReadAt(0, {reinterpret_cast<uint8_t*>(head.data()), head.size()})
          .ok());
  EXPECT_EQ(head, blob.substr(0, keep));
  std::string tail(64, 'q');
  ASSERT_TRUE(
      dev->ReadAt(keep, {reinterpret_cast<uint8_t*>(tail.data()), tail.size()})
          .ok());
  EXPECT_EQ(tail, std::string(64, '\0'))
      << "stale pre-truncate bytes must not resurface as log frames";

  // The device keeps working past a truncate.
  ASSERT_TRUE(dev->WriteAt(keep, Bytes("again")).ok());
  std::string out(5, '\0');
  ASSERT_TRUE(
      dev->ReadAt(keep, {reinterpret_cast<uint8_t*>(out.data()), 5}).ok());
  EXPECT_EQ(out, "again");
  dev.reset();
  std::filesystem::remove_all(dir);
}

TEST(SegmentedDeviceTest, TruncateReportsFailedUnlink) {
  // A later segment that survives a truncate rejoins the log on reopen,
  // so a failed unlink must not read as success. A directory in segment
  // 1's place makes unlink fail with EISDIR.
  std::string dir = FreshDir("skeena_seg_trunc_unlink");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  auto opened = SegmentedLogDevice::Open(dir, o);
  ASSERT_TRUE(opened.ok());
  auto dev = std::move(opened.value());
  ASSERT_TRUE(dev->WriteAt(0, Bytes(std::string(20000, 'a'))).ok());
  ASSERT_GE(dev->segment_count(), 2u);

  const std::string seg1 = dir + "/wal.00000001.seg";
  ASSERT_TRUE(std::filesystem::remove(seg1));
  ASSERT_TRUE(std::filesystem::create_directory(seg1));
  EXPECT_FALSE(dev->Truncate(4096 + 50).ok())
      << "truncate acked while a dropped segment is still on disk";
  dev.reset();
  std::filesystem::remove_all(dir);
}

TEST(SegmentedDeviceTest, OpenReportsFailedOrphanUnlink) {
  // A segment past a gap is an orphan of an interrupted truncate; one that
  // survives the open would rejoin the log with its old bytes once the log
  // grows back to it. A directory in orphan 2's place (segment 1 missing)
  // makes its unlink fail with EISDIR.
  std::string dir = FreshDir("skeena_seg_orphan_unlink");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  ASSERT_TRUE(SegmentedLogDevice::Open(dir, o).ok());
  ASSERT_TRUE(std::filesystem::create_directory(dir + "/wal.00000002.seg"));
  EXPECT_FALSE(SegmentedLogDevice::Open(dir, o).ok())
      << "open acked while an orphan segment is still on disk";
  std::filesystem::remove_all(dir);
}

TEST(SegmentedDeviceTest, DurableWaitsAcrossSegmentsRoundTrip) {
  // Many small flush batches, each waited durable, walk the log across
  // several 8 KiB segments, so some batches' pwrites straddle an edge and
  // each Sync covers whichever segments they dirtied.
  std::string dir = FreshDir("skeena_seg_durable");
  SegmentedLogDevice::Options o;
  o.segment_bytes = 8 * 1024;
  const std::string payload(100, 'd');
  Lsn end = 0;
  {
    auto dev = SegmentedLogDevice::Open(dir, o);
    ASSERT_TRUE(dev.ok());
    SegmentedLogDevice* raw = dev->get();
    LogManager log(std::move(dev.value()));
    for (int i = 0; i < 200; ++i) {
      Lsn lsn = log.Append(Bytes(payload + std::to_string(i)));
      if (i % 7 == 0) {
        log.WaitDurable(lsn);
        EXPECT_GE(log.DurableLsn(), lsn);
      }
    }
    ASSERT_TRUE(log.Flush().ok());
    end = log.CurrentLsn();
    EXPECT_GE(raw->segment_count(), 3u);
  }
  // Read back through a fresh device: every byte comes from pread.
  auto dev = SegmentedLogDevice::Open(dir, o);
  ASSERT_TRUE(dev.ok());
  LogReader reader(dev->get());
  std::string rec;
  int n = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec, payload + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 200);
  EXPECT_EQ(reader.offset(), end);
  std::filesystem::remove_all(dir);
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kData;
  rec.gtid = 0x12345678abcdefull;
  rec.cts = 999;
  rec.table = 42;
  rec.tombstone = true;
  rec.key = MakeKey(77);
  rec.value = std::string(300, 'v');

  LogRecord decoded;
  ASSERT_TRUE(LogRecord::Decode(rec.Encode(), &decoded));
  EXPECT_EQ(decoded.type, rec.type);
  EXPECT_EQ(decoded.gtid, rec.gtid);
  EXPECT_EQ(decoded.cts, rec.cts);
  EXPECT_EQ(decoded.table, rec.table);
  EXPECT_EQ(decoded.tombstone, rec.tombstone);
  EXPECT_EQ(decoded.key, rec.key);
  EXPECT_EQ(decoded.value, rec.value);
}

TEST(LogRecordTest, DecodeRejectsTruncated) {
  LogRecord rec;
  rec.value = "somevalue";
  std::string enc = rec.Encode();
  LogRecord out;
  EXPECT_TRUE(LogRecord::Decode(enc, &out));
  EXPECT_FALSE(LogRecord::Decode(std::string_view(enc).substr(0, 10), &out));
  EXPECT_FALSE(
      LogRecord::Decode(std::string_view(enc).substr(0, enc.size() - 1),
                        &out));
}

TEST(LogRecordTest, EmptyValueAllowed) {
  LogRecord rec;
  rec.type = LogRecordType::kCommitEnd;
  rec.gtid = 5;
  LogRecord out;
  ASSERT_TRUE(LogRecord::Decode(rec.Encode(), &out));
  EXPECT_EQ(out.type, LogRecordType::kCommitEnd);
  EXPECT_TRUE(out.value.empty());
}

// -------------------------------------------------------------------- Redo

std::string Rec(LogRecordType type, GlobalTxnId gtid, Timestamp cts,
                uint64_t key = 0, const std::string& value = "") {
  LogRecord r;
  r.type = type;
  r.gtid = gtid;
  r.cts = cts;
  r.key = MakeKey(key);
  r.value = value;
  return r.Encode();
}

TEST(RedoGrouperTest, DataThenCommitFormsOneGroup) {
  RedoGrouper grouper;
  std::optional<CommittedGroup> closed;
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 7, 40, 1, "a"), &closed)
                  .ok());
  EXPECT_FALSE(closed);
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 7, 40, 2, "b"), &closed)
                  .ok());
  EXPECT_FALSE(closed);
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kCommit, 7, 40), &closed).ok());
  ASSERT_TRUE(closed);
  EXPECT_EQ(closed->gtid, 7u);
  EXPECT_EQ(closed->cts, 40u);
  ASSERT_EQ(closed->records.size(), 2u);
  EXPECT_EQ(closed->records[0].key, MakeKey(1));
  EXPECT_EQ(closed->records[0].value, "a");
  EXPECT_EQ(closed->records[1].key, MakeKey(2));
  EXPECT_EQ(closed->records[1].value, "b");
}

TEST(RedoGrouperTest, CommitWithoutDataFormsNoGroup) {
  RedoGrouper grouper;
  std::optional<CommittedGroup> closed;
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kCommit, 3, 9), &closed).ok());
  EXPECT_FALSE(closed) << "a read-only commit has nothing to apply";
  ASSERT_TRUE(
      grouper.Add(Rec(LogRecordType::kCommitEnd, 4, 9), &closed).ok());
  EXPECT_FALSE(closed);
}

TEST(RedoGrouperTest, InterleavedGtidsGroupSeparately) {
  RedoGrouper grouper;
  std::optional<CommittedGroup> closed;
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 1, 12, 10), &closed).ok());
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 2, 11, 20), &closed).ok());
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 1, 12, 11), &closed).ok());
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kCommit, 2, 11), &closed).ok());
  ASSERT_TRUE(closed);
  EXPECT_EQ(closed->gtid, 2u);
  ASSERT_EQ(closed->records.size(), 1u);
  EXPECT_EQ(closed->records[0].key, MakeKey(20));
  ASSERT_TRUE(
      grouper.Add(Rec(LogRecordType::kCommitEnd, 1, 12), &closed).ok());
  ASSERT_TRUE(closed);
  EXPECT_EQ(closed->gtid, 1u);
  EXPECT_EQ(closed->cts, 12u);
  ASSERT_EQ(closed->records.size(), 2u);
  EXPECT_EQ(closed->records[0].key, MakeKey(10));
  EXPECT_EQ(closed->records[1].key, MakeKey(11));
}

TEST(RedoGrouperTest, LegacyCommitBeginIsIgnored) {
  RedoGrouper grouper;
  std::optional<CommittedGroup> closed;
  ASSERT_TRUE(
      grouper.Add(Rec(LogRecordType::kCommitBegin, 5, 1), &closed).ok());
  EXPECT_FALSE(closed);
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 5, 8, 1), &closed).ok());
  ASSERT_TRUE(
      grouper.Add(Rec(LogRecordType::kCommitBegin, 5, 1), &closed).ok());
  EXPECT_FALSE(closed) << "a commit-begin must not close the group";
  ASSERT_TRUE(
      grouper.Add(Rec(LogRecordType::kCommitEnd, 5, 8), &closed).ok());
  ASSERT_TRUE(closed);
  EXPECT_EQ(closed->cts, 8u);
  EXPECT_EQ(closed->records.size(), 1u);
}

TEST(RedoGrouperTest, UndecodableRecordIsCorruption) {
  RedoGrouper grouper;
  std::optional<CommittedGroup> closed;
  const std::string whole = Rec(LogRecordType::kData, 1, 1, 1, "value");
  Status s = grouper.Add(std::string_view(whole).substr(0, 10), &closed);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_FALSE(closed);
}

TEST(RedoGrouperTest, TornCommitEndDropsItsGroup) {
  const std::set<GlobalTxnId> torn = {9};
  RedoGrouper grouper(&torn);
  std::optional<CommittedGroup> closed;
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 9, 3, 1), &closed).ok());
  ASSERT_TRUE(
      grouper.Add(Rec(LogRecordType::kCommitEnd, 9, 3), &closed).ok());
  EXPECT_FALSE(closed) << "a torn cross-engine transaction must roll back";
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kData, 9, 4, 2), &closed).ok());
  ASSERT_TRUE(grouper.Add(Rec(LogRecordType::kCommit, 9, 4), &closed).ok());
  EXPECT_TRUE(closed) << "only commit-ends are paired across logs";
}

TEST(RedoTest, WriterRoundTripsInCommitTimestampOrder) {
  // Groups commit out of timestamp order in the log (post-commit appends
  // race); the reader hands them back sorted, with the census of the log.
  LogManager log(std::make_unique<MemDevice>());
  {
    RedoWriter late(&log, 1, 20);
    late.Data(3, MakeKey(1), false, "late");
    RedoWriter early(&log, 2, 10);
    early.Data(3, MakeKey(2), true, "");
    EXPECT_GT(early.Commit(/*cross_engine=*/true), 0u);
    late.Commit(/*cross_engine=*/false);
    RedoWriter read_only(&log, 4, 15);
    read_only.Commit(/*cross_engine=*/true);
  }
  ASSERT_TRUE(log.Flush().ok());

  std::vector<CommittedGroup> groups;
  ASSERT_TRUE(ReadCommittedGroups(log.device(), {}, &groups).ok());
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].gtid, 2u);
  EXPECT_EQ(groups[0].cts, 10u);
  ASSERT_EQ(groups[0].records.size(), 1u);
  EXPECT_TRUE(groups[0].records[0].tombstone);
  EXPECT_EQ(groups[0].records[0].table, 3u);
  EXPECT_EQ(groups[1].gtid, 1u);
  ASSERT_EQ(groups[1].records.size(), 1u);
  EXPECT_EQ(groups[1].records[0].value, "late");

  LogCensus census;
  ASSERT_TRUE(TakeCensus(log.device(), &census).ok());
  EXPECT_EQ(census.commit_ends, (std::set<GlobalTxnId>{2, 4}));
  EXPECT_EQ(census.max_gtid, 4u);

  groups.clear();
  ASSERT_TRUE(ReadCommittedGroups(log.device(), {2}, &groups).ok());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].gtid, 1u);
}

// A MemDevice whose Truncate returns a chosen status.
class TruncateResultDevice : public MemDevice {
 public:
  explicit TruncateResultDevice(Status result) : result_(std::move(result)) {}
  Status Truncate(uint64_t) override { return result_; }

 private:
  Status result_;
};

// One whole frame followed by bytes that do not decode as a frame.
std::unique_ptr<StorageDevice> TornTail(Status truncate_result) {
  auto dev = std::make_unique<TruncateResultDevice>(std::move(truncate_result));
  EXPECT_TRUE(dev->WriteAt(0, Bytes(Frame("whole") + "garbage tail")).ok());
  return dev;
}

TEST(LogManagerTest, TailTruncateNotSupportedIsTolerated) {
  // A device that cannot truncate keeps the stale tail; the log resumes at
  // the last whole frame and overwrites it in place.
  LogManager log(TornTail(Status::NotSupported("no truncate")));
  EXPECT_EQ(log.CurrentLsn(), Frame("whole").size());
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(LogManagerDeathTest, FailedTailTruncateFailsStop) {
  // A torn tail the device failed to cut would be read back as log after
  // the next restart: the log must not start on it.
  EXPECT_DEATH(
      { LogManager log(TornTail(Status::IOError("injected"))); },
      "cannot truncate torn tail");
}
#endif  // GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace skeena
