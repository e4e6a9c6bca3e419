// Failure injection: I/O errors from the device layer must surface as
// Status (never crash or corrupt), and the system must keep functioning on
// the paths that don't touch the failed device.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/commit_pipeline.h"
#include "log/log_manager.h"
#include "log/storage_device.h"
#include "stordb/stor_engine.h"

namespace skeena {
namespace {

/// Wraps a MemDevice and fails operations on command.
class FlakyDevice : public StorageDevice {
 public:
  std::atomic<bool> fail_reads{false};
  std::atomic<bool> fail_writes{false};
  mutable std::atomic<uint64_t> reads_attempted{0};
  std::atomic<uint64_t> writes_attempted{0};

  Status WriteAt(uint64_t offset, std::span<const uint8_t> data) override {
    writes_attempted.fetch_add(1);
    if (fail_writes.load()) return Status::IOError("injected write failure");
    return inner_.WriteAt(offset, data);
  }
  Status ReadAt(uint64_t offset, std::span<uint8_t> out) const override {
    reads_attempted.fetch_add(1);
    if (fail_reads.load()) return Status::IOError("injected read failure");
    return inner_.ReadAt(offset, out);
  }
  Status Sync() override {
    if (fail_writes.load()) return Status::IOError("injected sync failure");
    return inner_.Sync();
  }
  uint64_t Size() const override { return inner_.Size(); }

 private:
  MemDevice inner_;
};

/// User plus system CPU time of the whole process so far, in ms.
double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

TEST(FailureTest, BufferPoolMissSurfacesReadError) {
  auto flaky = std::make_unique<FlakyDevice>();
  FlakyDevice* dev = flaky.get();

  stordb::StorEngine::Options opts;
  opts.buffer_pool_pages = 8;  // tiny: forces evictions + re-reads
  opts.device_factory = [&](const std::string&) {
    // The engine owns exactly one table in this test.
    return std::move(flaky);
  };
  stordb::StorEngine engine(std::make_unique<MemDevice>(), opts);
  TableId t = engine.CreateTable("t", 200);

  // Load enough rows to overflow the pool.
  for (uint64_t k = 0; k < 600; ++k) {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    ASSERT_TRUE(engine.Put(txn.get(), t, MakeKey(k), std::string(64, 'x'))
                    .ok());
    ASSERT_TRUE(engine.PreCommit(txn.get()).ok());
    engine.PostCommit(txn.get(), k + 1, false);
  }

  dev->fail_reads.store(true);
  // Sweep until some Get needs a device read; it must fail cleanly.
  bool saw_error = false;
  for (uint64_t k = 0; k < 600 && !saw_error; ++k) {
    auto txn = engine.Begin(IsolationLevel::kSnapshot);
    std::string v;
    Status s = engine.Get(txn.get(), t, MakeKey(k), &v);
    if (!s.ok() && s.code() == StatusCode::kIOError) saw_error = true;
    engine.Abort(txn.get());
  }
  EXPECT_TRUE(saw_error) << "pool misses must surface device errors";

  dev->fail_reads.store(false);
  // The engine recovers once the device heals.
  auto txn = engine.Begin(IsolationLevel::kSnapshot);
  std::string v;
  EXPECT_TRUE(engine.Get(txn.get(), t, MakeKey(1), &v).ok());
  engine.Abort(txn.get());
}

TEST(FailureTest, LogFlushErrorDoesNotAdvanceDurableLsn) {
  auto flaky = std::make_unique<FlakyDevice>();
  FlakyDevice* dev = flaky.get();
  LogManager::Options opts;
  opts.auto_flush = false;
  LogManager log(std::move(flaky), opts);

  uint8_t payload[32] = {};
  Lsn lsn = log.Append(payload);
  dev->fail_writes.store(true);
  EXPECT_FALSE(log.Flush().ok());
  EXPECT_LT(log.DurableLsn(), lsn)
      << "a failed flush must not claim durability";

  dev->fail_writes.store(false);
  EXPECT_TRUE(log.Flush().ok());
  EXPECT_GE(log.DurableLsn(), lsn);
}

TEST(FailureTest, LogRetainsRecordsAcrossFailedFlush) {
  auto flaky = std::make_unique<FlakyDevice>();
  FlakyDevice* dev = flaky.get();
  LogManager::Options opts;
  opts.auto_flush = false;
  LogManager log(std::move(flaky), opts);

  uint8_t a[4] = {1, 2, 3, 4};
  log.Append(a);
  dev->fail_writes.store(true);
  EXPECT_FALSE(log.Flush().ok());
  dev->fail_writes.store(false);
  uint8_t b[4] = {5, 6, 7, 8};
  log.Append(b);
  ASSERT_TRUE(log.Flush().ok());

  LogReader reader(log.device());
  std::string rec;
  std::vector<std::string> records;
  while (reader.Next(&rec)) records.push_back(rec);
  // Both records eventually durable, in order, exactly once.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], std::string("\x01\x02\x03\x04", 4));
  EXPECT_EQ(records[1], std::string("\x05\x06\x07\x08", 4));
}

TEST(FailureTest, FlusherBacksOffWhileDeviceFails) {
  // The flusher has no batch window, so a failing device must not turn its
  // retry into a tight loop: it waits out the idle backstop between tries.
  auto flaky = std::make_unique<FlakyDevice>();
  FlakyDevice* dev = flaky.get();
  dev->fail_writes.store(true);
  LogManager log(std::move(flaky));

  uint8_t payload[32] = {};
  Lsn lsn = log.Append(payload);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(log.DurableLsn(), lsn);
  // ~20 tries at one per 5 ms backstop; a hot loop makes millions.
  EXPECT_LT(dev->writes_attempted.load(), 200u)
      << "flusher retried a failing device without backing off";

  dev->fail_writes.store(false);
  log.WaitDurable(lsn);  // the next retry heals durability
  EXPECT_GE(log.DurableLsn(), lsn);
}

TEST(FailureTest, CommitterLedFlushBacksOffWhileDeviceFails) {
  // Waiting committers lead flush passes themselves. A failing device must
  // push the one period floor out for them as for the flusher, so however
  // many committers wait, the device sees the backstop's pace of retries,
  // not one tight loop per committer.
  auto flaky = std::make_unique<FlakyDevice>();
  FlakyDevice* dev = flaky.get();
  dev->fail_writes.store(true);
  LogManager log(std::move(flaky));

  // Committers keep arriving across a 100 ms window, one per back-off
  // period, as they would at a live server: each finds the next retry up
  // to kIdleBackstop ahead.
  constexpr int kCommitters = 20;
  std::atomic<int> acked{0};
  std::vector<std::thread> committers;
  const double cpu_before = ProcessCpuMs();
  for (int i = 0; i < kCommitters; ++i) {
    committers.emplace_back([&] {
      uint8_t payload[32] = {};
      log.WaitDurable(log.Append(payload));
      acked.fetch_add(1);
    });
    std::this_thread::sleep_for(LogManager::kIdleBackstop);
  }
  const double cpu_ms = ProcessCpuMs() - cpu_before;
  EXPECT_EQ(acked.load(), 0) << "commit acked while its log flush fails";
  // Same bound as FlusherBacksOffWhileDeviceFails.
  EXPECT_LT(dev->writes_attempted.load(), 200u)
      << "committers retried a failing device without backing off";
  // A committer spins out at most one flush period, never the back-off: a
  // spin through it would burn a core for most of the window.
  EXPECT_LT(cpu_ms, 50.0)
      << "committers spun through the failing device's back-off";

  dev->fail_writes.store(false);
  for (auto& th : committers) th.join();  // a retry after healing releases all
  EXPECT_EQ(acked.load(), kCommitters);
  EXPECT_GE(log.DurableLsn(), log.CurrentLsn());
}

TEST(FailureTest, CommitNotAckedWhileLogFlushFails) {
  // A failed flush, led by the committer or the log's flusher, must not
  // ack the commit past the durable LSN: the commit waits until a retry
  // lands after the device heals.
  auto flaky = std::make_unique<FlakyDevice>();
  FlakyDevice* dev = flaky.get();
  dev->fail_writes.store(true);
  LogManager mem(std::move(flaky));
  LogManager stor(std::make_unique<MemDevice>());
  CommitPipeline pipeline(&mem, &stor);

  uint8_t payload[16] = {};
  Lsn lsns[2] = {mem.Append(payload), stor.Append(payload)};
  std::atomic<bool> done{false};
  std::thread committer([&] {
    pipeline.WaitDurable(lsns);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "commit acked while its log flush fails";
  EXPECT_LT(mem.DurableLsn(), lsns[0]);

  dev->fail_writes.store(false);
  committer.join();  // the next retry releases it
  EXPECT_TRUE(done.load());
  EXPECT_GE(mem.DurableLsn(), lsns[0]);
  EXPECT_GE(stor.DurableLsn(), lsns[1]);
}

}  // namespace
}  // namespace skeena
