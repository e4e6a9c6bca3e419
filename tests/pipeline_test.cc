#include "core/commit_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/adapters.h"
#include "log/storage_device.h"

namespace skeena {
namespace {

// Pipeline tests drive two real engine adapters with slow logs so the
// durability gating is observable.
class PipelineTest : public ::testing::Test {
 protected:
  // auto_flush == false disables the background flusher entirely:
  // durability only advances on explicit FlushLog(), making the gating
  // observable.
  std::unique_ptr<MemEngineAdapter> MakeMem(bool auto_flush) {
    memdb::MemEngine::Options opts;
    opts.log.auto_flush = auto_flush;
    return std::make_unique<MemEngineAdapter>(std::make_unique<MemDevice>(),
                                              opts);
  }
  std::unique_ptr<StorEngineAdapter> MakeStor(bool auto_flush) {
    stordb::StorEngine::Options opts;
    opts.log.auto_flush = auto_flush;
    return std::make_unique<StorEngineAdapter>(std::make_unique<MemDevice>(),
                                               opts);
  }
};

TEST_F(PipelineTest, CompletesOnlyWhenBothLogsDurable) {
  auto mem = MakeMem(false);  // manual flush only
  auto stor = MakeStor(false);
  CommitPipeline::Options opts;
  CommitPipeline pipeline(opts, mem.get(), stor.get());

  // Append a record to each log; the entry needs both durable.
  uint8_t payload[16] = {};
  Lsn mem_lsn = mem->engine()->log()->Append(payload);
  Lsn stor_lsn = stor->engine()->log()->Append(payload);

  auto waiter = std::make_shared<CommitWaiter>();
  waiter->Reset();
  std::atomic<bool> done{false};
  Lsn lsns[2] = {mem_lsn, stor_lsn};
  pipeline.Enqueue(lsns, waiter);
  std::thread watcher([&] {
    waiter->Wait();
    done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "neither log flushed yet";

  ASSERT_TRUE(mem->FlushLog().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "one log durable is not enough";

  ASSERT_TRUE(stor->FlushLog().ok());
  watcher.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(pipeline.completed(), 1u);
}

TEST_F(PipelineTest, ZeroLsnMeansNothingToWaitFor) {
  auto mem = MakeMem(false);
  auto stor = MakeStor(false);
  CommitPipeline pipeline(CommitPipeline::Options{}, mem.get(), stor.get());
  auto waiter = std::make_shared<CommitWaiter>();
  Lsn lsns[2] = {0, 0};
  pipeline.EnqueueAndWait(lsns, waiter);  // returns immediately
  EXPECT_EQ(pipeline.completed(), 1u);
}

TEST_F(PipelineTest, SyncModeFlushesInline) {
  auto mem = MakeMem(false);
  auto stor = MakeStor(false);
  CommitPipeline::Options opts;
  opts.mode = CommitPipeline::Mode::kSync;
  CommitPipeline pipeline(opts, mem.get(), stor.get());

  uint8_t payload[8] = {};
  Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                 stor->engine()->log()->Append(payload)};
  auto waiter = std::make_shared<CommitWaiter>();
  pipeline.EnqueueAndWait(lsns, waiter);
  EXPECT_GE(mem->DurableLsn(), lsns[0]);
  EXPECT_GE(stor->DurableLsn(), lsns[1]);
}

TEST_F(PipelineTest, AllQueuedEntriesComplete) {
  auto mem = MakeMem(true);
  auto stor = MakeStor(true);
  CommitPipeline pipeline(CommitPipeline::Options{}, mem.get(), stor.get());

  constexpr int kEntries = 64;
  std::vector<std::shared_ptr<CommitWaiter>> waiters;
  for (int i = 0; i < kEntries; ++i) {
    waiters.push_back(std::make_shared<CommitWaiter>());
  }
  uint8_t payload[8] = {};
  for (int i = 0; i < kEntries; ++i) {
    Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                   stor->engine()->log()->Append(payload)};
    waiters[i]->Reset();
    pipeline.Enqueue(lsns, waiters[i]);
  }
  for (int i = 0; i < kEntries; ++i) {
    waiters[i]->Wait();
  }
  EXPECT_EQ(pipeline.completed(), static_cast<uint64_t>(kEntries));
}

TEST_F(PipelineTest, PartitionedQueuesProgressIndependently) {
  auto mem = MakeMem(true);
  auto stor = MakeStor(true);
  CommitPipeline::Options opts;
  opts.num_queues = 4;
  CommitPipeline pipeline(opts, mem.get(), stor.get());
  uint8_t payload[8] = {};
  std::vector<std::thread> producers;
  std::atomic<uint64_t> done{0};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                       stor->engine()->log()->Append(payload)};
        auto w = std::make_shared<CommitWaiter>();
        pipeline.EnqueueAndWait(lsns, w, static_cast<size_t>(t));
        done.fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(done.load(), 200u);
}

// Stress: many committing threads race the logs' durable-LSN advances.
// Every EnqueueAndWait must return (no lost wakeup — a hang is caught by
// the suite timeout) and complete on its own thread, in both pipelined and
// sync modes.
TEST_F(PipelineTest, StressManyWaitersAgainstDurableAdvances) {
  for (CommitPipeline::Mode mode :
       {CommitPipeline::Mode::kPipelined, CommitPipeline::Mode::kSync}) {
    auto mem = MakeMem(true);
    auto stor = MakeStor(true);
    CommitPipeline::Options opts;
    opts.mode = mode;
    opts.num_queues = 2;
    CommitPipeline pipeline(opts, mem.get(), stor.get());

    constexpr int kThreads = 16;
    constexpr int kTxnsEach = 150;
    constexpr uint64_t kTotal = kThreads * kTxnsEach;
    std::atomic<uint64_t> done{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        uint8_t payload[8] = {};
        for (int i = 0; i < kTxnsEach; ++i) {
          Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                         stor->engine()->log()->Append(payload)};
          auto w = std::make_shared<CommitWaiter>();
          pipeline.EnqueueAndWait(lsns, w, static_cast<size_t>(t));
          EXPECT_TRUE(w->done());
          EXPECT_GE(mem->DurableLsn(), lsns[0]);
          EXPECT_GE(stor->DurableLsn(), lsns[1]);
          done.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(done.load(), kTotal);

    // Blocking commits complete inline on the caller's thread: none is
    // queued, so the daemon never drains or wakes anything.
    CommitPipeline::Stats s = pipeline.stats();
    EXPECT_EQ(s.completed, kTotal);
    EXPECT_EQ(s.completed_inline, kTotal);
    EXPECT_EQ(s.enqueued, 0u) << "a blocking commit went through a queue";
    EXPECT_EQ(s.drain_batches, 0u);
    EXPECT_EQ(s.daemon_wakes, 0u);

#if defined(__linux__)
    if (mode == CommitPipeline::Mode::kPipelined) {
      EXPECT_EQ(s.completed, s.waiter_spin_successes + s.waiter_parks)
          << "every wait resolves by spinning or parking exactly once";
      // The point of batching: each log releases every waiter a durable
      // advance covers with at most one unpark, so its kernel wakes come in
      // strictly under one per commit.
      EXPECT_LT(mem->engine()->log()->stats().durable_wakes, kTotal);
      EXPECT_LT(stor->engine()->log()->stats().durable_wakes, kTotal);
    }
#endif
  }
}

TEST_F(PipelineTest, StatsAccountSpinAndParkOutcomes) {
  auto mem = MakeMem(false);  // manual flush: waits must park
  auto stor = MakeStor(false);
  CommitPipeline pipeline(CommitPipeline::Options{}, mem.get(), stor.get());
  uint8_t payload[8] = {};
  Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                 stor->engine()->log()->Append(payload)};
  auto w = std::make_shared<CommitWaiter>();
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(mem->FlushLog().ok());
    ASSERT_TRUE(stor->FlushLog().ok());
  });
  pipeline.EnqueueAndWait(lsns, w);
  committer.join();
  EXPECT_TRUE(w->done());
  CommitPipeline::Stats s = pipeline.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.completed_inline, 1u) << "the wait completes on our thread";
  EXPECT_EQ(s.enqueued, 0u);
  // The wait resolves in exactly one accounting bucket. (Which bucket is
  // scheduling-dependent: the 30 ms gate normally forces a park, but an
  // oversubscribed box can deschedule the waiter across the whole gate
  // and turn it into a spin success — don't assert the split.)
  EXPECT_EQ(s.waiter_parks + s.waiter_spin_successes, 1u);
  if (s.waiter_parks == 1) {
    // A parked committer is released by a log's durable-advance unpark.
    EXPECT_GE(mem->engine()->log()->stats().durable_wakes +
                  stor->engine()->log()->stats().durable_wakes,
              1u);
  }
}

TEST_F(PipelineTest, AlreadyDurableEntriesCompleteInlineWithoutWakeups) {
  auto mem = MakeMem(false);
  auto stor = MakeStor(false);
  CommitPipeline pipeline(CommitPipeline::Options{}, mem.get(), stor.get());
  uint8_t payload[8] = {};
  Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                 stor->engine()->log()->Append(payload)};
  ASSERT_TRUE(mem->FlushLog().ok());
  ASSERT_TRUE(stor->FlushLog().ok());
  auto w = std::make_shared<CommitWaiter>();
  pipeline.EnqueueAndWait(lsns, w);
  CommitPipeline::Stats s = pipeline.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.wake_syscalls, 0u) << "covered LSNs must not touch the kernel";
  EXPECT_EQ(s.waiter_parks, 0u);
}

TEST_F(PipelineTest, DestructorDrainsPendingEntries) {
  auto mem = MakeMem(false);
  auto stor = MakeStor(false);
  auto waiter = std::make_shared<CommitWaiter>();
  waiter->Reset();
  uint8_t payload[8] = {};
  {
    CommitPipeline pipeline(CommitPipeline::Options{}, mem.get(), stor.get());
    Lsn lsns[2] = {mem->engine()->log()->Append(payload),
                   stor->engine()->log()->Append(payload)};
    pipeline.Enqueue(lsns, waiter);
    // Destroyed with the entry still gated on durability.
  }
  waiter->Wait();  // must have been completed (with a forced flush)
  SUCCEED();
}

}  // namespace
}  // namespace skeena
