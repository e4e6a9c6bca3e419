#ifndef SKEENA_BENCHSUITE_OPEN_LOOP_H_
#define SKEENA_BENCHSUITE_OPEN_LOOP_H_

// Open-loop SKNA load generator: one thread drives every connection on a
// fixed schedule, whether or not earlier responses have arrived, so
// queueing delay shows in the latency instead of slowing the offered load.
//
// Responses are framed on the benchmark side over the raw socket with
// server::ExtractFrame and drained as soon as poll() reports them: a
// client-side read buffer can never strand a COMMIT_OK that arrived in the
// same recv() as an earlier response. Every transaction is timed from the
// moment it was DUE, not from when it was sent, so a stalled generator
// counts against the system instead of silently thinning the load; how
// late the generator ran is reported separately.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace skeena::benchsuite {

/// The tables the open loop uses, one per engine.
inline constexpr const char* kWireMemTable = "mem_t";
inline constexpr const char* kWireStorTable = "stor_t";

struct OpenLoopOptions {
  uint16_t port = 0;
  int connections = 4;
  int rate_per_conn = 400;  // txn/s offered on each connection
  double seconds = 20;      // measured, after kWarmupS of warm-up
  uint64_t seed = 1;
  bool trace = false;
  /// Each transaction is BEGIN + EXEC{GET+PUT kWireMemTable, GET+PUT
  /// kWireStorTable} + COMMIT on uniform keys in [0, key_space), all
  /// present.
  uint64_t key_space = 16384;
  size_t value_size = 64;
  /// Called on the generator thread just before the first measured send.
  std::function<void()> at_window_start;
};

struct OpenLoopResult {
  uint64_t t0_ns = 0, t1_ns = 0;  // measured window (due times)
  uint64_t last_reply_ns = 0;     // completion of the last measured txn
  uint64_t sent = 0;       // transactions due inside the measured window
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t failed = 0;     // error replies, wrong results, unanswered
  uint64_t unanswered = 0;
  std::vector<Sample> samples;       // due -> COMMIT_OK, committed txns
  std::vector<uint64_t> late_ns;     // due -> send start, every sent txn
  double traced_sum_ns = 0, untraced_sum_ns = 0;
  uint64_t traced_n = 0, untraced_n = 0;
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
  std::string error;          // connection/protocol failure; stops the run
  std::string first_failure;  // first error reply or wrong answer
};

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options);

/// The wire-cross workload: an in-process Server with 2 workers over a
/// populated database, driven by RunOpenLoop at 4 connections x 400 txn/s.
Report RunWireCross(const RunConfig& cfg);

}  // namespace skeena::benchsuite

#endif  // SKEENA_BENCHSUITE_OPEN_LOOP_H_
