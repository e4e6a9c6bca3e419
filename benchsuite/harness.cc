#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace skeena::benchsuite {

uint64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin)
          .count());
}

Rand Rand::Stream(uint64_t seed, uint64_t stream) {
  Rand base(seed);
  return Rand(base.Next() ^ ((stream + 1) * 0xd1b54a32d192ed03ull));
}

uint64_t Rand::Next() {
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

const char* SpanNameStr(SpanName name) {
  switch (name) {
    case SpanName::kTxn: return "txn";
    case SpanName::kBegin: return "core.begin";
    case SpanName::kMemGet: return "memdb.get";
    case SpanName::kMemPut: return "memdb.put";
    case SpanName::kMemDelete: return "memdb.delete";
    case SpanName::kMemScan: return "memdb.scan";
    case SpanName::kStorGet: return "stordb.get";
    case SpanName::kStorPut: return "stordb.put";
    case SpanName::kStorDelete: return "stordb.delete";
    case SpanName::kStorScan: return "stordb.scan";
    case SpanName::kCrossAccess: return "core.cross_access";
    case SpanName::kCommit: return "core.commit";
    case SpanName::kAbort: return "core.abort";
    case SpanName::kWireSend: return "wire.send";
    case SpanName::kWireBeginOk: return "wire.begin_ok";
    case SpanName::kWireExecOk: return "wire.exec_ok";
    case SpanName::kWireCommitOk: return "wire.commit_ok";
    case SpanName::kCount: break;
  }
  return "unknown";
}

// ---------------------------------------------------------------- TracedTxn

TracedTxn::TracedTxn(Database* db, const ClientCtx& ctx)
    : spans_(ctx.spans), txn_id_(ctx.txn_id) {
  if (spans_ == nullptr) {
    txn_ = db->Begin();
    return;
  }
  anchor_ = db->anchor_index();
  uint64_t start = NowNs();
  txn_ = db->Begin();
  spans_->Add(txn_id_, start, NowNs(), SpanName::kBegin);
}

Status TracedTxn::Commit() {
  if (spans_ == nullptr) return txn_->Commit();
  uint64_t start = NowNs();
  Status s = txn_->Commit();
  spans_->Add(txn_id_, start, NowNs(), SpanName::kCommit);
  return s;
}

void TracedTxn::Abort() {
  if (spans_ == nullptr) return txn_->Abort();
  uint64_t start = NowNs();
  txn_->Abort();
  spans_->Add(txn_id_, start, NowNs(), SpanName::kAbort);
}

// ------------------------------------------------------------------ counters

Counters ReadCounters(Database* db, const server::Server* server) {
  Counters c;
  c.csr = db->csr().stats();
  c.csr_entries = db->csr().EntryCount();
  c.pipeline = db->pipeline().stats();
  for (int e = 0; e < kNumEngines; ++e) {
    if (LogManager* log = db->engine(e)->Log()) {
      c.log[static_cast<int>(db->engine(e)->kind())] = log->stats();
    }
  }
  c.mem = db->mem()->engine()->stats();
  c.stor = db->stor()->engine()->stats();
  stordb::BufferPool* pool = db->stor()->engine()->pool();
  c.pool_hits = pool->hits();
  c.pool_misses = pool->misses();
  c.pool_flush_waits = pool->flush_waits();
  c.pool_write_backs = pool->write_backs();
  c.lot = ParkingLot::stats();
  if (server != nullptr) c.server = server->stats();
  return c;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void AddCounterMetrics(const Counters& a, const Counters& b,
                       uint64_t attempted, Report* r) {
  const double txns = static_cast<double>(attempted);
  auto per_txn = [&](uint64_t hi, uint64_t lo) {
    return Ratio(static_cast<double>(hi - lo), txns);
  };
  auto per_ktxn = [&](uint64_t hi, uint64_t lo) {
    return 1000.0 * per_txn(hi, lo);
  };

  r->Add("core.csr.accesses_per_txn", per_txn(b.csr.accesses, a.csr.accesses),
         "1/txn");
  r->Add("core.csr.select_aborts_per_ktxn",
         per_ktxn(b.csr.select_aborts, a.csr.select_aborts), "1/ktxn");
  r->Add("core.csr.commit_aborts_per_ktxn",
         per_ktxn(b.csr.commit_aborts, a.csr.commit_aborts), "1/ktxn");
  r->Add("core.csr.sealed_aborts_per_ktxn",
         per_ktxn(b.csr.sealed_aborts, a.csr.sealed_aborts), "1/ktxn");
  r->Add("core.csr.mappings_end", static_cast<double>(b.csr_entries),
         "count");
  r->Add("core.csr.partitions_recycled",
         static_cast<double>(b.csr.partitions_recycled -
                             a.csr.partitions_recycled),
         "count");

  const CommitPipeline::Stats& pa = a.pipeline;
  const CommitPipeline::Stats& pb = b.pipeline;
  const double completed = static_cast<double>(pb.completed - pa.completed);
  const double inlined =
      static_cast<double>(pb.completed_inline - pa.completed_inline);
  const double parks = static_cast<double>(pb.waiter_parks - pa.waiter_parks);
  const double spins = static_cast<double>(pb.waiter_spin_successes -
                                           pa.waiter_spin_successes);
  r->Add("core.pipeline.commits_per_drain",
         Ratio(completed - inlined,
               static_cast<double>(pb.drain_batches - pa.drain_batches)),
         "count");
  r->Add("core.pipeline.inline_ratio", Ratio(inlined, completed), "ratio");
  r->Add("core.pipeline.wake_syscalls_per_commit",
         Ratio(static_cast<double>(pb.wake_syscalls - pa.wake_syscalls),
               completed),
         "1/commit");
  r->Add("core.pipeline.park_ratio", Ratio(parks, parks + spins), "ratio");
  r->Add("core.pipeline.daemon_wakes_per_commit",
         Ratio(static_cast<double>(pb.daemon_wakes - pa.daemon_wakes),
               completed),
         "1/commit");

  for (EngineKind kind : {EngineKind::kMem, EngineKind::kStor}) {
    const std::string p =
        kind == EngineKind::kMem ? "log.mem." : "log.stor.";
    const LogManager::Stats& la = a.log[static_cast<int>(kind)];
    const LogManager::Stats& lb = b.log[static_cast<int>(kind)];
    const double flushes = static_cast<double>(lb.flushes - la.flushes);
    r->Add(p + "flushes_per_ktxn", per_ktxn(lb.flushes, la.flushes),
           "1/ktxn");
    r->Add(p + "bytes_per_txn", per_txn(lb.append_bytes, la.append_bytes),
           "B/txn");
    r->Add(p + "batch_bytes.mean",
           Ratio(static_cast<double>(lb.flushed_bytes - la.flushed_bytes),
                 flushes),
           "B");
    r->Add(p + "flush_gap_us.mean",
           Ratio(static_cast<double>(lb.flush_gap_ns_total -
                                     la.flush_gap_ns_total) /
                     1e3,
                 flushes),
           "us");
    r->Add(p + "window_us.end", static_cast<double>(lb.window_us), "us");
    r->Add(p + "space_waits",
           static_cast<double>(lb.space_waits - la.space_waits), "count");
  }

  r->Add("memdb.aborts_per_ktxn", per_ktxn(b.mem.aborts, a.mem.aborts),
         "1/ktxn");
  r->Add("memdb.versions_pruned_per_ktxn",
         per_ktxn(b.mem.versions_pruned, a.mem.versions_pruned), "1/ktxn");

  const double fetches = static_cast<double>(
      (b.pool_hits - a.pool_hits) + (b.pool_misses - a.pool_misses));
  r->Add("stordb.aborts_per_ktxn", per_ktxn(b.stor.aborts, a.stor.aborts),
         "1/ktxn");
  r->Add("stordb.undo_purged_per_ktxn",
         per_ktxn(b.stor.undo_purged, a.stor.undo_purged), "1/ktxn");
  r->Add("stordb.pool_hit_ratio",
         fetches == 0 ? 1.0
                      : static_cast<double>(b.pool_hits - a.pool_hits) /
                            fetches,
         "ratio");
  r->Add("stordb.pool_misses_per_txn", per_txn(b.pool_misses, a.pool_misses),
         "1/txn");
  r->Add("stordb.pool_flush_waits_per_kfetch",
         1000.0 * Ratio(static_cast<double>(b.pool_flush_waits -
                                            a.pool_flush_waits),
                        fetches),
         "1/kfetch");
  r->Add("stordb.pool_write_backs_per_ktxn",
         per_ktxn(b.pool_write_backs, a.pool_write_backs), "1/ktxn");

  r->Add("server.frames_in_per_txn",
         per_txn(b.server.frames_in, a.server.frames_in), "1/txn");
  r->Add("server.protocol_errors",
         static_cast<double>(b.server.protocol_errors -
                             a.server.protocol_errors),
         "count");
  r->Add("server.txns_aborted_on_disconnect",
         static_cast<double>(b.server.txns_aborted_on_disconnect -
                             a.server.txns_aborted_on_disconnect),
         "count");

  r->Add("common.parking_lot.parks_per_txn", per_txn(b.lot.parks, a.lot.parks),
         "1/txn");
  r->Add("common.parking_lot.wakes_per_txn", per_txn(b.lot.wakes, a.lot.wakes),
         "1/txn");
}

// --------------------------------------------------------------------- spans

void AddSpanMetrics(const std::vector<Span>& spans, Report* r) {
  std::vector<uint64_t> by_name[static_cast<int>(SpanName::kCount)];
  std::unordered_map<uint64_t, uint64_t> root_start;  // txn -> due/start
  double txn_total = 0, commit_total = 0;
  for (const Span& s : spans) {
    uint64_t dur = s.end_ns - s.start_ns;
    by_name[static_cast<int>(s.name)].push_back(dur);
    if (s.name == SpanName::kTxn) {
      root_start[s.txn] = s.start_ns;
      txn_total += static_cast<double>(dur);
    } else if (s.name == SpanName::kCommit) {
      commit_total += static_cast<double>(dur);
    }
  }
  auto us = [&](SpanName n, double p) {
    return Percentile(by_name[static_cast<int>(n)], p) / 1e3;
  };

  r->Add("core.begin_us.p50", us(SpanName::kBegin, 50), "us");
  r->Add("core.commit_us.p50", us(SpanName::kCommit, 50), "us");
  r->Add("core.commit_us.p99", us(SpanName::kCommit, 99), "us");
  r->Add("core.commit_share", Ratio(commit_total, txn_total), "ratio");
  r->Add("core.cross_access_us.p50", us(SpanName::kCrossAccess, 50), "us");
  r->Add("core.cross_access_us.p99", us(SpanName::kCrossAccess, 99), "us");
  r->Add("memdb.get_us.p50", us(SpanName::kMemGet, 50), "us");
  r->Add("memdb.get_us.p99", us(SpanName::kMemGet, 99), "us");
  r->Add("memdb.put_us.p50", us(SpanName::kMemPut, 50), "us");
  r->Add("memdb.put_us.p99", us(SpanName::kMemPut, 99), "us");
  r->Add("stordb.get_us.p50", us(SpanName::kStorGet, 50), "us");
  r->Add("stordb.get_us.p99", us(SpanName::kStorGet, 99), "us");
  r->Add("stordb.put_us.p50", us(SpanName::kStorPut, 50), "us");
  r->Add("stordb.put_us.p99", us(SpanName::kStorPut, 99), "us");
  r->Add("stordb.scan_us.p50", us(SpanName::kStorScan, 50), "us");
  r->Add("stordb.scan_us.p99", us(SpanName::kStorScan, 99), "us");

  // Wire responses are reported from the transaction's due time (the root
  // span's start), so they include generator lateness and queueing.
  for (auto [name, metric] :
       {std::pair{SpanName::kWireBeginOk, "wire.begin_ok_ms"},
        std::pair{SpanName::kWireExecOk, "wire.exec_ok_ms"},
        std::pair{SpanName::kWireCommitOk, "wire.commit_ok_ms"}}) {
    std::vector<uint64_t> since_due;
    for (const Span& s : spans) {
      if (s.name != name) continue;
      auto it = root_start.find(s.txn);
      if (it != root_start.end()) since_due.push_back(s.end_ns - it->second);
    }
    r->Add(std::string(metric) + ".p50", Percentile(since_due, 50) / 1e6,
           "ms");
    r->Add(std::string(metric) + ".p99", Percentile(since_due, 99) / 1e6,
           "ms");
  }
  r->Add("client.send_us.p50", us(SpanName::kWireSend, 50), "us");
}

namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace

SliceMedians MedianOverSlices(const std::vector<Sample>& samples,
                              const std::vector<Segment>& segments) {
  struct Slice {
    uint64_t t0, t1;
    std::vector<uint64_t> latencies;
  };
  std::vector<Slice> slices;
  std::vector<double> tps, p50, p99, commit_ratio;
  for (const Segment& seg : segments) {
    if (seg.t1_ns <= seg.t0_ns) continue;
    const uint64_t len = seg.t1_ns - seg.t0_ns;
    const uint64_t n = std::max<uint64_t>(1, len / 1'000'000'000ull);
    for (uint64_t i = 0; i < n; ++i) {
      slices.push_back({seg.t0_ns + i * (len / n),
                        seg.t0_ns + (i + 1) * (len / n), {}});
    }
    commit_ratio.push_back(Ratio(static_cast<double>(seg.committed),
                                 static_cast<double>(seg.attempted)));
  }
  for (const Sample& s : samples) {
    // Slices are in time order.
    auto it = std::upper_bound(
        slices.begin(), slices.end(), s.end_ns,
        [](uint64_t t, const Slice& sl) { return t < sl.t1; });
    if (it != slices.end() && s.end_ns >= it->t0) {
      it->latencies.push_back(s.latency_ns);
    }
  }
  for (Slice& sl : slices) {
    tps.push_back(static_cast<double>(sl.latencies.size()) /
                  (static_cast<double>(sl.t1 - sl.t0) / 1e9));
    if (sl.latencies.empty()) continue;
    p50.push_back(Percentile(sl.latencies, 50) / 1e6);
    p99.push_back(Percentile(sl.latencies, 99) / 1e6);
  }
  return {Median(tps), Median(p50), Median(p99), Median(commit_ratio)};
}

bool WindowAtCeiling(Database* db) {
  const uint64_t ceiling = LogManager::Options().max_flush_interval_us;
  for (int e = 0; e < kNumEngines; ++e) {
    LogManager* log = db->engine(e)->Log();
    if (log != nullptr && log->stats().window_us >= ceiling) return true;
  }
  return false;
}

void AddTraceOverhead(double traced_sum_ns, uint64_t traced_n,
                      double untraced_sum_ns, uint64_t untraced_n, Report* r) {
  double traced = Ratio(traced_sum_ns, static_cast<double>(traced_n));
  double untraced = Ratio(untraced_sum_ns, static_cast<double>(untraced_n));
  r->Add("trace.overhead_pct",
         untraced == 0 ? 0 : 100.0 * (traced - untraced) / untraced, "%");
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool root = s.name == SpanName::kTxn;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"txn\":%llu,"
                 "\"parent\":\"%s\"}}%s\n",
                 SpanNameStr(s.name),
                 static_cast<unsigned long long>(s.txn >> 48),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.txn), root ? "" : "txn",
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void AddHostSteal(const CpuTicks& a, const CpuTicks& b, Report* r) {
  r->Add("host.steal_pct",
         100.0 * Ratio(static_cast<double>(b.steal - a.steal),
                       static_cast<double>(b.total - a.total)),
         "%");
}

void SpinAllCpus() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t until = NowNs() + static_cast<uint64_t>(kSpinS * 1e9);
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < cpus; ++i) {
    spinners.emplace_back([until] {
      while (NowNs() < until) {
      }
    });
  }
  for (auto& t : spinners) t.join();
}

double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// --------------------------------------------------------------- closed loop

Report RunClosedWorkload(const RunConfig& cfg, int clients,
                         const WorkloadBuilder& build) {
  Report r;
  SpinAllCpus();
  std::unique_ptr<ClosedWorkload> w;
  const SetupCost setup =
      TimeSetups<ClosedWorkload>([&] { return build(cfg.seed); }, &w);
  Database* db = w->db();

  struct ClientResult {
    // Per segment.
    uint64_t committed[kSegments] = {}, aborted[kSegments] = {};
    uint64_t failed = 0;
    std::vector<Sample> samples;  // committed, measured segments
    double traced_sum = 0, untraced_sum = 0;
    uint64_t traced_n = 0, untraced_n = 0;
    std::unique_ptr<SpanBuffer> spans;
    std::string first_error;
  };
  std::vector<ClientResult> results(static_cast<size_t>(clients));
  // kWarmup, then kPaused and kMeasuring alternate once per segment.
  enum Phase { kWarmup, kMeasuring, kPaused, kStop };
  std::atomic<int> phase{kWarmup};
  std::atomic<int> segment{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    ClientResult& res = results[static_cast<size_t>(c)];
    res.samples.reserve(1 << 20);
    if (cfg.trace) res.spans = std::make_unique<SpanBuffer>(1 << 20);
    threads.emplace_back([&, c] {
      ClientCtx ctx;
      ctx.client = c;
      ctx.rng = Rand::Stream(cfg.seed, static_cast<uint64_t>(c) + 1);
      for (uint64_t seq = 0;; ++seq) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) break;
        if (ph == kPaused) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const int seg = segment.load(std::memory_order_acquire);
        const bool sampled =
            ph == kMeasuring && cfg.trace && seq % kTraceEvery == 0;
        ctx.txn_id = (static_cast<uint64_t>(c) << 48) | seq;
        ctx.spans = sampled ? res.spans.get() : nullptr;
        const uint64_t start = NowNs();
        Status s = w->RunTxn(ctx);
        const uint64_t end = NowNs();
        // Only transactions that ran entirely inside one segment count.
        if (ph != kMeasuring ||
            phase.load(std::memory_order_acquire) != kMeasuring ||
            segment.load(std::memory_order_acquire) != seg) {
          continue;
        }
        if (sampled) res.spans->Add(ctx.txn_id, start, end, SpanName::kTxn);
        if (s.ok()) {
          ++res.committed[seg];
          res.samples.push_back({end, end - start});
          if (sampled) {
            res.traced_sum += static_cast<double>(end - start);
            ++res.traced_n;
          } else {
            res.untraced_sum += static_cast<double>(end - start);
            ++res.untraced_n;
          }
        } else if (s.IsAnyAbort() || s.code() == StatusCode::kBusy) {
          ++res.aborted[seg];
        } else {
          if (res.failed++ == 0) res.first_error = s.ToString();
        }
      }
    });
  }

  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<uint64_t>(s * 1e9)));
  };
  sleep_s(kWarmupS);
  const Counters before = ReadCounters(db, nullptr);
  const CpuTicks cpu_before = ReadCpuTicks();
  std::vector<Segment> segments;
  int ceiling_segments = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    phase.store(kPaused, std::memory_order_release);
    sleep_s(kPauseS);
    segment.store(seg, std::memory_order_release);
    const uint64_t t0 = NowNs();
    phase.store(kMeasuring, std::memory_order_release);
    sleep_s(cfg.seconds / kSegments);
    phase.store(kPaused, std::memory_order_release);
    segments.push_back({t0, NowNs(), 0, 0});
    ceiling_segments += WindowAtCeiling(db) ? 1 : 0;
  }
  const CpuTicks cpu_after = ReadCpuTicks();
  phase.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();
  const Counters after = ReadCounters(db, nullptr);

  uint64_t committed = 0, aborted = 0, failed = 0;
  uint64_t traced_n = 0, untraced_n = 0;
  double traced_sum = 0, untraced_sum = 0;
  std::vector<Sample> samples;
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
  std::string first_error;
  for (ClientResult& res : results) {
    for (int seg = 0; seg < kSegments; ++seg) {
      committed += res.committed[seg];
      aborted += res.aborted[seg];
      segments[seg].committed += res.committed[seg];
      segments[seg].attempted += res.committed[seg] + res.aborted[seg];
    }
    failed += res.failed;
    traced_sum += res.traced_sum;
    untraced_sum += res.untraced_sum;
    traced_n += res.traced_n;
    untraced_n += res.untraced_n;
    samples.insert(samples.end(), res.samples.begin(), res.samples.end());
    if (res.spans) {
      spans.insert(spans.end(), res.spans->spans().begin(),
                   res.spans->spans().end());
      spans_dropped += res.spans->dropped();
    }
    if (first_error.empty()) first_error = res.first_error;
  }
  const uint64_t attempted = committed + aborted + failed;
  r.attempted = attempted;
  r.failed = failed;

  const SliceMedians m = MedianOverSlices(samples, segments);
  r.Add("p99_ms", m.p99_ms, "ms");
  if (!cfg.trace) {
    r.Add("tps", m.tps, "1/s");
    r.Add("p50_ms", m.p50_ms, "ms");
    r.Add("commit_ratio", m.commit_ratio, "ratio");
    r.Add("setup_s", setup.seconds, "s");
    r.Add("latency_samples", static_cast<double>(samples.size()), "count");
  }
  r.Add("setup_heap_mb", setup.heap_mb, "MB");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.Add("abort_ratio",
        Ratio(static_cast<double>(aborted), static_cast<double>(attempted)),
        "ratio");
  AddCounterMetrics(before, after, attempted, &r);
  r.Add("log.ceiling_segments", ceiling_segments, "count");
  AddHostSteal(cpu_before, cpu_after, &r);
  if (cfg.trace) {
    AddSpanMetrics(spans, &r);
    // Open-loop generator health does not apply to a closed loop.
    r.Add("gen.late_ms.p99", 0, "ms");
    r.Add("gen.late_ms.max", 0, "ms");
    r.Add("gen.unanswered", 0, "count");
    AddTraceOverhead(traced_sum, traced_n, untraced_sum, untraced_n, &r);
    r.Check("trace_buffers_held_every_span", spans_dropped == 0,
            std::to_string(spans_dropped) + " dropped");
    const std::string path =
        cfg.trace_dir + "/trace_" + cfg.workload + ".json";
    r.Check("trace_written", WriteTrace(path, spans), path);
  }

  r.Check("committed_some", committed > 0);
  r.Check("no_failed_ops", failed == 0, first_error);
  r.Check("no_active_txns_at_end", db->active_transactions() == 0,
          std::to_string(db->active_transactions()));
  w->Check(&r);
  return r;
}

}  // namespace skeena::benchsuite
