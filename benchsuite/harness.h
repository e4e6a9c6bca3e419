#ifndef SKEENA_BENCHSUITE_HARNESS_H_
#define SKEENA_BENCHSUITE_HARNESS_H_

// Shared machinery of the benchmark suite: the seeded input generator,
// exact-sample percentiles, trace spans, the TracedTxn pass-through, the
// closed-loop client loop and the per-layer counter snapshots.
//
// The suite measures the system only from outside: it times calls into
// public functions and reads public stats() structs before and after the
// measured window.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parking_lot.h"
#include "core/skeena.h"
#include "server/server.h"

namespace skeena::benchsuite {

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds since an arbitrary process-wide origin.
uint64_t NowNs();

/// Seeded input generator (SplitMix64). Owned by the benchmark so that the
/// inputs a seed produces cannot change when the system's own helpers do.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}
  /// Independent stream `stream` of the generator seeded with `seed`.
  static Rand Stream(uint64_t seed, uint64_t stream);

  uint64_t Next();
  /// Uniform in [0, n); 0 when n == 0.
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Uniform(hi - lo + 1); }
  /// TPC-C NURand (clause 2.1.6).
  uint64_t NURand(uint64_t a, uint64_t x, uint64_t y, uint64_t c) {
    return (((Range(0, a) | Range(x, y)) + c) % (y - x + 1)) + x;
  }

 private:
  uint64_t state_;
};

/// The p-th percentile (0..100, nearest rank) of `v`; sorts `v`. 0 when
/// empty.
double Percentile(std::vector<uint64_t>& v, double p);

// ------------------------------------------------------------------ spans

/// Span names: one per public call the suite wraps. A transaction is the
/// root span kTxn; every other span is its child.
enum class SpanName : uint8_t {
  kTxn,
  kBegin,          // Database::Begin
  kMemGet,
  kMemPut,
  kMemDelete,
  kMemScan,
  kStorGet,
  kStorPut,
  kStorDelete,
  kStorScan,
  kCrossAccess,    // first call into the non-anchor engine (CSR select + op)
  kCommit,         // Transaction::Commit
  kAbort,          // Transaction::Abort
  kWireSend,       // one send() of BEGIN+EXEC+COMMIT
  kWireBeginOk,    // send end -> BEGIN_OK arrival
  kWireExecOk,     // BEGIN_OK -> EXEC_OK arrival
  kWireCommitOk,   // EXEC_OK -> COMMIT_OK arrival
  kCount,
};
const char* SpanNameStr(SpanName name);

struct Span {
  uint64_t txn;  // (client << 48) | per-client sequence number
  uint64_t start_ns;
  uint64_t end_ns;
  SpanName name;
};

/// Preallocated per-client span buffer; spans past capacity are counted and
/// dropped so recording never allocates inside the measured window.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }
  void Add(uint64_t txn, uint64_t start_ns, uint64_t end_ns, SpanName name) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back({txn, start_ns, end_ns, name});
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// What one client sees of the transaction it is running.
struct ClientCtx {
  int client = 0;
  Rand rng{0};
  /// Null unless this transaction is sampled for tracing.
  SpanBuffer* spans = nullptr;
  uint64_t txn_id = 0;
};

/// Pass-through over Transaction. With tracing off (ctx.spans == null)
/// every call costs one branch; with tracing on each call becomes a child
/// span of the transaction.
class TracedTxn {
 public:
  TracedTxn(Database* db, const ClientCtx& ctx);

  Status Get(const TableHandle& t, const Key& key, std::string* value) {
    if (spans_ == nullptr) return txn_->Get(t, key, value);
    return Traced(t, SpanName::kMemGet, SpanName::kStorGet,
                  [&] { return txn_->Get(t, key, value); });
  }
  Status Put(const TableHandle& t, const Key& key, std::string_view value) {
    if (spans_ == nullptr) return txn_->Put(t, key, value);
    return Traced(t, SpanName::kMemPut, SpanName::kStorPut,
                  [&] { return txn_->Put(t, key, value); });
  }
  Status Delete(const TableHandle& t, const Key& key) {
    if (spans_ == nullptr) return txn_->Delete(t, key);
    return Traced(t, SpanName::kMemDelete, SpanName::kStorDelete,
                  [&] { return txn_->Delete(t, key); });
  }
  Status Scan(const TableHandle& t, const Key& lower, size_t limit,
              const std::function<bool(const Key&, const std::string&)>& cb) {
    if (spans_ == nullptr) return txn_->Scan(t, lower, limit, cb);
    return Traced(t, SpanName::kMemScan, SpanName::kStorScan,
                  [&] { return txn_->Scan(t, lower, limit, cb); });
  }
  Status Commit();
  void Abort();

 private:
  template <typename Fn>
  Status Traced(const TableHandle& t, SpanName mem, SpanName stor, Fn&& fn) {
    SpanName name = t.home == EngineKind::kMem ? mem : stor;
    if (t.engine_index != anchor_ && !entered_other_) {
      entered_other_ = true;
      name = SpanName::kCrossAccess;
    }
    uint64_t start = NowNs();
    Status s = fn();
    spans_->Add(txn_id_, start, NowNs(), name);
    return s;
  }

  SpanBuffer* spans_;
  uint64_t txn_id_;
  int anchor_ = 0;
  bool entered_other_ = false;
  std::unique_ptr<Transaction> txn_;
};

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct CheckResult {
  std::string name;
  bool ok;
  std::string detail;
};

/// What one benchmark run reports: metrics, validity checks and the
/// attempted/failed operation counts.
struct Report {
  std::vector<Metric> metrics;
  std::vector<CheckResult> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a validity check; a false `ok` fails the run.
  void Check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool correct() const {
    for (const CheckResult& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

/// Counters read from the public stats() structs at one instant.
struct Counters {
  SnapshotRegistry::Stats csr;
  size_t csr_entries = 0;
  CommitPipeline::Stats pipeline;
  LogManager::Stats log[kNumEngines];
  memdb::MemEngine::Stats mem;
  stordb::StorEngine::Stats stor;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_flush_waits = 0;
  uint64_t pool_write_backs = 0;
  ParkingLot::Stats lot;
  server::Server::Stats server;
};
/// `server` may be null (in-process workloads).
Counters ReadCounters(Database* db, const server::Server* server);

/// Adds every counter-derived per-layer metric for the window [a, b].
/// Rates are per attempted transaction ("per_ktxn" = per 1000 attempted).
void AddCounterMetrics(const Counters& a, const Counters& b,
                       uint64_t attempted, Report* r);

/// Adds the span-derived per-layer metrics (percentiles of each layer's
/// self time; every non-root span is a leaf, so its self time is its
/// duration).
void AddSpanMetrics(const std::vector<Span>& spans, Report* r);

/// Writes spans as a Chrome trace-event JSON array (chrome://tracing,
/// Perfetto). Returns false on I/O failure.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

/// VmHWM of this process, in MiB.
double PeakRssMb();

/// The host's CPU time counters (/proc/stat, all CPUs), in clock ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Adds host.steal_pct: the share of the window's CPU time the hypervisor
/// gave to other guests. Runs with a high share are slow for reasons
/// outside the program.
void AddHostSteal(const CpuTicks& a, const CpuTicks& b, Report* r);

/// Busy-spins one thread per online CPU for kSpinS, before a run's set-up.
/// On a 4-vCPU VM the speed of a run depended on what the machine ran in
/// the seconds before the run started, and the effect lasted the whole
/// run: micro-mem-single made 24.5k tps after an idle machine or a light
/// run and 28-31k after a busy one, and wire-cross's p50 moved the other
/// way (0.21 vs 0.27 ms). Starting every run from the same busy state
/// takes the previous run's workload out of the result.
constexpr double kSpinS = 3;
void SpinAllCpus();

// ------------------------------------------------------------ closed loop

/// Untimed warm-up before every measured window, in seconds.
constexpr double kWarmupS = 2;
/// A closed loop's measured window is cut into kSegments equal segments,
/// each preceded by kPauseS with every client idle. The logs' adaptive
/// group-commit window can lock onto its ceiling under a 4-client closed
/// loop and, with clients always busy, never collapse; an idle log
/// collapses it (after 5 ms). The pauses give every segment the same start,
/// so a run whose window got stuck in one or two segments still reports
/// the medians of the others; log.ceiling_segments counts the stuck ones.
constexpr int kSegments = 5;
constexpr double kPauseS = 0.05;
/// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetups = 11;
/// A traced run traces 1 in kTraceEvery transactions of each client.
constexpr uint64_t kTraceEvery = 8;

/// Settings shared by every workload run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Where the traced run writes trace_<workload>.json.
  std::string trace_dir = ".";
};

/// A populated in-process workload driven by the closed loop.
class ClosedWorkload {
 public:
  virtual ~ClosedWorkload() = default;
  virtual Database* db() = 0;
  /// One transaction attempt.
  virtual Status RunTxn(ClientCtx& ctx) = 0;
  /// Validity checks after the run (workload-specific).
  virtual void Check(Report* r) = 0;
};

/// Spins the CPUs (SpinAllCpus), builds the workload kSetups times
/// (setup_s = median build time), runs `clients` closed-loop clients for
/// warm-up + measured window against the last build, and fills the report:
/// end-to-end metrics untraced, per-layer metrics traced, validity checks
/// always.
using WorkloadBuilder =
    std::function<std::unique_ptr<ClosedWorkload>(uint64_t seed)>;
Report RunClosedWorkload(const RunConfig& cfg, int clients,
                         const WorkloadBuilder& build);

/// Bytes the process holds from malloc (in use plus mmapped), in MiB.
/// Unlike the resident set it does not count memory the allocator kept
/// after a free, which made RSS after a set-up move by 4 MiB between runs.
double HeapInUseMb();

struct SetupCost {
  double seconds;  // median wall time of one set-up
  double heap_mb;  // smallest HeapInUseMb() right after a set-up
};

/// Calls `build` kSetups times, tearing each product down before the next
/// build; `keep` receives the last one. The heap is the minimum over the
/// set-ups because the capacity the in-memory log devices have grown to
/// depends on how flushes batched, which added up to 4 MiB to some
/// set-ups of the micro.
template <typename T>
SetupCost TimeSetups(const std::function<std::unique_ptr<T>()>& build,
                     std::unique_ptr<T>* keep) {
  std::vector<uint64_t> ns, heap_kb;
  for (int i = 0; i < kSetups; ++i) {
    keep->reset();  // outside the timing
    uint64_t t0 = NowNs();
    *keep = build();
    ns.push_back(NowNs() - t0);
    heap_kb.push_back(static_cast<uint64_t>(HeapInUseMb() * 1024));
  }
  return {Percentile(ns, 50) / 1e9, Percentile(heap_kb, 0) / 1024};
}

/// One committed transaction: when it completed and how long it took.
struct Sample {
  uint64_t end_ns;
  uint64_t latency_ns;
};

/// One measured stretch of a run and the transactions that ran inside it.
struct Segment {
  uint64_t t0_ns, t1_ns;
  uint64_t committed, attempted;
};

/// Throughput and latency of the segments, each cut into 1 s slices by
/// completion time: each value is the median over all slices of its
/// per-slice value, so a disturbance of a second or two moves one slice
/// instead of the whole run. commit_ratio is the median over segments.
struct SliceMedians {
  double tps;
  double p50_ms;
  double p99_ms;
  double commit_ratio;
};
SliceMedians MedianOverSlices(const std::vector<Sample>& samples,
                              const std::vector<Segment>& segments);

/// Whether either log's group-commit window sits at its ceiling now.
bool WindowAtCeiling(Database* db);

/// Adds trace.overhead_pct from the mean latency of sampled (traced) and
/// unsampled transactions of one traced run.
void AddTraceOverhead(double traced_sum_ns, uint64_t traced_n,
                      double untraced_sum_ns, uint64_t untraced_n, Report* r);

}  // namespace skeena::benchsuite

#endif  // SKEENA_BENCHSUITE_HARNESS_H_
