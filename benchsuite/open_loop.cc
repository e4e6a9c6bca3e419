#include "open_loop.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>

#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace skeena::benchsuite {
namespace {

using server::Err;
using server::Frame;
using server::Op;
using server::Stmt;
using server::StmtResult;

struct InFlight {
  uint64_t id = 0;   // span transaction id
  uint64_t rid = 0;  // BEGIN's request id; EXEC = rid + 1, COMMIT = rid + 2
  int stage = 0;     // index of the next expected response
  uint64_t due = 0, send_start = 0, send_end = 0, begin_at = 0, exec_at = 0;
  bool measured = false;
  bool sampled = false;
  bool aborted = false;
  bool failed = false;
};

struct Conn {
  server::Client client;
  uint32_t mem_tok = 0;
  uint32_t stor_tok = 0;
  std::string in;
  std::deque<InFlight> inflight;
  // Request ids above everything the client's sync API has used.
  uint64_t next_rid = uint64_t{1} << 32;
  uint64_t issued = 0;
  uint64_t first_due = 0;
  Rand rng{0};
};

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

class Generator {
 public:
  explicit Generator(const OpenLoopOptions& o) : o_(o) {}

  OpenLoopResult Run() {
    if (o_.trace) spans_ = std::make_unique<SpanBuffer>(1 << 20);
    Rand vrng = Rand::Stream(o_.seed, 99);
    for (size_t i = 0; i < o_.value_size; ++i) {
      value_.push_back(static_cast<char>('a' + vrng.Uniform(26)));
    }
    for (int c = 0; c < o_.connections; ++c) {
      auto conn = std::make_unique<Conn>();
      Status s = conn->client.Connect("127.0.0.1", o_.port);
      auto mem = s.ok() ? conn->client.OpenTable(kWireMemTable)
                        : Result<uint32_t>(s);
      auto stor = s.ok() ? conn->client.OpenTable(kWireStorTable)
                         : Result<uint32_t>(s);
      if (!mem.ok() || !stor.ok()) {
        res_.error = "connect: " + (mem.ok() ? stor : mem).status().ToString();
        return std::move(res_);
      }
      conn->mem_tok = *mem;
      conn->stor_tok = *stor;
      conn->rng = Rand::Stream(o_.seed, 100 + static_cast<uint64_t>(c));
      conns_.push_back(std::move(conn));
    }

    const uint64_t period = 1'000'000'000ull / static_cast<uint64_t>(o_.rate_per_conn);
    const uint64_t start = NowNs() + 10'000'000;
    t0_ = start + static_cast<uint64_t>(kWarmupS * 1e9);
    const uint64_t t1 = t0_ + static_cast<uint64_t>(o_.seconds * 1e9);
    const size_t expected =
        static_cast<size_t>(o_.seconds * o_.rate_per_conn * o_.connections);
    res_.late_ns.reserve(expected);
    res_.samples.reserve(expected);
    // Connections are staggered evenly across one period.
    for (size_t c = 0; c < conns_.size(); ++c) {
      conns_[c]->first_due = start + c * period / conns_.size();
    }

    while (res_.error.empty()) {
      uint64_t now = NowNs();
      uint64_t next_due = ~uint64_t{0};
      for (size_t c = 0; c < conns_.size() && res_.error.empty(); ++c) {
        Conn& conn = *conns_[c];
        for (;;) {
          const uint64_t due = conn.first_due + conn.issued * period;
          if (due >= t1) break;
          if (due > now) {
            next_due = std::min(next_due, due);
            break;
          }
          if (!Send(conn, c, due)) break;
          now = NowNs();
        }
      }
      if (next_due == ~uint64_t{0}) break;  // schedule finished
      PollAndRead(next_due > now ? next_due - now : 0);
    }

    // Collect the tail: every measured transaction must be answered.
    const uint64_t give_up = NowNs() + 10'000'000'000ull;
    while (res_.error.empty() && Pending() && NowNs() < give_up) {
      PollAndRead(100'000'000);
    }
    for (auto& conn : conns_) {
      for (const InFlight& f : conn->inflight) {
        if (f.measured) ++res_.unanswered;
      }
    }
    res_.failed += res_.unanswered;
    if (spans_) {
      res_.spans = spans_->spans();
      res_.spans_dropped = spans_->dropped();
    }
    res_.t0_ns = t0_;
    res_.t1_ns = t1;
    return std::move(res_);
  }

 private:
  bool Pending() const {
    for (const auto& conn : conns_) {
      if (!conn->inflight.empty()) return true;
    }
    return false;
  }

  void Fail(std::string what) {
    if (res_.error.empty()) res_.error = std::move(what);
  }

  // A wrong or failed reply: counted against the transaction, the run
  // goes on.
  void MarkFailed(InFlight& f, std::string what) {
    f.failed = true;
    if (res_.first_failure.empty()) res_.first_failure = std::move(what);
  }

  bool Send(Conn& conn, size_t c, uint64_t due) {
    if (!window_started_ && due >= t0_) {
      window_started_ = true;
      if (o_.at_window_start) o_.at_window_start();
    }
    InFlight f;
    f.id = (static_cast<uint64_t>(c) << 48) | conn.issued;
    f.rid = conn.next_rid;
    conn.next_rid += 3;
    f.due = due;
    f.measured = due >= t0_;
    f.sampled = o_.trace && f.measured && conn.issued % kTraceEvery == 0;
    const Key k1 = MakeKey(conn.rng.Uniform(o_.key_space));
    const Key k2 = MakeKey(conn.rng.Uniform(o_.key_space));
    // BEGIN + EXEC + COMMIT pipelined in one write.
    const std::string frames =
        server::EncodeBegin(f.rid, IsolationLevel::kSnapshot) +
        server::EncodeExec(f.rid + 1, {Stmt::Get(conn.mem_tok, k1),
                                       Stmt::Put(conn.mem_tok, k1, value_),
                                       Stmt::Get(conn.stor_tok, k2),
                                       Stmt::Put(conn.stor_tok, k2, value_)}) +
        server::EncodeCommit(f.rid + 2);
    f.send_start = NowNs();
    const bool ok = SendAll(conn.client.fd(), frames);
    f.send_end = NowNs();
    ++conn.issued;
    if (f.measured) {
      ++res_.sent;
      res_.late_ns.push_back(f.send_start - due);
    }
    conn.inflight.push_back(f);
    if (!ok) Fail(std::string("send: ") + std::strerror(errno));
    return ok;
  }

  void PollAndRead(uint64_t timeout_ns) {
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) {
      fds.push_back({conn->client.fd(), POLLIN, 0});
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
                static_cast<long>(timeout_ns % 1'000'000'000ull)};
    int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n < 0 && errno != EINTR) Fail(std::string("ppoll: ") + std::strerror(errno));
    if (n <= 0) return;
    for (size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents != 0) Read(*conns_[c]);
    }
  }

  // Drains the socket; every frame is stamped with the time of the recv()
  // that completed it.
  void Read(Conn& conn) {
    char buf[65536];
    for (;;) {
      ssize_t n = ::recv(conn.client.fd(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return Fail("server closed a connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          Fail(std::string("recv: ") + std::strerror(errno));
        }
        return;
      }
      const uint64_t now = NowNs();
      conn.in.append(buf, static_cast<size_t>(n));
      size_t off = 0;
      for (;;) {
        size_t consumed = 0;
        Frame frame;
        Err err = Err::kOk;
        uint64_t hint = 0;
        auto r = server::ExtractFrame(std::string_view(conn.in).substr(off),
                                      &consumed, &frame, &err, &hint);
        if (r == server::ParseResult::kNeedMore) break;
        if (r == server::ParseResult::kError) {
          return Fail(std::string("bad frame from server: ") +
                      server::ErrName(err));
        }
        off += consumed;
        if (!OnResponse(conn, frame, now)) return;
      }
      conn.in.erase(0, off);
    }
  }

  // Marks the transaction aborted (retryable code) or failed (anything
  // else); the first error decides.
  void NoteError(InFlight& f, Err code) {
    if (f.aborted || f.failed) return;
    if (server::ErrIsAbort(code) || code == Err::kBusy) {
      f.aborted = true;
    } else {
      MarkFailed(f, std::string("error reply: ") + server::ErrName(code));
    }
  }

  bool OnResponse(Conn& conn, const Frame& frame, uint64_t now) {
    if (conn.inflight.empty()) {
      Fail("response with nothing in flight");
      return false;
    }
    InFlight& f = conn.inflight.front();
    if (frame.request_id != f.rid + static_cast<uint64_t>(f.stage)) {
      Fail("response out of order");
      return false;
    }
    const Op op = static_cast<Op>(frame.opcode);
    const Op expect[3] = {Op::kBeginOk, Op::kExecOk, Op::kCommitOk};
    if (op == Op::kTxnErr) {
      Err code = Err::kInvalid;
      std::string msg;
      server::DecodeErrBody(frame.body, &code, &msg);
      NoteError(f, code);
    } else if (op != expect[f.stage]) {
      MarkFailed(f, "unexpected response opcode");
    } else if (f.stage == 1) {
      CheckExec(f, frame.body);
    }
    if (f.stage == 0) f.begin_at = now;
    if (f.stage == 1) f.exec_at = now;
    if (++f.stage < 3) return true;

    if (f.measured) Finish(f, op == Op::kCommitOk, now);
    conn.inflight.pop_front();
    return true;
  }

  void CheckExec(InFlight& f, const std::string& body) {
    static const std::vector<Stmt::Kind> kKinds = {
        Stmt::Kind::kGet, Stmt::Kind::kPut, Stmt::Kind::kGet,
        Stmt::Kind::kPut};
    std::vector<StmtResult> results;
    if (!server::DecodeExecOkBody(body, kKinds, &results) ||
        results.size() != kKinds.size()) {
      return MarkFailed(f, "mangled EXEC_OK");
    }
    for (const StmtResult& r : results) {
      if (r.status != Err::kOk) return NoteError(f, r.status);
      // Every key is populated: a GET that misses is a wrong answer.
      if (r.kind == Stmt::Kind::kGet &&
          (!r.found || r.value.size() != o_.value_size)) {
        return MarkFailed(f, "GET missed a populated row");
      }
    }
  }

  void Finish(const InFlight& f, bool commit_ok, uint64_t now) {
    res_.last_reply_ns = std::max(res_.last_reply_ns, now);
    if (commit_ok && !f.aborted && !f.failed) {
      ++res_.committed;
      const uint64_t latency = now - f.due;
      res_.samples.push_back({now, latency});
      if (f.sampled) {
        res_.traced_sum_ns += static_cast<double>(latency);
        ++res_.traced_n;
      } else {
        res_.untraced_sum_ns += static_cast<double>(latency);
        ++res_.untraced_n;
      }
    } else if (f.aborted) {
      ++res_.aborted;
    } else {
      ++res_.failed;
    }
    if (f.sampled) {
      spans_->Add(f.id, f.due, now, SpanName::kTxn);
      spans_->Add(f.id, f.send_start, f.send_end, SpanName::kWireSend);
      spans_->Add(f.id, f.send_end, f.begin_at, SpanName::kWireBeginOk);
      spans_->Add(f.id, f.begin_at, f.exec_at, SpanName::kWireExecOk);
      spans_->Add(f.id, f.exec_at, now, SpanName::kWireCommitOk);
    }
  }

  const OpenLoopOptions& o_;
  OpenLoopResult res_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<SpanBuffer> spans_;  // null unless tracing
  std::string value_;
  uint64_t t0_ = 0;
  bool window_started_ = false;
};

// ------------------------------------------------------------- wire-cross

constexpr int kConnections = 4;
constexpr int kServerWorkers = 2;
constexpr int kRatePerConn = 400;
constexpr uint64_t kKeys = 16384;
constexpr size_t kValueSize = 64;

/// A populated database served by an in-process Server.
struct WireSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;  // destroyed (stopped) before db
  TableHandle tables[kNumEngines];
  bool ok = true;

  explicit WireSetup(uint64_t seed) {
    db = std::make_unique<Database>(DatabaseOptions{});
    tables[0] = *db->CreateTable(kWireMemTable, EngineKind::kMem, kValueSize);
    tables[1] =
        *db->CreateTable(kWireStorTable, EngineKind::kStor, kValueSize);
    Rand rng = Rand::Stream(seed, 98);
    std::string value;
    for (size_t i = 0; i < kValueSize; ++i) {
      value.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    for (const TableHandle& t : tables) {
      for (uint64_t lo = 0; lo < kKeys && ok; lo += 512) {
        bool loaded = false;
        for (int attempt = 0; attempt < 1000 && !loaded; ++attempt) {
          auto txn = db->Begin();
          bool put_ok = true;
          for (uint64_t k = lo; k < lo + 512 && put_ok; ++k) {
            put_ok = txn->Put(t, MakeKey(k), value).ok();
          }
          loaded = put_ok && txn->Commit().ok();
        }
        ok = loaded;
      }
    }
    server::ServerOptions sopts;
    sopts.workers = kServerWorkers;
    server = std::make_unique<server::Server>(db.get(), sopts);
    ok = ok && server->Start().ok();
  }

  uint64_t CountRows(const TableHandle& t) {
    uint64_t rows = 0;
    auto txn = db->Begin();
    Status s = txn->Scan(t, kMinKey, 0, [&](const Key&, const std::string&) {
      ++rows;
      return true;
    });
    if (s.ok()) s = txn->Commit();
    return s.ok() ? rows : 0;
  }
};

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options) {
  return Generator(options).Run();
}

Report RunWireCross(const RunConfig& cfg) {
  Report r;
  SpinAllCpus();
  std::unique_ptr<WireSetup> setup;
  const SetupCost cost = TimeSetups<WireSetup>(
      [&] { return std::make_unique<WireSetup>(cfg.seed); }, &setup);
  r.Check("wire_setup", setup->ok);
  if (!setup->ok) return r;
  Database* db = setup->db.get();

  Counters before;
  OpenLoopOptions o;
  o.port = setup->server->port();
  o.connections = kConnections;
  o.rate_per_conn = kRatePerConn;
  o.seconds = cfg.seconds;
  o.seed = cfg.seed;
  o.trace = cfg.trace;
  o.key_space = kKeys;
  o.value_size = kValueSize;
  CpuTicks cpu_before;
  o.at_window_start = [&] {
    before = ReadCounters(db, setup->server.get());
    cpu_before = ReadCpuTicks();
  };
  OpenLoopResult res = RunOpenLoop(o);
  const CpuTicks cpu_after = ReadCpuTicks();
  const Counters after = ReadCounters(db, setup->server.get());
  const bool at_ceiling = WindowAtCeiling(db);
  setup->server->Stop();  // connections are closed; nothing may be orphaned
  const server::Server::Stats sstats = setup->server->stats();

  r.attempted = res.sent;
  r.failed = res.failed;
  const double sent = static_cast<double>(res.sent);
  // An open loop keeps the logs' load fixed, so it needs no segments.
  const SliceMedians m = MedianOverSlices(
      res.samples, {{res.t0_ns, res.t1_ns, res.committed, res.sent}});
  r.Add("p99_ms", m.p99_ms, "ms");
  if (!cfg.trace) {
    // The achieved rate, from the first due time to the last reply: a
    // server that falls behind finishes the window's transactions late,
    // which stretches the denominator.
    r.Add("tps", static_cast<double>(res.committed) * 1e9 /
                     static_cast<double>(res.last_reply_ns - res.t0_ns),
          "1/s");
    r.Add("p50_ms", m.p50_ms, "ms");
    r.Add("commit_ratio", m.commit_ratio, "ratio");
    r.Add("setup_s", cost.seconds, "s");
    r.Add("latency_samples", static_cast<double>(res.samples.size()), "count");
  }
  r.Add("setup_heap_mb", cost.heap_mb, "MB");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.Add("abort_ratio", sent == 0 ? 0 : res.aborted / sent, "ratio");
  AddCounterMetrics(before, after, res.sent, &r);
  r.Add("log.ceiling_segments", at_ceiling ? 1 : 0, "count");
  AddHostSteal(cpu_before, cpu_after, &r);
  r.Add("gen.late_ms.p99", Percentile(res.late_ns, 99) / 1e6, "ms");
  r.Add("gen.late_ms.max", Percentile(res.late_ns, 100) / 1e6, "ms");
  r.Add("gen.unanswered", static_cast<double>(res.unanswered), "count");
  if (cfg.trace) {
    AddSpanMetrics(res.spans, &r);
    AddTraceOverhead(res.traced_sum_ns, res.traced_n, res.untraced_sum_ns,
                     res.untraced_n, &r);
    r.Check("trace_buffers_held_every_span", res.spans_dropped == 0,
            std::to_string(res.spans_dropped) + " dropped");
    const std::string path =
        cfg.trace_dir + "/trace_" + cfg.workload + ".json";
    r.Check("trace_written", WriteTrace(path, res.spans), path);
  }

  r.Check("wire_no_client_error", res.error.empty(), res.error);
  r.Check("no_failed_ops", res.failed == 0, res.first_failure);
  r.Check("wire_committed_some", res.committed > 0);
  r.Check("wire_sent_eq_committed_plus_aborted",
          res.sent == res.committed + res.aborted,
          "sent=" + std::to_string(res.sent) +
              " committed=" + std::to_string(res.committed) +
              " aborted=" + std::to_string(res.aborted));
  r.Check("wire_no_protocol_errors", sstats.protocol_errors == 0,
          std::to_string(sstats.protocol_errors));
  r.Check("wire_no_txns_aborted_on_disconnect",
          sstats.txns_aborted_on_disconnect == 0,
          std::to_string(sstats.txns_aborted_on_disconnect));
  r.Check("no_active_txns_at_end", db->active_transactions() == 0,
          std::to_string(db->active_transactions()));
  const uint64_t mem_rows = setup->CountRows(setup->tables[0]);
  const uint64_t stor_rows = setup->CountRows(setup->tables[1]);
  r.Check("wire_row_counts", mem_rows == kKeys && stor_rows == kKeys,
          std::to_string(mem_rows) + "/" + std::to_string(stor_rows));
  return r;
}

}  // namespace skeena::benchsuite
