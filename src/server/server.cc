#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "core/database.h"
#include "core/transaction.h"
#include "server/socket.h"

namespace skeena::server {

namespace {

/// Internal opcode for "the framing layer rejected the stream": the loop
/// thread cannot talk to the Database, so it queues this pseudo-frame in
/// request order and the worker turns it into PROTO_ERR + close. body[0]
/// carries the Err code.
constexpr uint8_t kParseErrOpcode = 0x00;

}  // namespace

struct Server::Impl {
  // ------------------------------------------------------------ connection
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}

    const int fd;

    // Loop-thread-only state.
    std::string inbuf;
    uint32_t interest = EPOLLIN;  // current epoll mask
    bool input_dead = false;      // stop reading (EOF / poisoned stream)
    bool closed = false;

    // Worker-only session state (one worker at a time, see `scheduled`).
    bool handshaken = false;
    std::vector<TableHandle> tables;  // table_token -> handle

    // The connection's open transaction. Touched by the owning worker
    // while scheduled, and by the loop thread only at close time (which
    // requires scheduled == false), so it needs no lock of its own.
    std::unique_ptr<Transaction> txn;

    // Cross-thread state.
    Mutex mu;
    // Decoded frames awaiting a worker.
    std::deque<Frame> pending SKEENA_GUARDED_BY(mu);
    // Encoded responses awaiting the socket.
    std::string outbuf SKEENA_GUARDED_BY(mu);
    // A worker owns this conn right now.
    bool scheduled SKEENA_GUARDED_BY(mu) = false;
    // Loop saw EOF / read error.
    bool peer_eof SKEENA_GUARDED_BY(mu) = false;
    // Worker decided to drop the conn.
    bool close_after_flush SKEENA_GUARDED_BY(mu) = false;
  };

  struct Cmd {
    enum Kind { kArmWrite, kCheckClose };
    Kind kind;
    std::shared_ptr<Conn> conn;
  };

  Database* db;
  ServerOptions opts;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;

  std::thread loop_thread;
  std::vector<std::thread> worker_threads;
  std::atomic<bool> stopping{false};
  bool started = false;

  // Loop-thread-owned connection table (fd -> conn).
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  // Worker scheduling.
  Mutex q_mu;
  CondVar q_cv;
  std::deque<std::shared_ptr<Conn>> work SKEENA_GUARDED_BY(q_mu);
  bool workers_stop SKEENA_GUARDED_BY(q_mu) = false;

  // Loop commands from workers.
  Mutex cmd_mu;
  std::vector<Cmd> cmds SKEENA_GUARDED_BY(cmd_mu);

  // Stats.
  std::atomic<uint64_t> accepted{0}, closed_count{0}, frames_in{0},
      frames_out{0}, proto_errors{0}, orphans_aborted{0};

  // ------------------------------------------------------------------ setup

  /// Closes whatever descriptors Start() opened: Stop()'s last step, and
  /// every failure path of Start() itself.
  void CloseFds() {
    for (int* fd : {&listen_fd, &epoll_fd, &wake_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  void UpdateInterest(const std::shared_ptr<Conn>& c, uint32_t mask) {
    if (c->interest == mask || c->closed) return;
    c->interest = mask;
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  void PostCmd(Cmd::Kind kind, std::shared_ptr<Conn> c) {
    {
      MutexLock lock(cmd_mu);
      cmds.push_back(Cmd{kind, std::move(c)});
    }
    Wake();
  }

  // ------------------------------------------------------------- event loop

  void LoopMain() {
    epoll_event events[128];
    while (!stopping.load(std::memory_order_acquire)) {
      int n = ::epoll_wait(epoll_fd, events, 128, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        uint32_t ev = events[i].events;
        if (fd == wake_fd) {
          uint64_t drain;
          while (::read(wake_fd, &drain, sizeof(drain)) > 0) {
          }
          RunCmds();
          continue;
        }
        if (fd == listen_fd) {
          AcceptAll();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;  // closed earlier in this batch
        std::shared_ptr<Conn> c = it->second;
        if (ev & EPOLLOUT) HandleWritable(c);
        if (c->closed) continue;
        if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) HandleReadable(c);
      }
    }
  }

  void RunCmds() {
    std::vector<Cmd> batch;
    {
      MutexLock lock(cmd_mu);
      batch.swap(cmds);
    }
    for (Cmd& cmd : batch) {
      if (cmd.conn->closed) continue;
      if (cmd.kind == Cmd::kArmWrite) {
        bool need;
        {
          MutexLock lock(cmd.conn->mu);
          need = !cmd.conn->outbuf.empty();
        }
        if (need) {
          UpdateInterest(cmd.conn, cmd.conn->interest | EPOLLOUT);
        }
      }
      // Both command kinds end in a close re-evaluation: kArmWrite because
      // the flush that needed arming may belong to a closing connection.
      CheckClose(cmd.conn);
    }
  }

  void AcceptAll() {
    for (;;) {
      int fd = ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_shared<Conn>(fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns[fd] = std::move(c);
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void HandleReadable(const std::shared_ptr<Conn>& c) {
    if (c->input_dead) return;
    bool eof = false;
    for (;;) {
      char buf[16384];
      ssize_t n = ::read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        c->inbuf.append(buf, static_cast<size_t>(n));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      eof = true;  // orderly EOF or hard error: no more input either way
      break;
    }

    // Extract every complete frame; a framing violation poisons the rest
    // of the stream (the parser cannot resynchronize), so it both stops
    // reading and queues the PROTO_ERR pseudo-frame in order.
    std::vector<Frame> got;
    size_t consumed = 0;
    std::string_view view(c->inbuf);
    for (;;) {
      Frame f;
      Err err;
      uint64_t rid_hint;
      ParseResult r = ExtractFrame(view.substr(consumed), &consumed, &f, &err,
                                   &rid_hint);
      if (r == ParseResult::kFrame) {
        frames_in.fetch_add(1, std::memory_order_relaxed);
        got.push_back(std::move(f));
        continue;
      }
      if (r == ParseResult::kError) {
        proto_errors.fetch_add(1, std::memory_order_relaxed);
        Frame poison;
        poison.request_id = rid_hint;
        poison.opcode = kParseErrOpcode;
        poison.body.assign(1, static_cast<char>(err));
        got.push_back(std::move(poison));
        c->input_dead = true;
        UpdateInterest(c, c->interest & ~uint32_t{EPOLLIN});
      }
      break;
    }
    c->inbuf.erase(0, consumed);

    bool schedule = false;
    {
      MutexLock lock(c->mu);
      for (Frame& f : got) c->pending.push_back(std::move(f));
      if (eof) c->peer_eof = true;
      if (!c->pending.empty() && !c->scheduled) {
        c->scheduled = true;
        schedule = true;
      }
    }
    if (eof) {
      c->input_dead = true;
      UpdateInterest(c, c->interest & ~uint32_t{EPOLLIN});
    }
    if (schedule) {
      {
        MutexLock lock(q_mu);
        work.push_back(c);
      }
      q_cv.NotifyOne();
    } else if (eof) {
      CheckClose(c);
    }
  }

  void HandleWritable(const std::shared_ptr<Conn>& c) {
    bool drained;
    {
      MutexLock lock(c->mu);
      FlushLocked(*c);
      drained = c->outbuf.empty();
    }
    if (drained) {
      UpdateInterest(c, c->interest & ~uint32_t{EPOLLOUT});
      CheckClose(c);
    }
  }

  /// Writes as much of outbuf as the socket takes. Caller holds c.mu
  /// (takes a reference so the REQUIRES expression unifies with the
  /// `c->mu` capability TSA sees at shared_ptr call sites).
  /// On a hard write error the buffer is dropped and the connection is
  /// marked for closing (the peer is gone; EPOLLHUP will confirm).
  static void FlushLocked(Conn& c) SKEENA_REQUIRES(c.mu) {
    while (!c.outbuf.empty()) {
      ssize_t n = ::send(c.fd, c.outbuf.data(), c.outbuf.size(),
                         MSG_NOSIGNAL);
      if (n > 0) {
        c.outbuf.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      c.outbuf.clear();
      c.close_after_flush = true;
      return;
    }
  }

  /// The single closing funnel (loop thread): a connection dies once its
  /// input is finished (EOF or poisoned), no worker owns it, no frames
  /// wait, and its responses are flushed (or unflushable). Called from
  /// every event that can complete one of those conditions.
  void CheckClose(const std::shared_ptr<Conn>& c) {
    if (c->closed) return;
    bool schedule = false;
    {
      MutexLock lock(c->mu);
      if (!c->peer_eof && !c->close_after_flush) return;
      if (c->close_after_flush) {
        // A worker rejected the stream (protocol error / slow reader):
        // everything pipelined behind the offender is discarded.
        c->pending.clear();
      }
      if (c->scheduled) return;  // worker will post kCheckClose when done
      if (!c->pending.empty()) {
        // EOF with frames still queued (half-close): drain them first.
        c->scheduled = true;
        schedule = true;
      } else {
        FlushLocked(*c);
        if (!c->outbuf.empty()) {
          // Flush pending; EPOLLOUT completion re-enters CheckClose. Mark
          // the conn closing so new input cannot revive it.
          c->close_after_flush = true;
        }
      }
    }
    if (schedule) {
      {
        MutexLock lock(q_mu);
        work.push_back(c);
      }
      q_cv.NotifyOne();
      return;
    }
    {
      MutexLock lock(c->mu);
      if (!c->outbuf.empty()) {
        // Still flushing: arm EPOLLOUT (idempotent) and wait.
        UpdateInterest(c, c->interest | EPOLLOUT);
        return;
      }
    }
    c->input_dead = true;
    CloseConn(c);
  }

  void CloseConn(const std::shared_ptr<Conn>& c) {
    if (c->closed) return;
    c->closed = true;
    if (c->txn) {
      // The disconnect orphaned an open transaction: roll it back. This
      // is safe here because closed connections are never scheduled.
      c->txn->Abort();
      c->txn.reset();
      orphans_aborted.fetch_add(1, std::memory_order_relaxed);
    }
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    conns.erase(c->fd);
    closed_count.fetch_add(1, std::memory_order_relaxed);
  }

  // ---------------------------------------------------------------- workers

  void WorkerMain() {
    for (;;) {
      std::shared_ptr<Conn> c;
      {
        MutexLock lock(q_mu);
        // Explicit wait loop (not the predicate overload): TSA analyzes a
        // lambda body without the enclosing lock set, so a predicate that
        // reads guarded fields would trip -Wthread-safety.
        while (!workers_stop && work.empty()) q_cv.Wait(q_mu);
        if (workers_stop && work.empty()) return;
        c = std::move(work.front());
        work.pop_front();
      }
      ProcessConn(c);
    }
  }

  void ProcessConn(const std::shared_ptr<Conn>& c) {
    bool post_check = false;
    for (;;) {
      std::deque<Frame> batch;
      {
        MutexLock lock(c->mu);
        if (c->pending.empty() || c->close_after_flush) {
          c->scheduled = false;
          post_check = c->peer_eof || c->close_after_flush;
          break;
        }
        batch.swap(c->pending);
      }

      std::string out;
      bool drop_conn = false;
      for (Frame& f : batch) {
        if (drop_conn) break;  // frames behind a fatal error are discarded
        HandleFrame(c.get(), f, &out, &drop_conn);
      }

      bool need_arm = false;
      {
        MutexLock lock(c->mu);
        c->outbuf.append(out);
        if (drop_conn) c->close_after_flush = true;
        if (c->outbuf.size() > opts.max_outbuf_bytes) {
          // Slow reader: the pipelined response backlog exceeded the cap.
          c->outbuf.clear();
          c->close_after_flush = true;
        }
        FlushLocked(*c);
        need_arm = !c->outbuf.empty();
      }
      if (need_arm) PostCmd(Cmd::kArmWrite, c);
    }
    if (post_check) PostCmd(Cmd::kCheckClose, c);
  }

  void Emit(Conn*, std::string* out, std::string frame) {
    frames_out.fetch_add(1, std::memory_order_relaxed);
    out->append(frame);
  }

  void HandleFrame(Conn* c, const Frame& f, std::string* out,
                   bool* drop_conn) {
    const uint64_t rid = f.request_id;
    auto proto_err = [&](Err code, std::string_view msg) {
      proto_errors.fetch_add(1, std::memory_order_relaxed);
      Emit(c, out, EncodeErr(rid, Op::kProtoErr, code, msg));
      *drop_conn = true;
    };
    auto txn_err = [&](Err code, std::string_view msg) {
      Emit(c, out, EncodeErr(rid, Op::kTxnErr, code, msg));
    };

    if (f.opcode == kParseErrOpcode) {
      // Framing violation detected by the loop thread; body[0] = code.
      // (Already counted in proto_errors at parse time.)
      Err code = f.body.empty() ? Err::kBadFrame
                                : static_cast<Err>(f.body[0]);
      Emit(c, out, EncodeErr(rid, Op::kProtoErr, code, ErrName(code)));
      *drop_conn = true;
      return;
    }

    Op op = static_cast<Op>(f.opcode);
    if (!c->handshaken && op != Op::kHello) {
      proto_err(Err::kNotReady, "first frame must be HELLO");
      return;
    }

    switch (op) {
      case Op::kHello: {
        uint8_t version;
        Err err;
        if (!DecodeHelloBody(f.body, &version, &err)) {
          proto_err(err, "bad HELLO");
          return;
        }
        c->handshaken = true;
        Emit(c, out,
             EncodeHelloOk(rid, std::min(version, kProtocolVersion)));
        return;
      }
      case Op::kOpenTable: {
        std::string name;
        if (!DecodeOpenTableBody(f.body, &name)) {
          proto_err(Err::kBadFrame, "bad OPEN_TABLE");
          return;
        }
        auto h = db->GetTable(name);
        if (!h.ok()) {
          txn_err(Err::kNotFound, h.status().message());
          return;
        }
        uint32_t token = static_cast<uint32_t>(c->tables.size());
        c->tables.push_back(*h);
        Emit(c, out, EncodeTableOk(rid, token, h->home));
        return;
      }
      case Op::kBegin: {
        IsolationLevel iso;
        if (!DecodeBeginBody(f.body, &iso)) {
          proto_err(Err::kBadFrame, "bad BEGIN");
          return;
        }
        if (c->txn) {
          txn_err(Err::kTxnOpen, "transaction already open");
          return;
        }
        c->txn = db->Begin(iso);
        Emit(c, out, EncodeBeginOk(rid, c->txn->gtid()));
        return;
      }
      case Op::kExec: {
        std::vector<Stmt> stmts;
        if (!DecodeExecBody(f.body, &stmts)) {
          proto_err(Err::kBadFrame, "bad EXEC");
          return;
        }
        if (!c->txn) {
          txn_err(Err::kNoTxn, "EXEC with no open transaction");
          return;
        }
        Emit(c, out, EncodeExecOk(rid, ExecStatements(c, stmts)));
        return;
      }
      case Op::kCommit: {
        if (!f.body.empty()) {
          proto_err(Err::kBadFrame, "COMMIT carries no body");
          return;
        }
        if (!c->txn) {
          txn_err(Err::kNoTxn, "COMMIT with no open transaction");
          return;
        }
        Status s = c->txn->Commit();
        c->txn.reset();
        if (s.ok()) {
          Emit(c, out, EncodeCommitOk(rid));
        } else {
          txn_err(ErrFromStatus(s), s.message());
        }
        return;
      }
      case Op::kAbort: {
        if (!f.body.empty()) {
          proto_err(Err::kBadFrame, "ABORT carries no body");
          return;
        }
        // Idempotent by spec: pipelined clients may trail an abort.
        if (c->txn) {
          c->txn->Abort();
          c->txn.reset();
        }
        Emit(c, out, EncodeAbortOk(rid));
        return;
      }
      case Op::kPing: {
        Emit(c, out, EncodePong(rid));
        return;
      }
      default:
        proto_err(Err::kBadOpcode, "unknown or response-range opcode");
        return;
    }
  }

  std::vector<StmtResult> ExecStatements(Conn* c,
                                         const std::vector<Stmt>& stmts) {
    std::vector<StmtResult> results;
    results.reserve(stmts.size());
    bool txn_dead = false;
    for (const Stmt& s : stmts) {
      StmtResult r;
      r.kind = s.kind;
      if (txn_dead) {
        // The transaction died under this frame; per spec the remaining
        // statements are not executed.
        r.status = Err::kNoTxn;
        results.push_back(std::move(r));
        continue;
      }
      if (s.table >= c->tables.size()) {
        r.status = Err::kInvalid;
        results.push_back(std::move(r));
        continue;
      }
      const TableHandle& t = c->tables[s.table];
      Status st;
      switch (s.kind) {
        case Stmt::Kind::kGet: {
          std::string value;
          st = c->txn->Get(t, s.key, &value);
          if (st.ok()) {
            r.found = true;
            r.value = std::move(value);
          } else if (st.IsNotFound()) {
            st = Status::OK();  // miss: status OK, found = 0
          }
          break;
        }
        case Stmt::Kind::kPut:
          st = c->txn->Put(t, s.key, s.value);
          break;
        case Stmt::Kind::kDelete:
          st = c->txn->Delete(t, s.key);
          break;
        case Stmt::Kind::kScan:
          st = c->txn->Scan(t, s.key, s.scan_limit,
                            [&r](const Key& k, const std::string& v) {
                              r.rows.emplace_back(k, v);
                              return true;
                            });
          break;
      }
      r.status = ErrFromStatus(st);
      if (st.IsAnyAbort()) {
        // Transaction::HandleOpStatus already rolled everything back.
        c->txn.reset();
        txn_dead = true;
      }
      results.push_back(std::move(r));
    }
    return results;
  }
};

Server::Server(Database* db, ServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->db = db;
  impl_->opts = std::move(options);
  if (impl_->opts.workers < 1) impl_->opts.workers = 1;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  Impl& im = *impl_;
  if (im.started) return Status::InvalidArgument("server already started");
  Result<Listener> listener =
      ListenTcp(im.opts.host, im.opts.port, /*nonblocking=*/true);
  if (!listener.ok()) return listener.status();
  im.listen_fd = listener->fd;
  port_ = listener->port;
  im.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  im.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (im.epoll_fd < 0 || im.wake_fd < 0) {
    Status s = Status::IOError(std::string("epoll/eventfd: ") +
                               std::strerror(errno));
    im.CloseFds();
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = im.listen_fd;
  ::epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, im.listen_fd, &ev);
  ev.data.fd = im.wake_fd;
  ::epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, im.wake_fd, &ev);

  im.started = true;
  im.stopping.store(false, std::memory_order_release);
  im.loop_thread = std::thread([&im] { im.LoopMain(); });
  for (int i = 0; i < im.opts.workers; ++i) {
    im.worker_threads.emplace_back([&im] { im.WorkerMain(); });
  }
  return Status::OK();
}

void Server::Stop() {
  Impl& im = *impl_;
  if (!im.started) return;
  im.started = false;

  // 1. Stop the event loop: no new connections, reads, or flushes.
  im.stopping.store(true, std::memory_order_release);
  im.Wake();
  if (im.loop_thread.joinable()) im.loop_thread.join();

  // 2. Drain the workers (they finish in-flight frames, then exit).
  {
    MutexLock lock(im.q_mu);
    im.workers_stop = true;
  }
  im.q_cv.NotifyAll();
  for (std::thread& t : im.worker_threads) {
    if (t.joinable()) t.join();
  }
  im.worker_threads.clear();

  // 3. Single-threaded teardown: every surviving connection's open
  // transaction is an orphan — abort it, then close the socket.
  for (auto& [fd, c] : im.conns) {
    if (c->txn) {
      c->txn->Abort();
      c->txn.reset();
      im.orphans_aborted.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
    im.closed_count.fetch_add(1, std::memory_order_relaxed);
  }
  im.conns.clear();
  im.CloseFds();
}

Server::Stats Server::stats() const {
  const Impl& im = *impl_;
  Stats s;
  s.connections_accepted = im.accepted.load(std::memory_order_relaxed);
  s.connections_closed = im.closed_count.load(std::memory_order_relaxed);
  s.frames_in = im.frames_in.load(std::memory_order_relaxed);
  s.frames_out = im.frames_out.load(std::memory_order_relaxed);
  s.protocol_errors = im.proto_errors.load(std::memory_order_relaxed);
  s.txns_aborted_on_disconnect =
      im.orphans_aborted.load(std::memory_order_relaxed);
  return s;
}

}  // namespace skeena::server
