#include "repl/shipper.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/parking_lot.h"
#include "log/log_manager.h"

namespace skeena::repl {

namespace {
constexpr int kMemIndex = static_cast<int>(EngineKind::kMem);
constexpr int kStorIndex = static_cast<int>(EngineKind::kStor);
}  // namespace

Shipper::Shipper(Database* db, CsrInstallJournal* journal, Options options)
    : db_(db), journal_(journal), options_(options) {}

Shipper::~Shipper() { Stop(); }

Status Shipper::Start() {
  Result<server::Listener> listener =
      server::ListenTcp("127.0.0.1", options_.port, /*nonblocking=*/false);
  if (!listener.ok()) return listener.status();
  port_ = listener->port;
  listen_fd_.store(listener->fd, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  // Wake sources for the serve loop's eventcount: every durable-LSN
  // advance (group commit moved the shippable bound) and every CSR
  // journal append (a new install to stream). Together with the watermark
  // rule — horizons only cover durably committed transactions — these are
  // the only events that can create ship work.
  for (int e = 0; e < kNumEngines; ++e) {
    db_->engine(e)->Log()->SetDurableObserver([this](Lsn) { BumpProgress(); });
  }
  journal_->SetAppendObserver([this] { BumpProgress(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Shipper::Stop() {
  stop_.store(true, std::memory_order_release);
  BumpProgress();  // unpark a serve loop idling on the eventcount
  int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  {
    MutexLock guard(conns_mu_);
    for (server::FramedConn* ch : live_) ch->Shutdown();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  // Unhook only after the serve loop is joined: the observers are invoked
  // under the producers' own locks, so Set*Observer(nullptr) returning
  // means no call into this (soon-destroyed) shipper is still running.
  for (int e = 0; e < kNumEngines; ++e) {
    db_->engine(e)->Log()->SetDurableObserver(nullptr);
  }
  journal_->SetAppendObserver(nullptr);
}

void Shipper::BumpProgress() {
  progress_seq_.fetch_add(1, std::memory_order_release);
  ParkingLot::WakeAll(progress_seq_);
}

void Shipper::AcceptLoop() {
  // Connections are served sequentially: one replica per shipper is the
  // deployment shape, and a killed connection's serve loop exits (its
  // sends fail) before the replacement is accepted from the backlog.
  while (!stop_.load(std::memory_order_acquire)) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0 && errno == EINTR) continue;
    if (fd < 0) return;  // listener shut down, or a hard error
    Serve(fd);
  }
}

Status Shipper::SendOnChannel(server::FramedConn& ch, std::string frame) {
  int64_t cut = cut_after_.load(std::memory_order_acquire);
  if (cut >= 0) {
    if (static_cast<int64_t>(frame.size()) >= cut) {
      // Put exactly `cut` bytes on the wire — a torn frame — then sever.
      ch.Send(std::string_view(frame).substr(0, static_cast<size_t>(cut)));
      cut_after_.store(-1, std::memory_order_release);
      ch.Shutdown();
      return Status::IOError("test cut");
    }
    cut_after_.store(cut - static_cast<int64_t>(frame.size()),
                     std::memory_order_release);
  }
  return ch.Send(frame);
}

Status Shipper::ShipLogs(server::FramedConn& ch, int e, uint64_t* rid, Lsn* cursor,
                         Lsn target, bool* progress) {
  if (*cursor >= target) return Status::OK();
  const LogManager* log = db_->engine(e)->Log();
  // Torn-tail rule: never put a frame on the wire before the primary has
  // it durable. No forced flush — the engine's group commit advances this.
  Lsn limit = std::min(target, log->DurableLsn());
  if (*cursor >= limit) return Status::OK();
  LogReader reader(log->device(), *cursor);
  server::ReplLogBatch batch;
  batch.engine = static_cast<uint8_t>(e);
  batch.start_lsn = *cursor;
  Lsn end = *cursor;
  size_t bytes = 0;
  std::string rec;
  while (end < limit && bytes < kMaxBatchBytes) {
    if (!reader.Next(&rec)) break;
    if (reader.offset() > limit) break;  // frame crosses the bound
    end = reader.offset();
    bytes += rec.size() + 4;
    batch.records.push_back(std::move(rec));
  }
  if (batch.records.empty()) return Status::OK();
  batch.end_lsn = end;
  SKEENA_RETURN_NOT_OK(SendOnChannel(ch, EncodeReplLog((*rid)++, batch)));
  *cursor = end;
  *progress = true;
  return Status::OK();
}

Status Shipper::ShipCsr(server::FramedConn& ch, uint64_t* rid, uint64_t* cursor,
                        uint64_t target, bool* progress) {
  if (*cursor >= target) return Status::OK();
  server::ReplCsrBatch batch;
  batch.first_seq = *cursor;
  uint64_t want = std::min<uint64_t>(target - *cursor, kMaxBatchBytes / 16);
  journal_->Read(*cursor, std::max<uint64_t>(want, 1), &batch.entries);
  if (batch.entries.empty()) return Status::OK();
  SKEENA_RETURN_NOT_OK(SendOnChannel(ch, EncodeReplCsr((*rid)++, batch)));
  *cursor += batch.entries.size();
  *progress = true;
  return Status::OK();
}

void Shipper::Serve(int fd) {
  server::FramedConn ch;
  ch.Adopt(fd);
  {
    MutexLock guard(conns_mu_);
    live_.push_back(&ch);
  }
  // relaxed-ok: monotone diagnostic counter.
  connections_.fetch_add(1, std::memory_order_relaxed);

  // Handshake: the replica leads with its resume cursors.
  server::Frame hello_frame;
  server::ReplHello hello;
  bool ok = ch.Recv(&hello_frame).ok() &&
            hello_frame.opcode == static_cast<uint8_t>(server::Op::kReplHello) &&
            server::DecodeReplHelloBody(hello_frame.body, &hello) &&
            hello.version == server::kProtocolVersion;
  if (ok) {
    ok = SendOnChannel(ch, server::EncodeReplHelloOk(hello_frame.request_id,
                                                     server::kProtocolVersion))
             .ok();
  }

  uint64_t rid = 1;
  Lsn cursor[kNumEngines] = {};
  cursor[kMemIndex] = hello.mem_lsn;
  cursor[kStorIndex] = hello.stor_lsn;
  uint64_t csr_cursor = hello.csr_seq;

  // One watermark in flight at a time. Horizons are sampled FIRST, stream
  // targets AFTER: every commit at or below a horizon finished its appends
  // before the horizon was computed, so its bytes sit below the targets
  // sampled later — when the cursors reach all three targets, the
  // watermark's coverage claim holds.
  bool have_wm = false;
  server::ReplWatermark wm{};
  server::ReplWatermark last_sent{};
  bool sent_any = false;
  Lsn target[kNumEngines] = {};
  uint64_t csr_target = 0;

  while (ok && !stop_.load(std::memory_order_acquire)) {
    // Eventcount sample point. Every piece of stream state the pass reads
    // (horizons, log targets, durable LSNs, journal size) is read after
    // this load, so a producer bump racing the pass makes the ParkFor
    // below return immediately instead of sleeping on a stale sample.
    uint32_t seen = progress_seq_.load(std::memory_order_acquire);
    if (!have_wm) {
      Timestamp mem_h = db_->mem()->ReplicationHorizon();
      Timestamp stor_h = db_->stor()->ReplicationHorizon();
      target[kMemIndex] = db_->engine(kMemIndex)->Log()->CurrentLsn();
      target[kStorIndex] = db_->engine(kStorIndex)->Log()->CurrentLsn();
      csr_target = journal_->size();
      wm.mem_horizon = mem_h;
      wm.stor_horizon = stor_h;
      wm.csr_seq = csr_target;
      have_wm = true;
    }
    bool progress = false;
    Status s = ShipLogs(ch, kMemIndex, &rid, &cursor[kMemIndex],
                        target[kMemIndex], &progress);
    if (s.ok()) {
      s = ShipLogs(ch, kStorIndex, &rid, &cursor[kStorIndex],
                   target[kStorIndex], &progress);
    }
    if (s.ok()) s = ShipCsr(ch, &rid, &csr_cursor, csr_target, &progress);
    if (s.ok() && cursor[kMemIndex] >= target[kMemIndex] &&
        cursor[kStorIndex] >= target[kStorIndex] && csr_cursor >= csr_target) {
      bool advanced = !sent_any || wm.mem_horizon != last_sent.mem_horizon ||
                      wm.stor_horizon != last_sent.stor_horizon ||
                      wm.csr_seq != last_sent.csr_seq;
      if (advanced) {
        s = SendOnChannel(ch, server::EncodeReplWatermark(rid++, wm));
        if (s.ok()) {
          last_sent = wm;
          sent_any = true;
          // relaxed-ok: monotone diagnostic counter.
          watermarks_.fetch_add(1, std::memory_order_relaxed);
          progress = true;
        }
      }
      have_wm = false;  // recompute next pass
    }
    if (s.ok()) {
      // Drain ACKs (informational; resume is replica-driven) and detect a
      // closed peer without blocking.
      server::Frame ack;
      Status rerr;
      while (ch.TryRecv(&ack, &rerr)) {
      }
      if (!rerr.ok()) s = rerr;
    }
    if (!s.ok()) break;
    if (!progress) {
      // Nothing shipped: park until a durable advance / journal append
      // bumps the eventcount. The backstop bounds how long a dead peer
      // can go unnoticed (TryRecv above is the only close detector).
      ParkingLot::ParkFor(
          progress_seq_, seen,
          std::chrono::nanoseconds(kIdleBackstop).count());
    }
  }

  {
    MutexLock guard(conns_mu_);
    live_.erase(std::find(live_.begin(), live_.end(), &ch));
  }
  ch.Close();
}

}  // namespace skeena::repl
