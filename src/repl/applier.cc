#include "repl/applier.h"

#include <algorithm>

namespace skeena::repl {

namespace {
constexpr int kMemIndex = static_cast<int>(EngineKind::kMem);
constexpr int kStorIndex = static_cast<int>(EngineKind::kStor);
}  // namespace

Replica::Replica(Database* db, Options options)
    : db_(db), options_(options) {
  db_->SetReplicaSnapshotProvider([this] { return GatePair(); });
}

Replica::~Replica() { Stop(); }

Status Replica::Start() {
  if (!db_->replica()) {
    return Status::InvalidArgument(
        "Replica requires DatabaseOptions::replica = true");
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void Replica::Stop() {
  stop_.store(true, std::memory_order_release);
  ch_.Shutdown();
  if (thread_.joinable()) thread_.join();
}

void Replica::KillChannel() { ch_.Shutdown(); }

std::pair<Timestamp, Timestamp> Replica::GatePair() const {
  MutexLock guard(gate_mu_);
  return {gate_anchor_, gate_other_};
}

Replica::Progress Replica::progress() const {
  MutexLock guard(mu_);
  Progress p;
  for (int e = 0; e < kNumEngines; ++e) {
    p.recv_lsn[e] = recv_lsn_[e];
    p.applied_horizon[e] = applied_horizon_[e];
  }
  p.csr_seq = csr_seq_;
  p.watermarks = watermarks_;
  p.reconnects = reconnects_;
  p.groups_applied = groups_applied_;
  return p;
}

bool Replica::CaughtUpLocked(Lsn mem_lsn, Lsn stor_lsn,
                             uint64_t csr_seq) const {
  if (recv_lsn_[kMemIndex] < mem_lsn) return false;
  if (recv_lsn_[kStorIndex] < stor_lsn) return false;
  if (csr_seq_ < csr_seq) return false;
  if (applying_) return false;
  for (int e = 0; e < kNumEngines; ++e) {
    if (!ready_[e].empty()) return false;
  }
  return true;
}

bool Replica::WaitCaughtUp(Lsn mem_lsn, Lsn stor_lsn, uint64_t csr_seq,
                           std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  // Explicit wait loop (not the predicate overload): TSA analyzes a lambda
  // body without the enclosing lock set, so a predicate reading guarded
  // fields would trip -Wthread-safety.
  while (!CaughtUpLocked(mem_lsn, stor_lsn, csr_seq)) {
    if (!cv_.WaitUntil(mu_, deadline)) {
      return CaughtUpLocked(mem_lsn, stor_lsn, csr_seq);
    }
  }
  return true;
}

void Replica::RunLoop() {
  bool connected_once = false;
  while (!stop_.load(std::memory_order_acquire)) {
    Status s = ch_.Connect(options_.host, options_.port);
    if (!s.ok()) {
      std::this_thread::sleep_for(kReconnectBackoff);
      continue;
    }
    if (connected_once) {
      MutexLock guard(mu_);
      ++reconnects_;
    }
    connected_once = true;
    RunSession();
    // Close discards any torn partial frame; the HELLO cursors only name
    // fully received frames, so the tail is simply re-shipped.
    ch_.Close();
    if (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(kReconnectBackoff);
    }
  }
}

void Replica::RunSession() {
  uint64_t rid = 1;
  server::ReplHello hello;
  hello.version = server::kProtocolVersion;
  {
    MutexLock guard(mu_);
    hello.mem_lsn = recv_lsn_[kMemIndex];
    hello.stor_lsn = recv_lsn_[kStorIndex];
    hello.csr_seq = csr_seq_;
  }
  if (!ch_.Send(server::EncodeReplHello(rid++, hello)).ok()) return;
  server::Frame f;
  if (!ch_.Recv(&f).ok() ||
      f.opcode != static_cast<uint8_t>(server::Op::kReplHelloOk)) {
    return;
  }
  while (!stop_.load(std::memory_order_acquire)) {
    if (!ch_.Recv(&f).ok()) return;
    Status s = Status::OK();
    switch (static_cast<server::Op>(f.opcode)) {
      case server::Op::kReplLog: {
        server::ReplLogBatch batch;
        if (!server::DecodeReplLogBody(f.body, &batch)) {
          s = Status::Corruption("mangled REPL_LOG");
        } else {
          s = HandleLog(batch);
        }
        break;
      }
      case server::Op::kReplCsr: {
        server::ReplCsrBatch batch;
        if (!server::DecodeReplCsrBody(f.body, &batch)) {
          s = Status::Corruption("mangled REPL_CSR");
        } else {
          s = HandleCsr(batch);
        }
        break;
      }
      case server::Op::kReplWatermark: {
        server::ReplWatermark wm;
        if (!server::DecodeReplWatermarkBody(f.body, &wm)) {
          s = Status::Corruption("mangled REPL_WATERMARK");
        } else {
          s = HandleWatermark(wm, &rid);
        }
        break;
      }
      default:
        s = Status::Corruption("unexpected replication opcode");
    }
    // Any stream-level fault drops the session; the reconnect resumes
    // from the received cursors and re-ships the suspect range.
    if (!s.ok()) return;
  }
}

Status Replica::HandleLog(const server::ReplLogBatch& batch) {
  if (batch.engine >= kNumEngines) {
    return Status::Corruption("bad engine index");
  }
  int e = batch.engine;
  {
    MutexLock guard(mu_);
    if (batch.start_lsn != recv_lsn_[e]) {
      return Status::Corruption("non-contiguous REPL_LOG batch");
    }
  }
  std::optional<CommittedGroup> closed;
  for (const std::string& raw : batch.records) {
    SKEENA_RETURN_NOT_OK(grouper_[e].Add(raw, &closed));
    if (!closed) continue;
    const Timestamp cts = closed->cts;
    MutexLock guard(mu_);
    if (!ready_[e].emplace(cts, std::move(*closed)).second) {
      return Status::Corruption("duplicate commit timestamp in stream");
    }
  }
  {
    MutexLock guard(mu_);
    recv_lsn_[e] = batch.end_lsn;
  }
  cv_.NotifyAll();
  return Status::OK();
}

Status Replica::HandleCsr(const server::ReplCsrBatch& batch) {
  uint64_t applied;  // stable across the loop: only this thread writes it
  {
    MutexLock guard(mu_);
    applied = csr_seq_;
  }
  if (batch.first_seq > applied) {
    return Status::Corruption("gap in CSR install stream");
  }
  uint64_t seq = batch.first_seq;
  for (const auto& [key, value] : batch.entries) {
    if (seq++ < applied) continue;  // overlap after resume; already applied
    SKEENA_RETURN_NOT_OK(db_->csr().ReplayInstall(key, value));
    auto it = gate_mappings_.find(key);
    if (it == gate_mappings_.end()) {
      gate_mappings_.emplace(key, std::make_pair(value, value));
    } else {
      it->second.first = std::min(it->second.first, value);
      it->second.second = std::max(it->second.second, value);
    }
  }
  {
    MutexLock guard(mu_);
    csr_seq_ = std::max(csr_seq_, seq);
  }
  cv_.NotifyAll();
  return Status::OK();
}

Status Replica::ApplyGroup(int e, CommittedGroup&& group) {
  if (e == kMemIndex) {
    return db_->mem()->ApplyReplicated(std::move(group));
  }
  stordb::StorEngine* stor = db_->stor();
  auto txn = stor->Begin(IsolationLevel::kSnapshot, kMaxTimestamp);
  if (!txn) return Status::IOError("replica stordb Begin failed");
  for (const LogRecord& rec : group.records) {
    Status s;
    if (rec.tombstone) {
      s = stor->Delete(txn.get(), rec.table, rec.key);
      // A row inserted and deleted within one primary transaction ships
      // only its final tombstone; the key never existed here.
      if (s.IsNotFound()) s = Status::OK();
    } else {
      s = stor->Put(txn.get(), rec.table, rec.key, rec.value);
    }
    if (!s.ok()) {
      stor->Abort(txn.get());
      return s;
    }
  }
  stor->CommitReplicated(txn.get(), group.gtid, group.cts);
  return Status::OK();
}

Status Replica::HandleWatermark(const server::ReplWatermark& wm,
                                uint64_t* rid) {
  Timestamp horizon[kNumEngines];
  horizon[kMemIndex] = wm.mem_horizon;
  horizon[kStorIndex] = wm.stor_horizon;

  // Extract coverable groups under the lock, apply outside it: the
  // engines' GC floor providers re-enter GatePair() during apply.
  std::vector<CommittedGroup> batch[kNumEngines];
  {
    MutexLock guard(mu_);
    for (int e = 0; e < kNumEngines; ++e) {
      auto& q = ready_[e];
      while (!q.empty() && q.begin()->first <= horizon[e]) {
        batch[e].push_back(std::move(q.begin()->second));
        q.erase(q.begin());
      }
    }
    applying_ = true;
  }
  Status s = Status::OK();
  for (int e = 0; e < kNumEngines && s.ok(); ++e) {
    for (size_t i = 0; i < batch[e].size() && s.ok(); ++i) {
      s = ApplyGroup(e, std::move(batch[e][i]));
    }
  }
  if (s.ok()) {
    // Both engines now cover their horizons; clamp + publish the gate.
    int anchor = db_->anchor_index();
    RecomputeGate(horizon[anchor], horizon[1 - anchor]);
  }
  {
    MutexLock guard(mu_);
    applying_ = false;
    if (s.ok()) {
      for (int e = 0; e < kNumEngines; ++e) {
        applied_horizon_[e] = std::max(applied_horizon_[e], horizon[e]);
        groups_applied_ += batch[e].size();
      }
      ++watermarks_;
    }
  }
  cv_.NotifyAll();
  SKEENA_RETURN_NOT_OK(s);

  server::ReplAck ack;
  {
    MutexLock guard(mu_);
    ack.mem_lsn = recv_lsn_[kMemIndex];
    ack.stor_lsn = recv_lsn_[kStorIndex];
    ack.csr_seq = csr_seq_;
  }
  return ch_.Send(server::EncodeReplAck((*rid)++, ack));
}

void Replica::RecomputeGate(Timestamp anchor_h, Timestamp other_h) {
  Timestamp a = anchor_h;
  Timestamp o = other_h;
  if (!gate_disabled_.load(std::memory_order_acquire)) {
    // Descending scan over replayed mappings (anchor key -> [lo, hi]
    // other-engine values). A mapping above the pair on either side drags
    // both components below it; the first mapping entirely inside stops
    // the scan — CSR values are monotone in key order, so every older
    // mapping is inside too.
    for (auto it = gate_mappings_.rbegin(); it != gate_mappings_.rend();
         ++it) {
      Timestamp key = it->first;
      Timestamp lo = it->second.first;
      Timestamp hi = it->second.second;
      if (key > a) {
        o = std::min(o, lo - 1);
        continue;
      }
      if (hi > o) {
        a = std::min(a, key - 1);
        o = std::min(o, lo - 1);
        continue;
      }
      break;
    }
  }
  MutexLock guard(gate_mu_);
  // Component-wise max keeps the gate monotone. A raw pair older than the
  // published one on one side cannot un-publish data already served.
  gate_anchor_ = std::max(gate_anchor_, a);
  gate_other_ = std::max(gate_other_, o);
}

}  // namespace skeena::repl
