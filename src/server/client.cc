#include "server/client.h"

namespace skeena::server {

Err Response::err_code() const {
  Err code;
  std::string msg;
  if (!DecodeErrBody(body, &code, &msg)) return Err::kInvalid;
  return code;
}

std::string Response::err_message() const {
  Err code;
  std::string msg;
  if (!DecodeErrBody(body, &code, &msg)) return "mangled error body";
  return msg;
}

Status Response::ToStatus() const {
  if (!is_err()) return Status::OK();
  return ErrToStatus(err_code(), err_message());
}

Client::~Client() { Close(); }

void Client::Close() {
  conn_.Close();
  negotiated_version_ = 0;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  SKEENA_RETURN_NOT_OK(conn_.Connect(host, port));
  // Handshake.
  Response rsp;
  Status s = Call(EncodeHello(next_request_id()), Op::kHelloOk, &rsp);
  if (!s.ok()) {
    Close();
    return s;
  }
  uint8_t flags;
  if (!DecodeHelloOkBody(rsp.body, &negotiated_version_, &flags)) {
    Close();
    return Status::Corruption("mangled HELLO_OK");
  }
  return Status::OK();
}

Status Client::RecvResponse(Response* rsp) {
  Frame f;
  SKEENA_RETURN_NOT_OK(conn_.Recv(&f));
  rsp->request_id = f.request_id;
  rsp->op = static_cast<Op>(f.opcode);
  rsp->body = std::move(f.body);
  return Status::OK();
}

Status Client::Call(std::string frame, Op expect, Response* rsp) {
  SKEENA_RETURN_NOT_OK(conn_.Send(frame));
  SKEENA_RETURN_NOT_OK(RecvResponse(rsp));
  if (rsp->is_err()) return rsp->ToStatus();
  if (rsp->op != expect) {
    return Status::Corruption("unexpected response opcode");
  }
  return Status::OK();
}

Result<uint32_t> Client::OpenTable(const std::string& name) {
  Response rsp;
  SKEENA_RETURN_NOT_OK(Call(EncodeOpenTable(next_request_id(), name),
                            Op::kTableOk, &rsp));
  uint32_t token;
  EngineKind engine;
  if (!DecodeTableOkBody(rsp.body, &token, &engine)) {
    return Status::Corruption("mangled TABLE_OK");
  }
  return token;
}

Status Client::Begin(IsolationLevel iso, GlobalTxnId* gtid) {
  Response rsp;
  SKEENA_RETURN_NOT_OK(
      Call(EncodeBegin(next_request_id(), iso), Op::kBeginOk, &rsp));
  GlobalTxnId g;
  if (!DecodeBeginOkBody(rsp.body, &g)) {
    return Status::Corruption("mangled BEGIN_OK");
  }
  if (gtid != nullptr) *gtid = g;
  return Status::OK();
}

Result<std::vector<StmtResult>> Client::Exec(const std::vector<Stmt>& stmts) {
  Response rsp;
  SKEENA_RETURN_NOT_OK(
      Call(EncodeExec(next_request_id(), stmts), Op::kExecOk, &rsp));
  std::vector<Stmt::Kind> kinds;
  kinds.reserve(stmts.size());
  for (const Stmt& s : stmts) kinds.push_back(s.kind);
  std::vector<StmtResult> results;
  if (!DecodeExecOkBody(rsp.body, kinds, &results)) {
    return Status::Corruption("mangled EXEC_OK");
  }
  return results;
}

Status Client::Commit() {
  Response rsp;
  return Call(EncodeCommit(next_request_id()), Op::kCommitOk, &rsp);
}

Status Client::Abort() {
  Response rsp;
  return Call(EncodeAbort(next_request_id()), Op::kAbortOk, &rsp);
}

Status Client::Ping() {
  Response rsp;
  return Call(EncodePing(next_request_id()), Op::kPong, &rsp);
}

Status Client::Get(uint32_t table, const Key& key, std::string* value,
                   bool* found) {
  auto results = Exec({Stmt::Get(table, key)});
  if (!results.ok()) return results.status();
  const StmtResult& r = (*results)[0];
  if (r.status != Err::kOk) return ErrToStatus(r.status, "GET failed");
  *found = r.found;
  if (r.found && value != nullptr) *value = r.value;
  return Status::OK();
}

Status Client::Put(uint32_t table, const Key& key, std::string_view value) {
  auto results = Exec({Stmt::Put(table, key, value)});
  if (!results.ok()) return results.status();
  const StmtResult& r = (*results)[0];
  if (r.status != Err::kOk) return ErrToStatus(r.status, "PUT failed");
  return Status::OK();
}

uint64_t Client::SendBegin(IsolationLevel iso) {
  uint64_t rid = next_request_id();
  conn_.Send(EncodeBegin(rid, iso));
  return rid;
}

uint64_t Client::SendExec(const std::vector<Stmt>& stmts) {
  uint64_t rid = next_request_id();
  conn_.Send(EncodeExec(rid, stmts));
  return rid;
}

uint64_t Client::SendCommit() {
  uint64_t rid = next_request_id();
  conn_.Send(EncodeCommit(rid));
  return rid;
}

uint64_t Client::SendAbort() {
  uint64_t rid = next_request_id();
  conn_.Send(EncodeAbort(rid));
  return rid;
}

uint64_t Client::SendPing() {
  uint64_t rid = next_request_id();
  conn_.Send(EncodePing(rid));
  return rid;
}

Status Client::SendRaw(std::string_view bytes) { return conn_.Send(bytes); }

}  // namespace skeena::server
