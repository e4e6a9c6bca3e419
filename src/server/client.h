#ifndef SKEENA_SERVER_CLIENT_H_
#define SKEENA_SERVER_CLIENT_H_

// C++ client for the SKNA wire protocol (docs/PROTOCOL.md). Two layers:
//
//  * A synchronous convenience API (Connect / OpenTable / Begin / Exec /
//    Commit / ...) — one request frame out, block until its response is
//    in. Used by examples and simple tests.
//  * A raw pipelined API (Send* / RecvResponse / SendRaw) that lets the
//    caller keep many requests in flight on one connection; responses
//    come back strictly in request order (PROTOCOL.md "Pipelining").
//    Used by the open-loop tail-latency bench and the protocol tests.
//
// A Client drives exactly one connection and is not thread-safe; open one
// per connection (the server multiplexes them).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "server/socket.h"
#include "server/wire.h"

namespace skeena::server {

/// A response frame as received: header fields plus the raw body, with
/// the per-opcode decode left to the caller (the pipelined API cannot
/// know which request a response answers; the caller can, by order).
struct Response {
  uint64_t request_id = 0;
  Op op = Op::kProtoErr;
  std::string body;

  bool is_err() const { return op == Op::kTxnErr || op == Op::kProtoErr; }
  /// For is_err() frames: decoded code (kInvalid if the body is mangled).
  Err err_code() const;
  std::string err_message() const;
  /// Projects an error response (or a non-error one) onto Status.
  Status ToStatus() const;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and performs the HELLO handshake.
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return conn_.connected(); }
  /// Raw socket (for poll()-based open-loop drivers). -1 when closed.
  int fd() const { return conn_.fd(); }
  /// Protocol version negotiated by the handshake.
  uint8_t negotiated_version() const { return negotiated_version_; }

  // ------------------------------------------------------------- sync API

  /// Resolves a table name to this connection's table_token.
  Result<uint32_t> OpenTable(const std::string& name);
  Status Begin(IsolationLevel iso = IsolationLevel::kSnapshot,
               GlobalTxnId* gtid = nullptr);
  /// Executes one batched EXEC frame; results pair 1:1 with stmts.
  Result<std::vector<StmtResult>> Exec(const std::vector<Stmt>& stmts);
  Status Commit();
  Status Abort();
  Status Ping();

  // Single-statement conveniences over Exec().
  Status Get(uint32_t table, const Key& key, std::string* value,
             bool* found);
  Status Put(uint32_t table, const Key& key, std::string_view value);

  // -------------------------------------------------------- pipelined API
  // Send* enqueue a frame on the socket and return its request_id without
  // waiting. RecvResponse blocks for the next response in order.

  uint64_t SendBegin(IsolationLevel iso = IsolationLevel::kSnapshot);
  uint64_t SendExec(const std::vector<Stmt>& stmts);
  uint64_t SendCommit();
  uint64_t SendAbort();
  uint64_t SendPing();
  /// Writes arbitrary bytes to the socket (malformed-frame tests).
  Status SendRaw(std::string_view bytes);
  /// Blocks until one full response frame arrives (or the peer closes:
  /// IOError). Framing violations from the server would be bugs; they
  /// surface as Corruption.
  Status RecvResponse(Response* rsp);

 private:
  uint64_t next_request_id() { return next_request_id_++; }
  /// Sync round-trip helper: sends `frame`, receives the response for it,
  /// and checks the opcode (error responses pass through for the caller).
  Status Call(std::string frame, Op expect, Response* rsp);

  FramedConn conn_;
  uint64_t next_request_id_ = 1;
  uint8_t negotiated_version_ = 0;
};

}  // namespace skeena::server

#endif  // SKEENA_SERVER_CLIENT_H_
