#ifndef SKEENA_SERVER_SOCKET_H_
#define SKEENA_SERVER_SOCKET_H_

// The one SKNA socket layer below the server's event loop: a TCP listener
// helper (the server and the replication shipper both listen through it)
// and a blocking framed connection (the client and both ends of the
// replication link each drive one). Frames are the SKNA frames of
// docs/PROTOCOL.md, cut from the byte stream by ExtractFrame (wire.h).
//
// A FramedConn is driven from a single thread (the client's caller, the
// shipper's serve loop, the replica's run loop), so its buffer needs no
// locking; only Shutdown() is cross-thread, used to break a blocked
// Send/Recv from outside.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "server/wire.h"

namespace skeena::server {

/// A listening TCP socket and the port it is bound to.
struct Listener {
  int fd = -1;
  uint16_t port = 0;
};

/// Creates a TCP socket (SO_REUSEADDR, close-on-exec, non-blocking if
/// asked), binds it to host:port (IPv4 dotted quad; port 0 lets the kernel
/// pick, read back in Listener::port) and listens. On every failure the
/// socket is closed before the error returns.
Result<Listener> ListenTcp(const std::string& host, uint16_t port,
                           bool nonblocking);

class FramedConn {
 public:
  FramedConn() = default;
  ~FramedConn() { Close(); }

  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  /// Connects to host:port (IPv4 dotted quad) with TCP_NODELAY. Any
  /// previous connection is closed first.
  Status Connect(const std::string& host, uint16_t port);

  /// Takes ownership of an already-connected fd (an accepted socket, one
  /// end of a socketpair) and sets TCP_NODELAY on it where it applies.
  void Adopt(int fd);

  bool connected() const { return fd() >= 0; }
  /// The raw socket, -1 when closed.
  int fd() const { return fd_.load(std::memory_order_acquire); }

  /// Writes all of `bytes` (partial sends and EINTR retried; MSG_NOSIGNAL).
  Status Send(std::string_view bytes);

  /// Blocks until one complete frame is parsed. IOError on peer close,
  /// Shutdown() or a socket error; Corruption on a framing violation (the
  /// stream cannot be resynchronized; the caller must drop the connection).
  Status Recv(Frame* frame);

  /// Non-blocking: parses a buffered frame or reads whatever the socket
  /// already has. Returns true with *frame filled when a complete frame was
  /// available. Otherwise returns false with *error OK (no frame yet) or
  /// non-OK (the stream failed, as for Recv).
  bool TryRecv(Frame* frame, Status* error);

  /// Thread-safe: fails any blocked Send/Recv. The fd itself is reclaimed
  /// by Close() or the destructor on the owning thread.
  void Shutdown();

  /// Closes the fd and discards buffered partial input (a killed
  /// connection's torn frame must not leak into the next session).
  void Close();

 private:
  /// The parse/recv loop behind Recv and TryRecv. Sets *got when a frame
  /// was parsed; with `wait` false it returns OK and leaves *got false once
  /// the socket has nothing more to read.
  Status Receive(Frame* frame, bool wait, bool* got);

  std::atomic<int> fd_{-1};
  std::string inbuf_;
};

}  // namespace skeena::server

#endif  // SKEENA_SERVER_SOCKET_H_
