#include "server/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace skeena::server {

namespace {

Status ErrnoError(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

Status ParseAddress(const std::string& host, uint16_t port,
                    sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + host);
  }
  return Status::OK();
}

/// Closes `fd` and returns `s` (the failure paths below).
Status CloseWith(int fd, Status s) {
  ::close(fd);
  return s;
}

}  // namespace

Result<Listener> ListenTcp(const std::string& host, uint16_t port,
                           bool nonblocking) {
  sockaddr_in addr;
  SKEENA_RETURN_NOT_OK(ParseAddress(host, port, &addr));
  int type = SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0);
  int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) return ErrnoError("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return CloseWith(fd, ErrnoError("bind"));
  }
  if (::listen(fd, 128) != 0) return CloseWith(fd, ErrnoError("listen"));
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return CloseWith(fd, ErrnoError("getsockname"));
  }
  return Listener{fd, ntohs(addr.sin_port)};
}

Status FramedConn::Connect(const std::string& host, uint16_t port) {
  Close();
  sockaddr_in addr;
  SKEENA_RETURN_NOT_OK(ParseAddress(host, port, &addr));
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoError("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return CloseWith(fd, ErrnoError("connect"));
  }
  Adopt(fd);
  return Status::OK();
}

void FramedConn::Adopt(int fd) {
  Close();
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_.store(fd, std::memory_order_release);
}

Status FramedConn::Send(std::string_view bytes) {
  int fd = this->fd();
  if (fd < 0) return Status::IOError("not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrnoError("send");
  }
  return Status::OK();
}

Status FramedConn::Receive(Frame* frame, bool wait, bool* got) {
  *got = false;
  for (;;) {
    size_t consumed = 0;
    Err err;
    uint64_t hint;
    ParseResult r = ExtractFrame(inbuf_, &consumed, frame, &err, &hint);
    if (r == ParseResult::kFrame) {
      inbuf_.erase(0, consumed);
      *got = true;
      return Status::OK();
    }
    if (r == ParseResult::kError) {
      return Status::Corruption(std::string("framing violation: ") +
                                ErrName(err));
    }
    int fd = this->fd();
    if (fd < 0) return Status::IOError("not connected");
    char buf[16384];
    ssize_t n = ::recv(fd, buf, sizeof(buf), wait ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("connection closed by peer");
    if (errno == EINTR) continue;
    if (!wait && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::OK();
    }
    return ErrnoError("recv");
  }
}

Status FramedConn::Recv(Frame* frame) {
  bool got;
  return Receive(frame, /*wait=*/true, &got);
}

bool FramedConn::TryRecv(Frame* frame, Status* error) {
  bool got;
  *error = Receive(frame, /*wait=*/false, &got);
  return got;
}

void FramedConn::Shutdown() {
  int fd = this->fd();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void FramedConn::Close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
  inbuf_.clear();
}

}  // namespace skeena::server
