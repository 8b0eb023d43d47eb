#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sgq {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    *error = "unix socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.data(), path.size());
  return true;
}

// With Nagle's algorithm a small write waits until the previous one is
// ACKed, and the peer delays that ACK by up to ~40 ms. A request written as
// header then payload, or a STREAM reply of chunk lines then a terminal
// line, would stall that long. Every message of the line protocol waits on
// its reply, so TCP sockets send at once.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool FillTcpAddr(const std::string& host, uint16_t port, sockaddr_in* addr,
                 std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    *error = "not an IPv4 address: " + host;
    return false;
  }
  return true;
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

UniqueFd ListenUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillUnixAddr(path, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = Errno("socket");
    return UniqueFd();
  }
  ::unlink(path.c_str());  // remove a stale socket file from a prior run
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = Errno("bind " + path);
    return UniqueFd();
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    *error = Errno("listen " + path);
    return UniqueFd();
  }
  return fd;
}

UniqueFd ListenTcp(const std::string& host, uint16_t port,
                   uint16_t* bound_port, std::string* error) {
  sockaddr_in addr;
  if (!FillTcpAddr(host, port, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = Errno("socket");
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  SetNoDelay(fd.get());  // Linux accepted sockets inherit it
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = Errno("bind " + host + ":" + std::to_string(port));
    return UniqueFd();
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    *error = Errno("listen");
    return UniqueFd();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      *error = Errno("getsockname");
      return UniqueFd();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

UniqueFd ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillUnixAddr(path, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = Errno("socket");
    return UniqueFd();
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = Errno("connect " + path);
    return UniqueFd();
  }
  return fd;
}

UniqueFd StartConnectTcp(const std::string& host, uint16_t port,
                         bool* in_progress, std::string* error) {
  sockaddr_in addr;
  if (!FillTcpAddr(host, port, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) {
    *error = Errno("socket");
    return UniqueFd();
  }
  *in_progress = false;
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      *error = Errno("connect " + host + ":" + std::to_string(port));
      return UniqueFd();
    }
    *in_progress = true;
    return fd;
  }
  if (!FinishConnectTcp(fd.get(), error)) return UniqueFd();
  return fd;
}

bool FinishConnectTcp(int fd, std::string* error) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    *error = Errno("getsockopt");
    return false;
  }
  if (so_error != 0) {
    *error = std::string("connect: ") + std::strerror(so_error);
    return false;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    *error = Errno("fcntl");
    return false;
  }
  SetNoDelay(fd);
  return true;
}

UniqueFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error) {
  bool in_progress = false;
  UniqueFd fd = StartConnectTcp(host, port, &in_progress, error);
  if (!in_progress) return fd;
  pollfd p{fd.get(), POLLOUT, 0};
  while (::poll(&p, 1, -1) < 0) {
    if (errno != EINTR) {
      *error = Errno("poll");
      return UniqueFd();
    }
  }
  if (!FinishConnectTcp(fd.get(), error)) return UniqueFd();
  return fd;
}

UniqueFd AcceptConnection(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) return UniqueFd(fd);
    if (errno != EINTR) return UniqueFd();
  }
}

int PollReadable(int fd, int timeout_ms) {
  pollfd p;
  p.fd = fd;
  p.events = POLLIN;
  p.revents = 0;
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc < 0) return errno == EINTR ? 0 : -1;
  if (rc == 0) return 0;
  // Treat HUP/ERR as readable: the next read reports EOF/error properly.
  return 1;
}

ssize_t ReadSome(int fd, char* buf, size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

bool WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE,
    // not kill the process — the router writes to shard connections that
    // can die at any moment.
    const ssize_t n = ::send(fd, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace sgq
