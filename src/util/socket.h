// Thin POSIX socket helpers for the query service front end: RAII file
// descriptors, Unix-domain and TCP listeners/connectors, EINTR-safe
// read/write, and a poll helper the serve loops use to stay responsive to
// shutdown. Everything reports errors through an out-string instead of
// errno spelunking at the call sites.
#ifndef SGQ_UTIL_SOCKET_H_
#define SGQ_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>

namespace sgq {

// Owns a file descriptor; closes it on destruction. Movable, not copyable.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

// Creates a listening Unix-domain stream socket at `path`, unlinking any
// stale socket file first. Invalid UniqueFd + *error on failure.
UniqueFd ListenUnix(const std::string& path, std::string* error);

// Creates a listening TCP socket bound to host:port (port 0 picks an
// ephemeral port, reported via *bound_port, which may be null). The
// listener has TCP_NODELAY set, so the sockets it accepts have it too.
UniqueFd ListenTcp(const std::string& host, uint16_t port,
                   uint16_t* bound_port, std::string* error);

// Client-side connects. TCP sockets get TCP_NODELAY.
UniqueFd ConnectUnix(const std::string& path, std::string* error);
UniqueFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error);

// ConnectTcp in two halves, for callers that must not wait on one
// handshake: a peer that never completes it would hold a blocking
// connect(2) for the kernel's SYN retries, about two minutes.
// StartConnectTcp never waits: when the handshake is still in flight it
// sets *in_progress, and the caller polls the socket for POLLOUT, up to its
// own deadline, then calls FinishConnectTcp, which reads the outcome and
// puts the socket in blocking mode.
UniqueFd StartConnectTcp(const std::string& host, uint16_t port,
                         bool* in_progress, std::string* error);
bool FinishConnectTcp(int fd, std::string* error);

// Accepts one connection; -1-valued UniqueFd on error (EINTR retried).
UniqueFd AcceptConnection(int listener_fd);

// Blocks up to timeout_ms for fd to become readable. Returns 1 when
// readable, 0 on timeout, -1 on error. EINTR counts as a timeout so
// callers re-check their stop flag.
int PollReadable(int fd, int timeout_ms);

// EINTR-retrying single read; same contract as read(2) otherwise
// (0 = EOF, -1 = error).
ssize_t ReadSome(int fd, char* buf, size_t len);

// Writes the whole buffer, retrying on EINTR and short writes. False on
// error (e.g. the peer closed the connection — reported as EPIPE, never
// SIGPIPE; fd must be a socket).
bool WriteAll(int fd, std::string_view data);

}  // namespace sgq

#endif  // SGQ_UTIL_SOCKET_H_
