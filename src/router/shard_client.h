// Router-side client plumbing for one shard backend: endpoint addressing,
// a persistent line-protocol connection, and a per-shard connection pool.
// The connection does no waiting of its own: the scatter-gather loop
// (scatter_gather.cc) polls the sockets of all shards of a request at once
// and asks each ready connection for its bytes and complete lines.
//
// Failure handling is the caller's job: a connection that saw any error,
// or whose reply the deadline cut short (the rest of that reply may still
// arrive later), must be dropped, never checked back in, because the line
// protocol cannot be resynchronized.
#ifndef SGQ_ROUTER_SHARD_CLIENT_H_
#define SGQ_ROUTER_SHARD_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/socket.h"

namespace sgq {

// Where a shard server listens. Exactly one form: a Unix socket path or a
// TCP host:port.
struct ShardEndpoint {
  std::string unix_path;  // non-empty selects Unix
  std::string host;
  uint16_t port = 0;

  std::string ToString() const;
};

// One endpoint: "unix:/path", a bare absolute path (leading '/'), or
// "host:port".
bool ParseShardEndpoint(std::string_view text, ShardEndpoint* endpoint,
                        std::string* error);

// Comma-separated endpoint list, in shard order: element i serves shard
// i/N. Requires at least one element.
bool ParseShardEndpoints(std::string_view csv,
                         std::vector<ShardEndpoint>* endpoints,
                         std::string* error);

// Longest response line the router will buffer from a shard (an IDS line
// grows with the answer set, so this is generous).
inline constexpr size_t kMaxShardResponseLineBytes = 64 * 1024 * 1024;

// A single connection to a shard server. Not thread-safe; ownership moves
// between the pool and exactly one request's fan-out at a time.
class ShardConnection {
 public:
  explicit ShardConnection(ShardEndpoint endpoint)
      : endpoint_(std::move(endpoint)) {}

  // Connects if not already connected. A TCP handshake may still be in
  // flight on return: connecting() is then true, and the caller polls fd()
  // for POLLOUT and calls FinishConnect() before sending. False + *error
  // on failure.
  bool Connect(std::string* error);
  bool connecting() const { return connecting_; }
  // Completes the handshake Connect() started. False + *error when it
  // failed; the socket is closed then.
  bool FinishConnect(std::string* error);
  bool connected() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  // True when this object had a live connection before the current
  // request — i.e. a send/read failure may just mean the pooled socket
  // went stale, and the caller should retry once on a fresh connection.
  bool reused() const { return reused_; }

  bool Send(std::string_view bytes, std::string* error);

  // Appends the bytes the socket has now to the buffer: one read(2), to
  // be called when poll() reports the socket readable. False + *error on
  // EOF, socket error or a line longer than kMaxShardResponseLineBytes;
  // the socket is closed then.
  bool ReadAvailable(std::string* error);

  // Takes the next complete line (terminator stripped) out of the buffer;
  // false when no complete line is buffered. Scanning resumes where the
  // last call stopped, so a line that arrives in many reads is scanned
  // once. The view stays valid until the next ReadAvailable.
  bool NextLine(std::string_view* line);

  const ShardEndpoint& endpoint() const { return endpoint_; }

 private:
  ShardEndpoint endpoint_;
  UniqueFd fd_;
  // buffer_[0, consumed_) has been handed out as lines; buffer_[consumed_,
  // scanned_) holds no newline.
  std::string buffer_;
  size_t consumed_ = 0;
  size_t scanned_ = 0;
  bool reused_ = false;
  bool connecting_ = false;
};

// Keeps idle connections per shard so consecutive requests reuse sockets.
// Checkout hands ownership to the caller; CheckIn returns a *healthy*
// connection after a complete request/response exchange. Dropping the
// unique_ptr instead is how failed connections leave the pool.
class ShardConnectionPool {
 public:
  explicit ShardConnectionPool(std::vector<ShardEndpoint> endpoints)
      : endpoints_(std::move(endpoints)), idle_(endpoints_.size()) {}

  size_t size() const { return endpoints_.size(); }
  const ShardEndpoint& endpoint(size_t shard) const {
    return endpoints_[shard];
  }

  // Pooled connection for `shard` if one is idle, else a fresh
  // (unconnected) one.
  std::unique_ptr<ShardConnection> Checkout(size_t shard);
  void CheckIn(size_t shard, std::unique_ptr<ShardConnection> connection);

 private:
  std::mutex mu_;
  const std::vector<ShardEndpoint> endpoints_;
  std::vector<std::vector<std::unique_ptr<ShardConnection>>> idle_;
};

}  // namespace sgq

#endif  // SGQ_ROUTER_SHARD_CLIENT_H_
