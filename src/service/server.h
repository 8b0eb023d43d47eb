// Socket front end for QueryService: accepts connections on a Unix-domain
// or TCP socket, speaks the line protocol of service/protocol.h, and
// shuts down gracefully — stop is requested asynchronously (safe from a
// signal handler), after which the listener closes, admitted queries
// drain, every connection gets its pending responses, and the threads
// join.
//
// The serve loop lives in the library (not the tool) so tests can run a
// real server in-process over a Unix socket, including under TSan.
#ifndef SGQ_SERVICE_SERVER_H_
#define SGQ_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "service/protocol.h"
#include "service/query_service.h"
#include "util/connection_threads.h"
#include "util/socket.h"

namespace sgq {

struct ServerConfig {
  // Exactly one of the two: a Unix socket path, or a TCP port (with
  // `port == 0` picking an ephemeral port, see port()).
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;  // >= 0 enables TCP when unix_path is empty

  size_t max_payload_bytes = kDefaultMaxPayloadBytes;
  // Database file served at startup; also the default RELOAD target.
  std::string db_path;
  // Shard identity (`--shard-of i/M`). With shard_count > 1 the server
  // keeps only its own slice of the database (see router/shard_map.h) and
  // reports answers under their global ids; RELOAD re-applies the filter.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

class SocketServer {
 public:
  SocketServer(ServerConfig server_config, ServiceConfig service_config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Prepares the service over `db`, binds the socket, and starts serving
  // in background threads. False + *error on any failure.
  bool Start(GraphDatabase db, std::string* error);

  // Resolved TCP port (after Start with port 0); 0 for Unix sockets.
  uint16_t port() const { return port_; }

  // Initiates graceful shutdown. Async-signal-safe: only flips an atomic
  // and writes one byte to a pipe. Idempotent.
  void RequestStop();

  // Blocks until the server has fully stopped (listener closed, queries
  // drained, all threads joined). Call once, after Start succeeded.
  void Wait();

  ServiceStatsSnapshot Stats() const { return service_.Stats(); }

 private:
  void AcceptLoop();
  void HandleConnection(UniqueFd fd);
  // Returns false when the connection should close.
  bool Dispatch(int fd, const Request& request);

  const ServerConfig config_;
  QueryService service_;
  UniqueFd listener_;
  UniqueFd stop_pipe_rd_, stop_pipe_wr_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  ConnectionThreads connections_;
  uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace sgq

#endif  // SGQ_SERVICE_SERVER_H_
