// Socket front end for the scatter-gather router: accepts client
// connections on a Unix or TCP socket, speaks the same line protocol as
// sgq_server (clients cannot tell a router from a single server, except
// for the shards_ok/shards_total fields in query stats), and fans every
// request out through a ScatterGather executor.
//
// Verb handling:
//   QUERY        scatter to all shards with IDS, merge (scatter_gather.h)
//   ADD GRAPH    assign the next global id, forward to the id's splitmix64
//                owner shard as `ADD GRAPH <len> ID <gid>`, selectively
//                invalidate the router cache (feature subsumption)
//   REMOVE GRAPH forward to the owner shard, selectively invalidate the
//                router cache (answer membership)
//   STATS        router counters + every shard's stats json, one object
//   RELOAD       broadcast; strict — all shards must reload or the router
//                reports OVERLOADED (a half-reloaded fleet would serve a
//                frankenstein database)
//   CACHE CLEAR  broadcast; strict for the same reason
//   SHUTDOWN     BYE to the client, optionally SHUTDOWN to the shards,
//                then graceful stop
//
// The router owns the global id space for ADDs: ids are handed out
// monotonically from a counter initialized lazily to the max
// next_global_id any shard reports in STATS (so it resumes correctly
// against a fleet that already absorbed mutations). Mutations serialize on
// one router-side mutex — the shard rejects out-of-order forced ids, so
// two concurrent ADDs racing to the same shard must not reorder on the
// wire.
//
// The serve loop lives in the library so tests can run router + shards
// in-process over Unix sockets, including under TSan.
#ifndef SGQ_ROUTER_ROUTER_SERVER_H_
#define SGQ_ROUTER_ROUTER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cache/result_cache.h"
#include "router/scatter_gather.h"
#include "service/protocol.h"
#include "util/connection_threads.h"
#include "util/socket.h"

namespace sgq {

struct RouterServerConfig {
  // Exactly one of the two, as in ServerConfig.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;

  size_t max_payload_bytes = kDefaultMaxPayloadBytes;

  // Router-side result cache over merged full-query results (0 disables;
  // the SGQ_CACHE environment variable can force it off regardless). Only
  // complete, fully-healthy, non-streamed batch results are stored —
  // LIMIT requests are served from a full cached result by prefix, and a
  // successful RELOAD or CACHE CLEAR broadcast invalidates everything.
  uint32_t cache_mb = 0;
  uint32_t cache_shards = 8;
};

class RouterServer {
 public:
  RouterServer(RouterServerConfig server_config, RouterConfig router_config);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  // Binds the socket and starts serving in background threads. Does NOT
  // contact the shards — connections are dialed lazily per request, so
  // the fleet can come up in any order.
  bool Start(std::string* error);

  uint16_t port() const { return port_; }

  // Async-signal-safe graceful stop; idempotent.
  void RequestStop();

  // Blocks until fully stopped. Call once, after Start succeeded.
  void Wait();

  RouterStatsSnapshot Stats() const { return scatter_.Stats(); }

 private:
  void AcceptLoop();
  void HandleConnection(UniqueFd fd);
  bool Dispatch(int fd, const Request& request);
  bool DispatchQuery(int fd, const Request& request);
  bool DispatchStats(int fd);
  bool DispatchBroadcast(int fd, const Request& request);
  bool DispatchMutation(int fd, const Request& request);
  // Initializes next_global_id_ from the fleet's STATS on the first
  // mutation (mutation_mu_ held). False + *error if any shard is
  // unreachable — id assignment must never guess.
  bool EnsureNextGlobalIdLocked(std::string* error);

  const RouterServerConfig config_;
  ScatterGather scatter_;
  // Serializes ADD/REMOVE and guards the id counter (see file comment).
  std::mutex mutation_mu_;
  GraphId next_global_id_ = 0;
  bool next_global_id_known_ = false;
  // Internally synchronized; keyed on (epoch, "router", canonical query
  // hash), so relabeled-isomorphic queries hit the same merged result.
  std::unique_ptr<ResultCache> cache_;
  std::atomic<uint64_t> bad_requests_{0};  // codec failures, for STATS
  UniqueFd listener_;
  UniqueFd stop_pipe_rd_, stop_pipe_wr_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  ConnectionThreads connections_;
  uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace sgq

#endif  // SGQ_ROUTER_ROUTER_SERVER_H_
