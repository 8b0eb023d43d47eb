// The scatter-gather executor behind sgq_router: fans one client request
// out to every shard over pooled connections, gathers the per-shard
// replies, and merges them into the answer a single unsharded server would
// have produced.
//
// Merge contract (kept in lockstep with router/shard_map.h):
//   * Shards partition the database, and shard servers report answers
//     under global ids — so the per-shard answer sets are disjoint and
//     their sorted union IS the unsharded answer set.
//   * LIMIT k is forwarded to every shard (each shard's k smallest global
//     ids are a superset of its contribution to the global top-k) and
//     re-applied after the merge, so the result is bit-identical to an
//     unsharded LIMIT k.
//   * Stats: pure counters are summed; filtering_ms/verification_ms take
//     the max across shards (the shards run in parallel, so the slowest
//     one is the wall-clock estimate — the convention of query/stats.h);
//     timed_out ORs.
//
// Partial failures follow an explicit policy: kError turns any shard
// failure into an OVERLOADED response (the client retries against a
// healthy fleet), kDegraded merges the surviving shards and reports
// shards_ok < shards_total in the stats json. A shard that answers
// OVERLOADED propagates as OVERLOADED under either policy — that is
// backpressure, not death, and silently dropping its graphs would turn a
// retryable condition into missing data.
#ifndef SGQ_ROUTER_SCATTER_GATHER_H_
#define SGQ_ROUTER_SCATTER_GATHER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "query/result_sink.h"
#include "router/shard_client.h"
#include "service/protocol.h"
#include "util/deadline.h"

namespace sgq {

enum class ShardFailurePolicy {
  kError,     // any shard failure fails the whole request
  kDegraded,  // merge survivors, flag shards_ok < shards_total
};

// "error" | "degraded".
bool ParseShardFailurePolicy(std::string_view text, ShardFailurePolicy* policy);
const char* ToString(ShardFailurePolicy policy);

struct RouterConfig {
  std::vector<ShardEndpoint> shards;  // element i serves shard i/N
  ShardFailurePolicy on_shard_failure = ShardFailurePolicy::kError;
  double default_timeout_seconds = 600;
  // Deadline for fan-out of the admin verbs (STATS / RELOAD / CACHE
  // CLEAR / SHUTDOWN); RELOAD re-prepares every engine, so this is far
  // looser than the query default.
  double admin_timeout_seconds = 3600;
  bool forward_shutdown = true;  // SHUTDOWN also shuts the shards down
};

// One shard's contribution to a query, as gathered off the wire.
struct ShardQueryReply {
  bool ok = false;          // well-formed OK/TIMEOUT with a matching IDS line
  bool overloaded = false;  // shard said OVERLOADED (only when !ok)
  bool timed_out = false;   // shard said TIMEOUT
  QueryStats stats;         // parsed stats json (ok replies only)
  std::vector<GraphId> ids;
  std::string error;        // failure detail (only when !ok)
};

// A merged query outcome, ready for response formatting.
struct MergedQuery {
  bool ok = false;      // false: respond OVERLOADED with `detail`
  std::string detail;
  QueryResult result;   // merged answers + stats; limit already applied
  ShardHealth shards;
};

// Pure merge step, exposed for router_test: combines the shard replies
// under `policy`, applying `limit` post-merge. Deterministic in the reply
// *contents* — the order replies arrive in never changes the output.
MergedQuery MergeShardResults(const std::vector<ShardQueryReply>& replies,
                              ShardFailurePolicy policy, uint64_t limit);

struct RouterStatsSnapshot {
  uint64_t received = 0;         // QUERY requests fanned out
  uint64_t merged_ok = 0;
  uint64_t merged_timeout = 0;
  uint64_t failed = 0;           // OVERLOADED responses (policy/overload)
  uint64_t degraded = 0;         // merged with shards_ok < shards_total
  uint64_t shard_failures = 0;   // individual failed shard exchanges
  uint64_t retries = 0;          // stale pooled connection, retried fresh
  uint32_t shards_total = 0;

  std::string ToJson() const;
};

// Thread-safe: any number of router connection threads may call Query()
// and Broadcast() concurrently. Each call does its whole fan-out on the
// calling thread: it sends the request on every shard's pooled connection,
// then one poll() loop reads all shard sockets until every reply is
// complete or the deadline passes. Calls share only the connection pool
// and the stats counters.
class ScatterGather {
 public:
  explicit ScatterGather(RouterConfig config);

  // Fans `graph_text` out as `QUERY <len> <timeout> [LIMIT k] IDS` to all
  // shards and merges. `timeout_seconds <= 0` uses the config default;
  // the remaining budget at the send is what the shards see, and the poll
  // loop waits no longer than that budget, so a dead or silent shard
  // consumes deadline, never hangs the router.
  MergedQuery Query(const std::string& graph_text, double timeout_seconds,
                    uint64_t limit);

  // Streaming fan-out: queries every shard with STREAM and pushes the
  // merged ascending global-id sequence to `sink` incrementally — an id is
  // forwarded as soon as every shard that could still produce a smaller id
  // has streamed past it (shard streams are ascending and disjoint, so the
  // k-way merge of the chunk fronts is exactly the sorted union). With
  // limit > 0 only the first `limit` merged ids reach the sink (the
  // post-merge LIMIT cut; each shard is also sent LIMIT k, bounding its
  // stream). The returned MergedQuery is identical to the batch overload's
  // for the same replies. On a mid-stream shard failure ids may already
  // have been forwarded — the caller must signal the failure in its
  // terminal line rather than pretend the prefix is complete. The sink is
  // written from the poll loop and blocks it: a client that stops reading
  // holds up the shards, as with a direct server. A null sink falls back
  // to the batch overload.
  MergedQuery Query(const std::string& graph_text, double timeout_seconds,
                    uint64_t limit, ResultSink* sink);

  struct BroadcastReply {
    bool ok = false;    // got a response line
    std::string line;   // the shard's response line (when ok)
    std::string error;  // failure detail (when !ok)
  };

  // Sends one command line (newline appended here) to every shard and
  // collects one response line each, within admin_timeout_seconds.
  std::vector<BroadcastReply> Broadcast(const std::string& command_line);

  // Targeted exchange with one shard (live mutations route to the graph's
  // splitmix64 owner, not the fleet): sends `request` verbatim — the caller
  // includes the newline and any length-prefixed payload — and reads one
  // response line, within admin_timeout_seconds. The one-retry rule for
  // stale pooled sockets applies; ADD/REMOVE are idempotent in effect
  // (re-adding under the same forced id fails id-monotonicity, re-removing
  // reports the graph gone), so a duplicate delivery cannot double-apply.
  BroadcastReply SendToShard(size_t shard, const std::string& request);

  RouterStatsSnapshot Stats() const;

  const RouterConfig& config() const { return config_; }

 private:
  // One shard's side of a fan-out (defined in the .cc).
  struct Exchange;

  // Sends `request` to the shard of every exchange and reads every reply,
  // in the shape the exchange expects, to its end or to `deadline`, all
  // on the calling thread. A *reused* pooled socket that fails before any
  // reply byte arrived (the shard restarted between requests) is
  // re-dialed and re-sent once, counted in `retries`; every other failure
  // is final. Connections go back to the pool only after a complete
  // reply. With a sink (STREAM exchanges), order-safe ids are forwarded
  // from the same loop, the first `limit` of them (0: all).
  void Gather(std::vector<Exchange>* exchanges, const std::string& request,
              Deadline deadline, ResultSink* sink, uint64_t limit);

  const RouterConfig config_;
  ShardConnectionPool pool_;

  mutable std::mutex stats_mu_;
  RouterStatsSnapshot stats_;
};

}  // namespace sgq

#endif  // SGQ_ROUTER_SCATTER_GATHER_H_
