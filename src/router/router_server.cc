#include "router/router_server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "cache/canonical.h"
#include "graph/graph_io.h"
#include "router/shard_map.h"
#include "service/stream_sink.h"

namespace sgq {

namespace {

// Stop-flag poll cadence for idle client connections (matches server.cc).
constexpr int kConnectionPollMs = 100;

bool ReadFileToString(const std::string& path, std::string* contents,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *contents = buffer.str();
  return true;
}

// "OK reloaded <n> graphs" -> n. False for any other line.
bool ParseReloadedCount(std::string_view line, uint64_t* count) {
  constexpr std::string_view kPrefix = "OK reloaded ";
  if (line.rfind(kPrefix, 0) != 0) return false;
  std::string_view rest = line.substr(kPrefix.size());
  const size_t space = rest.find(' ');
  if (space == std::string_view::npos || rest.substr(space + 1) != "graphs") {
    return false;
  }
  rest = rest.substr(0, space);
  if (rest.empty() || rest.size() > 18) return false;
  uint64_t value = 0;
  for (const char c : rest) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *count = value;
  return true;
}

// Pulls "next_global_id":<n> out of a shard's flat stats json (it lives in
// the nested "update" object; the key is unique within the document).
bool ParseNextGlobalId(std::string_view json, uint64_t* next) {
  constexpr std::string_view kKey = "\"next_global_id\":";
  const size_t pos = json.find(kKey);
  if (pos == std::string_view::npos) return false;
  size_t i = pos + kKey.size();
  if (i >= json.size() || json[i] < '0' || json[i] > '9') return false;
  uint64_t value = 0;
  while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
    value = value * 10 + static_cast<uint64_t>(json[i] - '0');
    ++i;
  }
  *next = value;
  return true;
}

}  // namespace

RouterServer::RouterServer(RouterServerConfig server_config,
                           RouterConfig router_config)
    : config_(std::move(server_config)),
      scatter_(std::move(router_config)) {
  CacheConfig cache_config;
  cache_config.enabled = config_.cache_mb > 0;
  cache_config.max_bytes = static_cast<size_t>(config_.cache_mb) << 20;
  cache_config.shards = std::max<uint32_t>(1, config_.cache_shards);
  cache_ = std::make_unique<ResultCache>(cache_config);
}

RouterServer::~RouterServer() {
  RequestStop();
  if (started_) Wait();
}

bool RouterServer::Start(std::string* error) {
  if (started_) {
    *error = "router already started";
    return false;
  }
  if (config_.unix_path.empty() && config_.port < 0) {
    *error = "set RouterServerConfig::unix_path or RouterServerConfig::port";
    return false;
  }
  if (scatter_.config().shards.empty()) {
    *error = "no shard endpoints configured";
    return false;
  }
  if (!config_.unix_path.empty()) {
    listener_ = ListenUnix(config_.unix_path, error);
  } else {
    listener_ = ListenTcp(config_.host, static_cast<uint16_t>(config_.port),
                          &port_, error);
  }
  if (!listener_.valid()) return false;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe() failed";
    listener_.Reset();
    return false;
  }
  stop_pipe_rd_ = UniqueFd(pipe_fds[0]);
  stop_pipe_wr_ = UniqueFd(pipe_fds[1]);
  started_ = true;
  accept_thread_ = std::thread(&RouterServer::AcceptLoop, this);
  return true;
}

void RouterServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_wr_.valid()) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_wr_.get(), &byte, 1);
  }
}

void RouterServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void RouterServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listener_.get(), POLLIN, 0};
    fds[1] = {stop_pipe_rd_.get(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) continue;  // EINTR
    if (fds[1].revents != 0 || stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if (fds[0].revents == 0) continue;
    UniqueFd conn = AcceptConnection(listener_.get());
    if (!conn.valid()) continue;
    connections_.Spawn([this, conn = std::move(conn)]() mutable {
      HandleConnection(std::move(conn));
    });
  }
  listener_.Reset();
  connections_.JoinAll();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void RouterServer::HandleConnection(UniqueFd fd) {
  RequestParser parser(config_.max_payload_bytes);
  char buf[4096];
  for (;;) {
    Request request;
    std::string parse_error;
    const RequestParser::Status status = parser.Next(&request, &parse_error);
    if (status == RequestParser::Status::kReady) {
      if (!Dispatch(fd.get(), request)) return;
      continue;
    }
    if (status == RequestParser::Status::kError) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      WriteAll(fd.get(), FormatBadRequestResponse(parse_error));
      return;  // protocol errors are terminal
    }
    const int ready = PollReadable(fd.get(), kConnectionPollMs);
    if (ready < 0) return;
    if (ready == 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    const ssize_t n = ReadSome(fd.get(), buf, sizeof(buf));
    if (n <= 0) return;
    parser.Feed({buf, static_cast<size_t>(n)});
  }
}

bool RouterServer::Dispatch(int fd, const Request& request) {
  switch (request.verb) {
    case Request::Verb::kQuery:
      return DispatchQuery(fd, request);
    case Request::Verb::kStats:
      return DispatchStats(fd);
    case Request::Verb::kAddGraph:
    case Request::Verb::kRemoveGraph:
      return DispatchMutation(fd, request);
    case Request::Verb::kReload:
    case Request::Verb::kCacheClear:
      return DispatchBroadcast(fd, request);
    case Request::Verb::kShutdown: {
      WriteAll(fd, std::string(kByeResponse));
      if (scatter_.config().forward_shutdown) {
        scatter_.Broadcast("SHUTDOWN");
      }
      RequestStop();
      return false;
    }
  }
  return false;
}

bool RouterServer::DispatchQuery(int fd, const Request& request) {
  std::string text = request.graph_text;
  std::string error;
  // QUERY @path resolves on the router's filesystem; shards always get
  // the graph inline, so they need no shared view of the path.
  if (!request.file_ref.empty() &&
      !ReadFileToString(request.file_ref, &text, &error)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, FormatBadRequestResponse(error));
  }

  if (request.stream) {
    // Streamed queries bypass the router cache: the scatter-gather merge
    // forwards shard chunks as they arrive, and a partial (LIMIT) stream
    // is not a cacheable full result anyway.
    SocketStreamSink sink(fd);
    MergedQuery merged = scatter_.Query(text, request.timeout_seconds,
                                        request.limit, &sink);
    if (!merged.ok) {
      // Chunks may already be on the wire; the OVERLOADED terminal line
      // tells the client to discard the partial stream.
      return WriteAll(fd, FormatOverloadedResponse(merged.detail));
    }
    if (!sink.Flush()) return false;
    return WriteAll(fd, FormatQueryResponse(merged.result, &merged.shards,
                                            /*with_ids=*/false));
  }

  // Router-side cache: keyed on the parsed query's canonical form, so it
  // also hits on isomorphic relabelings. Unparseable text skips the cache
  // and lets the shards produce the authoritative rejection. The mutation
  // sequence captured here gates both sides: lookups refuse entries newer
  // than the capture, and the insert below is refused if a mutation's
  // selective purge ran in between (the merged result could already
  // reflect it — refusing keeps every surviving entry no staler than the
  // fleet).
  CacheKey key;
  GraphFeatures query_features;
  bool cacheable = false;
  const uint64_t pinned_seq = cache_->mutation_seq();
  if (cache_->enabled()) {
    Graph query;
    std::string parse_error;
    if (ParseSingleGraph(text, &query, &parse_error)) {
      key.epoch = cache_->epoch();
      key.engine = "router";
      key.hash = Canonicalize(query).hash;
      query_features = GraphFeaturesOf(query);
      cacheable = true;
      QueryResult cached;
      if (cache_->Lookup(key, pinned_seq, &cached)) {
        // Only complete results from a fully healthy fan-out are stored,
        // so a hit reports shards_ok == shards_total; a LIMIT request is
        // served as the cached full result's prefix.
        ApplyAnswerLimit(&cached, request.limit);
        ShardHealth health;
        health.ok = health.total =
            static_cast<uint32_t>(scatter_.config().shards.size());
        return WriteAll(fd,
                        FormatQueryResponse(cached, &health,
                                            request.want_ids));
      }
    }
  }

  MergedQuery merged =
      scatter_.Query(text, request.timeout_seconds, request.limit);
  if (!merged.ok) {
    return WriteAll(fd, FormatOverloadedResponse(merged.detail));
  }
  if (cacheable && request.limit == 0 && !merged.result.stats.timed_out &&
      merged.shards.ok == merged.shards.total) {
    cache_->Insert(key, merged.result, pinned_seq, query_features);
  }
  return WriteAll(fd, FormatQueryResponse(merged.result, &merged.shards,
                                          request.want_ids));
}

bool RouterServer::EnsureNextGlobalIdLocked(std::string* error) {
  if (next_global_id_known_) return true;
  // Resume the id space from whatever the fleet already absorbed: the
  // counter must clear every shard's next id, or a forced ADD would be
  // rejected as non-monotone (and could collide with a live graph).
  const std::vector<ScatterGather::BroadcastReply> replies =
      scatter_.Broadcast("STATS");
  GraphId next = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok) {
      *error = "shard " + std::to_string(i) + ": " + replies[i].error;
      return false;
    }
    const ResponseHead head = ParseResponseHead(replies[i].line);
    uint64_t shard_next = 0;
    if (head.kind != ResponseHead::Kind::kOk ||
        !ParseNextGlobalId(head.body, &shard_next)) {
      *error = "shard " + std::to_string(i) +
               ": stats reply carries no next_global_id";
      return false;
    }
    next = std::max(next, static_cast<GraphId>(shard_next));
  }
  next_global_id_ = next;
  next_global_id_known_ = true;
  return true;
}

bool RouterServer::DispatchMutation(int fd, const Request& request) {
  // Serialized: the shards reject out-of-order forced ids, so two ADDs
  // racing to one shard must not reorder between id assignment and send.
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const uint32_t num_shards =
      static_cast<uint32_t>(scatter_.config().shards.size());

  if (request.verb == Request::Verb::kRemoveGraph) {
    const GraphId gid = request.graph_id;
    const uint32_t owner = ShardOfGraph(gid, num_shards);
    const ScatterGather::BroadcastReply reply = scatter_.SendToShard(
        owner, "REMOVE GRAPH " + std::to_string(gid) + "\n");
    if (!reply.ok) {
      return WriteAll(fd, FormatOverloadedResponse(
                              "shard " + std::to_string(owner) + ": " +
                              reply.error));
    }
    GraphId acked = 0;
    if (!ParseRemovedResponse(reply.line, &acked) || acked != gid) {
      // The shard's own error line (e.g. "no graph with id N") passes
      // through as the detail.
      return WriteAll(fd, FormatOverloadedResponse(
                              "shard " + std::to_string(owner) + ": " +
                              reply.line));
    }
    // The shard committed: purge every cached merged result whose answer
    // set contains the removed graph, before acknowledging the client.
    cache_->ApplyRemove(gid);
    return WriteAll(fd, FormatRemovedResponse(gid));
  }

  // ADD GRAPH.
  std::string text = request.graph_text;
  std::string error;
  if (!request.file_ref.empty() &&
      !ReadFileToString(request.file_ref, &text, &error)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, FormatBadRequestResponse(error));
  }
  if (request.has_graph_id) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, FormatBadRequestResponse(
                            "the router assigns graph ids; resend the ADD "
                            "without ID"));
  }
  // Parse before assigning an id: a malformed payload must not burn one,
  // and the features drive the cache purge below.
  Graph graph;
  if (!ParseSingleGraph(text, &graph, &error)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, FormatBadRequestResponse(error));
  }
  if (!EnsureNextGlobalIdLocked(&error)) {
    return WriteAll(fd, FormatOverloadedResponse(error));
  }
  const GraphId gid = next_global_id_;
  const uint32_t owner = ShardOfGraph(gid, num_shards);
  const ScatterGather::BroadcastReply reply = scatter_.SendToShard(
      owner, "ADD GRAPH " + std::to_string(text.size()) + " ID " +
                 std::to_string(gid) + "\n" + text);
  if (!reply.ok) {
    return WriteAll(fd, FormatOverloadedResponse(
                            "shard " + std::to_string(owner) + ": " +
                            reply.error));
  }
  GraphId acked = 0;
  if (!ParseAddedResponse(reply.line, &acked) || acked != gid) {
    return WriteAll(fd, FormatOverloadedResponse(
                            "shard " + std::to_string(owner) + ": " +
                            reply.line));
  }
  next_global_id_ = gid + 1;
  cache_->ApplyAdd(GraphFeaturesOf(graph));
  return WriteAll(fd, FormatAddedResponse(gid));
}

bool RouterServer::DispatchStats(int fd) {
  const std::vector<ScatterGather::BroadcastReply> replies =
      scatter_.Broadcast("STATS");
  RouterStatsSnapshot snapshot = scatter_.Stats();
  std::string json = "{\"router\":";
  json += snapshot.ToJson();
  // Splice the codec-failure count into the router object.
  json.insert(json.size() - 1,
              ",\"bad_requests\":" +
                  std::to_string(
                      bad_requests_.load(std::memory_order_relaxed)));
  json += ",\"cache\":" + cache_->Stats().ToJson();
  json += ",\"shards\":[";
  for (size_t i = 0; i < replies.size(); ++i) {
    if (i > 0) json += ',';
    const ScatterGather::BroadcastReply& reply = replies[i];
    const ResponseHead head =
        reply.ok ? ParseResponseHead(reply.line) : ResponseHead{};
    if (reply.ok && head.kind == ResponseHead::Kind::kOk &&
        !head.has_count && !head.body.empty() && head.body.front() == '{') {
      json += head.body;
    } else {
      json += "null";  // unreachable or non-stats reply
    }
  }
  json += "]}";
  return WriteAll(fd, "OK " + json + "\n");
}

bool RouterServer::DispatchBroadcast(int fd, const Request& request) {
  const bool is_reload = request.verb == Request::Verb::kReload;
  std::string command;
  if (is_reload) {
    // RELOAD with no path falls back to each shard's own --db default;
    // with a path, every shard re-reads that file and re-filters its
    // slice, so the fleet swaps to the same database.
    command = request.file_ref.empty() ? "RELOAD"
                                       : "RELOAD @" + request.file_ref;
  } else {
    command = "CACHE CLEAR";
  }
  const std::vector<ScatterGather::BroadcastReply> replies =
      scatter_.Broadcast(command);
  // Strict on both verbs: a fleet where only some shards reloaded (or
  // dropped their cache) would mix database versions in one answer.
  uint64_t total_graphs = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    std::string detail;
    if (!replies[i].ok) {
      detail = replies[i].error;
    } else if (is_reload) {
      uint64_t count = 0;
      if (ParseReloadedCount(replies[i].line, &count)) {
        total_graphs += count;
      } else {
        detail = "unexpected reply: " + replies[i].line;
      }
    } else if (replies[i].line !=
               std::string_view(kCacheClearedResponse)
                   .substr(0, kCacheClearedResponse.size() - 1)) {
      detail = "unexpected reply: " + replies[i].line;
    }
    if (!detail.empty()) {
      return WriteAll(fd, FormatOverloadedResponse(
                              "shard " + std::to_string(i) + ": " + detail));
    }
  }
  if (is_reload) {
    // Every shard swapped databases, so every merged result the router
    // cached is stale; the epoch bump makes them unreachable in O(1). The
    // id counter is forgotten too — the next mutation re-derives it from
    // the reloaded fleet's STATS.
    cache_->AdvanceEpoch();
    {
      std::lock_guard<std::mutex> lock(mutation_mu_);
      next_global_id_known_ = false;
    }
    return WriteAll(
        fd, "OK reloaded " + std::to_string(total_graphs) + " graphs\n");
  }
  cache_->Clear();
  return WriteAll(fd, std::string(kCacheClearedResponse));
}

}  // namespace sgq
