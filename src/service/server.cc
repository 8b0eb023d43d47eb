#include "service/server.h"

#include <poll.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "graph/graph_io.h"
#include "router/shard_map.h"
#include "service/stream_sink.h"

namespace sgq {

namespace {

// How long a connection thread sleeps in poll() before re-checking the
// server's stop flag; bounds shutdown latency for idle connections.
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

}  // namespace

SocketServer::SocketServer(ServerConfig server_config,
                           ServiceConfig service_config)
    : config_(std::move(server_config)),
      service_(std::move(service_config)) {}

SocketServer::~SocketServer() {
  RequestStop();
  if (started_) Wait();
}

bool SocketServer::Start(GraphDatabase db, std::string* error) {
  if (started_) {
    *error = "server already started";
    return false;
  }
  if (config_.unix_path.empty() && config_.port < 0) {
    *error = "set ServerConfig::unix_path or ServerConfig::port";
    return false;
  }
  std::vector<GraphId> global_ids;
  if (config_.shard_count > 1) {
    db = FilterDatabaseToShard(
        std::move(db), {config_.shard_index, config_.shard_count},
        &global_ids);
  }
  if (!service_.Start(std::move(db), std::move(global_ids), error)) {
    return false;
  }

  if (!config_.unix_path.empty()) {
    listener_ = ListenUnix(config_.unix_path, error);
  } else {
    listener_ = ListenTcp(config_.host, static_cast<uint16_t>(config_.port),
                          &port_, error);
  }
  if (!listener_.valid()) {
    service_.Shutdown();
    return false;
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe() failed";
    listener_.Reset();
    service_.Shutdown();
    return false;
  }
  stop_pipe_rd_ = UniqueFd(pipe_fds[0]);
  stop_pipe_wr_ = UniqueFd(pipe_fds[1]);
  started_ = true;
  accept_thread_ = std::thread(&SocketServer::AcceptLoop, this);
  return true;
}

void SocketServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_wr_.valid()) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n =
        ::write(stop_pipe_wr_.get(), &byte, 1);
  }
}

void SocketServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listener_.get(), POLLIN, 0};
    fds[1] = {stop_pipe_rd_.get(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) continue;  // EINTR
    if (fds[1].revents != 0 ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if (fds[0].revents == 0) continue;
    UniqueFd conn = AcceptConnection(listener_.get());
    if (!conn.valid()) continue;
    connections_.Spawn([this, conn = std::move(conn)]() mutable {
      HandleConnection(std::move(conn));
    });
  }
  // Graceful teardown: no new connections, drain every admitted query
  // (connection threads blocked in Execute() get their responses), then
  // wait for the connection threads to flush and exit.
  listener_.Reset();
  service_.Shutdown();
  connections_.JoinAll();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void SocketServer::HandleConnection(UniqueFd fd) {
  RequestParser parser(config_.max_payload_bytes);
  char buf[4096];
  for (;;) {
    // Serve every complete request already buffered before reading more.
    Request request;
    std::string parse_error;
    const RequestParser::Status status = parser.Next(&request, &parse_error);
    if (status == RequestParser::Status::kReady) {
      if (!Dispatch(fd.get(), request)) return;
      continue;
    }
    if (status == RequestParser::Status::kError) {
      service_.CountBadRequest();
      WriteAll(fd.get(), FormatBadRequestResponse(parse_error));
      return;  // cannot resynchronize a broken byte stream
    }
    const int ready = PollReadable(fd.get(), kConnectionPollMs);
    if (ready < 0) return;
    if (ready == 0) {
      // Idle: during shutdown there is nothing more to wait for.
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    const ssize_t n = ReadSome(fd.get(), buf, sizeof(buf));
    if (n <= 0) return;  // peer closed (possibly mid-request) or error
    parser.Feed({buf, static_cast<size_t>(n)});
  }
}

bool SocketServer::Dispatch(int fd, const Request& request) {
  switch (request.verb) {
    case Request::Verb::kQuery: {
      std::string text = request.graph_text;
      std::string error;
      if (!request.file_ref.empty() &&
          !ReadFileToString(request.file_ref, &text, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      Graph query;
      if (!ParseSingleGraph(text, &query, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      QueryService::ExecuteOptions options;
      options.timeout_seconds = request.timeout_seconds;
      // LIMIT is enforced inside the service (the engine scan stops at the
      // k-th confirmed answer); the ApplyAnswerLimit below is a no-op kept
      // for responses that predate the sink, e.g. cache entries rewritten
      // by older code paths.
      options.limit = request.limit;
      SocketStreamSink stream_sink(fd);
      if (request.stream) options.sink = &stream_sink;
      QueryService::Response response =
          service_.Execute(std::move(query), options);
      switch (response.outcome) {
        case QueryService::Outcome::kOk:
        case QueryService::Outcome::kTimeout:
          if (request.stream) {
            // Last partial chunk, then the terminal line. STREAM suppresses
            // the batch IDS trailer even when IDS was also requested.
            if (!stream_sink.Flush()) return false;
            return WriteAll(fd,
                            FormatQueryResponse(response.result, nullptr,
                                                /*with_ids=*/false));
          }
          ApplyAnswerLimit(&response.result, request.limit);
          return WriteAll(fd, FormatQueryResponse(response.result, nullptr,
                                                  request.want_ids));
        case QueryService::Outcome::kOverloaded:
          return WriteAll(
              fd, FormatOverloadedResponse({}, response.retry_after_ms));
        case QueryService::Outcome::kShuttingDown:
          return WriteAll(fd, FormatOverloadedResponse("shutting-down"));
      }
      return false;
    }
    case Request::Verb::kStats:
      return WriteAll(fd, "OK " + service_.Stats().ToJson() + "\n");
    case Request::Verb::kReload: {
      const std::string path =
          request.file_ref.empty() ? config_.db_path : request.file_ref;
      std::string error;
      if (path.empty()) {
        service_.CountBadRequest();
        return WriteAll(
            fd, FormatBadRequestResponse("no database path to reload"));
      }
      GraphDatabase db;
      if (!LoadDatabase(path, &db, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      std::vector<GraphId> global_ids;
      if (config_.shard_count > 1) {
        db = FilterDatabaseToShard(
            std::move(db), {config_.shard_index, config_.shard_count},
            &global_ids);
      }
      // Reports the post-filter count: what this server actually serves.
      const size_t num_graphs = db.size();
      if (!service_.Reload(std::move(db), std::move(global_ids), &error)) {
        return WriteAll(fd, FormatOverloadedResponse(error));
      }
      return WriteAll(
          fd, "OK reloaded " + std::to_string(num_graphs) + " graphs\n");
    }
    case Request::Verb::kAddGraph: {
      std::string text = request.graph_text;
      std::string error;
      if (!request.file_ref.empty() &&
          !ReadFileToString(request.file_ref, &text, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      Graph graph;
      if (!ParseSingleGraph(text, &graph, &error)) {
        service_.CountBadRequest();
        return WriteAll(fd, FormatBadRequestResponse(error));
      }
      if (config_.shard_count > 1) {
        // A sharded member never assigns ids: the router owns the id space
        // and must route the ADD to the graph's splitmix64 owner.
        if (!request.has_graph_id) {
          service_.CountBadRequest();
          return WriteAll(fd, FormatBadRequestResponse(
                                  "sharded server requires ADD GRAPH ... ID "
                                  "<gid> (router assigns the id)"));
        }
        const uint32_t owner =
            ShardOfGraph(request.graph_id, config_.shard_count);
        if (owner != config_.shard_index) {
          service_.CountBadRequest();
          return WriteAll(
              fd, FormatBadRequestResponse(
                      "graph id " + std::to_string(request.graph_id) +
                      " belongs to shard " + std::to_string(owner) +
                      ", this is shard " +
                      std::to_string(config_.shard_index)));
        }
      }
      const GraphId forced = request.graph_id;
      const QueryService::MutationResult result = service_.AddGraph(
          std::move(graph), request.has_graph_id ? &forced : nullptr);
      if (!result.ok) {
        return WriteAll(fd, FormatOverloadedResponse(result.error));
      }
      return WriteAll(fd, FormatAddedResponse(result.global_id));
    }
    case Request::Verb::kRemoveGraph: {
      if (config_.shard_count > 1) {
        const uint32_t owner =
            ShardOfGraph(request.graph_id, config_.shard_count);
        if (owner != config_.shard_index) {
          service_.CountBadRequest();
          return WriteAll(
              fd, FormatBadRequestResponse(
                      "graph id " + std::to_string(request.graph_id) +
                      " belongs to shard " + std::to_string(owner) +
                      ", this is shard " +
                      std::to_string(config_.shard_index)));
        }
      }
      const QueryService::MutationResult result =
          service_.RemoveGraph(request.graph_id);
      if (!result.ok) {
        return WriteAll(fd, FormatOverloadedResponse(result.error));
      }
      return WriteAll(fd, FormatRemovedResponse(result.global_id));
    }
    case Request::Verb::kCacheClear:
      service_.CacheClear();
      return WriteAll(fd, std::string(kCacheClearedResponse));
    case Request::Verb::kShutdown:
      WriteAll(fd, std::string(kByeResponse));
      RequestStop();
      return false;
  }
  return false;
}

}  // namespace sgq
