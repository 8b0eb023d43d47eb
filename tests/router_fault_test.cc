// Fault injection for the router's fan-out. Scripted fake shards on
// temporary Unix sockets replay canned reply bytes, so each test pins one
// fault the scatter-gather loop must turn into a bounded, typed reply:
// replies written one byte per send, a silent shard, a TCP shard that never
// completes the handshake, a shard that closes mid-STREAM, a pooled socket
// gone stale between two requests, and a shard that answers OVERLOADED.
// Runs under the `router` and `tsan` labels.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "router/router_server.h"
#include "service/protocol.h"
#include "tests/line_client.h"
#include "tests/test_util.h"
#include "util/socket.h"
#include "util/timer.h"

namespace sgq {
namespace {

using sgq::testing::LineClient;

std::string SocketPath(const std::string& tag) {
  return "/tmp/sgq_router_fault_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

// What a shard server sends for a QUERY ... IDS answered with `ids`.
std::string BatchReply(const std::vector<GraphId>& ids) {
  QueryResult result;
  result.answers = ids;
  result.stats.num_answers = ids.size();
  return FormatQueryResponse(result, nullptr, /*with_ids=*/true);
}

// What a shard server sends for a QUERY ... STREAM: one IDS chunk line per
// element of `chunks`, then the terminal OK line.
std::string StreamReply(const std::vector<std::vector<GraphId>>& chunks) {
  QueryResult result;
  std::string out;
  for (const std::vector<GraphId>& chunk : chunks) {
    out += FormatIdsLine(chunk);
    result.answers.insert(result.answers.end(), chunk.begin(), chunk.end());
  }
  result.stats.num_answers = result.answers.size();
  return out + FormatQueryResponse(result, nullptr, /*with_ids=*/false);
}

// What a fake shard does with one request. An empty reply without
// close_after is a silent shard: the connection stays open, unanswered.
struct Action {
  std::string reply;
  bool byte_per_send = false;  // one send(2) per reply byte
  bool close_after = false;    // close the connection after the reply
};

// A scripted shard server. It serves one connection at a time and answers
// the k-th request it receives, counted over all connections, with
// script[k]; requests past the end of the script get no reply.
class FakeShard {
 public:
  FakeShard(std::string path, std::vector<Action> script)
      : path_(std::move(path)), script_(std::move(script)) {
    std::string error;
    listener_ = ListenUnix(path_, &error);
    thread_ = std::thread(&FakeShard::Serve, this);
  }

  ~FakeShard() {
    stop_.store(true);
    thread_.join();
    ::unlink(path_.c_str());
  }

  FakeShard(const FakeShard&) = delete;
  FakeShard& operator=(const FakeShard&) = delete;

  bool listening() const { return listener_.valid(); }
  const std::string& path() const { return path_; }
  size_t connections() const { return connections_.load(); }

 private:
  // Waits until `fd` is readable; false once the shard is stopping.
  bool WaitReadable(int fd) const {
    while (!stop_.load()) {
      const int ready = PollReadable(fd, 10);
      if (ready != 0) return ready > 0;
    }
    return false;
  }

  void Serve() {
    while (listener_.valid() && WaitReadable(listener_.get())) {
      UniqueFd connection = AcceptConnection(listener_.get());
      if (!connection.valid()) continue;
      connections_.fetch_add(1);
      ServeConnection(connection.get());
    }
  }

  void ServeConnection(int fd) {
    RequestParser parser(kDefaultMaxPayloadBytes);
    char buf[4096];
    for (;;) {
      Request request;
      std::string error;
      const RequestParser::Status status = parser.Next(&request, &error);
      if (status == RequestParser::Status::kError) return;
      if (status == RequestParser::Status::kReady) {
        const size_t k = requests_++;
        if (k >= script_.size()) continue;
        const Action& action = script_[k];
        if (!Write(fd, action) || action.close_after) return;
        continue;
      }
      if (!WaitReadable(fd)) return;
      const ssize_t n = ReadSome(fd, buf, sizeof(buf));
      if (n <= 0) return;
      parser.Feed({buf, static_cast<size_t>(n)});
    }
  }

  static bool Write(int fd, const Action& action) {
    if (!action.byte_per_send) return WriteAll(fd, action.reply);
    for (const char c : action.reply) {
      if (!WriteAll(fd, std::string_view(&c, 1))) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  const std::string path_;
  const std::vector<Action> script_;
  UniqueFd listener_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> connections_{0};
  size_t requests_ = 0;  // serve thread only
  std::thread thread_;
};

// Two fake shards, a router over them and one client of the router.
struct Rig {
  std::unique_ptr<FakeShard> shards[2];
  std::string router_path;
  std::unique_ptr<RouterServer> router;
  LineClient client;

  bool Start(std::vector<Action> shard0, std::vector<Action> shard1,
             ShardFailurePolicy policy, std::string* error) {
    shards[0] = std::make_unique<FakeShard>(SocketPath("shard0"),
                                            std::move(shard0));
    shards[1] = std::make_unique<FakeShard>(SocketPath("shard1"),
                                            std::move(shard1));
    if (!shards[0]->listening() || !shards[1]->listening()) {
      *error = "fake shard could not listen";
      return false;
    }
    std::vector<ShardEndpoint> endpoints(2);
    endpoints[0].unix_path = shards[0]->path();
    endpoints[1].unix_path = shards[1]->path();
    return StartRouter(std::move(endpoints), policy, error);
  }

  bool StartRouter(std::vector<ShardEndpoint> endpoints,
                   ShardFailurePolicy policy, std::string* error) {
    router_path = SocketPath("router");
    RouterServerConfig server_config;
    server_config.unix_path = router_path;
    RouterConfig router_config;
    router_config.shards = std::move(endpoints);
    router_config.on_shard_failure = policy;
    router_config.forward_shutdown = false;
    router = std::make_unique<RouterServer>(server_config, router_config);
    if (!router->Start(error)) return false;
    if (!client.Connect(router_path)) {
      *error = "cannot connect to the router";
      return false;
    }
    return true;
  }

  ~Rig() {
    if (router) {
      router->RequestStop();
      router->Wait();
    }
  }
};

// The fake shards ignore the query text; any valid graph will do.
std::string Payload() {
  return SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
}

std::vector<GraphId> Ids(const std::string& head_line,
                         const std::string& ids_line) {
  std::vector<GraphId> ids;
  EXPECT_TRUE(ParseIdsLine(ids_line,
                           ParseResponseHead(head_line).num_answers, &ids))
      << head_line << " / " << ids_line;
  return ids;
}

TEST(RouterFaultTest, RepliesWrittenOneBytePerSendMergeExactly) {
  Rig rig;
  std::string error;
  ASSERT_TRUE(rig.Start(
      {{BatchReply({0, 4, 8}), true}, {StreamReply({{0, 4}, {8}}), true}},
      {{BatchReply({1, 5, 9}), true}, {StreamReply({{1}, {5, 9}}), true}},
      ShardFailurePolicy::kError, &error))
      << error;
  const std::vector<GraphId> merged = {0, 1, 4, 5, 8, 9};

  std::string ids;
  const std::string line = rig.client.QueryIds(Payload(), &ids);
  ASSERT_EQ(ParseResponseHead(line).kind, ResponseHead::Kind::kOk) << line;
  EXPECT_EQ(Ids(line, ids), merged);
  ShardHealth health;
  ASSERT_TRUE(ParseShardHealth(ParseResponseHead(line).body, &health));
  EXPECT_EQ(health.ok, 2u);

  std::vector<GraphId> streamed;
  const std::string terminal =
      rig.client.StreamQuery(Payload(), /*limit=*/0, &streamed);
  ASSERT_EQ(ParseResponseHead(terminal).kind, ResponseHead::Kind::kOk)
      << terminal;
  EXPECT_EQ(ParseResponseHead(terminal).num_answers, merged.size());
  EXPECT_EQ(streamed, merged);

  const RouterStatsSnapshot stats = rig.router->Stats();
  EXPECT_EQ(stats.merged_ok, 2u);
  EXPECT_EQ(stats.shard_failures, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(RouterFaultTest, SilentShardEndsTheRequestWithinItsDeadline) {
  constexpr double kTimeoutSeconds = 0.5;
  for (const ShardFailurePolicy policy :
       {ShardFailurePolicy::kError, ShardFailurePolicy::kDegraded}) {
    SCOPED_TRACE(ToString(policy));
    Rig rig;
    std::string error;
    ASSERT_TRUE(rig.Start({{""}}, {{BatchReply({1, 3})}}, policy, &error))
        << error;
    WallTimer timer;
    std::string ids;
    const std::string line =
        rig.client.QueryIds(Payload(), &ids, 0, kTimeoutSeconds);
    EXPECT_LT(timer.ElapsedMillis(), kTimeoutSeconds * 1000 + 200);
    if (policy == ShardFailurePolicy::kError) {
      EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
      EXPECT_NE(line.find("shard 0"), std::string::npos) << line;
    } else {
      ASSERT_EQ(ParseResponseHead(line).kind, ResponseHead::Kind::kOk)
          << line;
      EXPECT_EQ(Ids(line, ids), (std::vector<GraphId>{1, 3}));
      EXPECT_NE(line.find("\"shards_ok\":1"), std::string::npos) << line;
    }
    EXPECT_EQ(rig.router->Stats().shard_failures, 1u);
  }
}

// A loopback TCP port whose handshakes never complete: a listener with
// backlog 0 whose one accept-queue slot holds a connection it never
// accepts, so the kernel drops every later SYN and a client retransmits it
// for about two minutes.
class UnansweredTcpPort {
 public:
  UnansweredTcpPort() : listener_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (!listener_.valid() ||
        ::bind(listener_.get(), reinterpret_cast<sockaddr*>(&addr), len) !=
            0 ||
        ::listen(listener_.get(), 0) != 0 ||
        ::getsockname(listener_.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    std::string error;
    filler_ = ConnectTcp("127.0.0.1", port_, &error);
  }

  bool ok() const { return filler_.valid(); }
  uint16_t port() const { return port_; }

 private:
  UniqueFd listener_;
  UniqueFd filler_;  // occupies the accept queue
  uint16_t port_ = 0;
};

TEST(RouterFaultTest, UnansweredTcpConnectEndsTheRequestWithinItsDeadline) {
  constexpr double kTimeoutSeconds = 0.5;
  UnansweredTcpPort black_hole;
  ASSERT_TRUE(black_hole.ok());
  // The premise: a connect to the port is still pending after 0.2 s.
  std::string error;
  bool in_progress = false;
  const UniqueFd probe =
      StartConnectTcp("127.0.0.1", black_hole.port(), &in_progress, &error);
  ASSERT_TRUE(probe.valid()) << error;
  ASSERT_TRUE(in_progress);
  pollfd p{probe.get(), POLLOUT, 0};
  EXPECT_EQ(::poll(&p, 1, 200), 0);

  for (const ShardFailurePolicy policy :
       {ShardFailurePolicy::kError, ShardFailurePolicy::kDegraded}) {
    SCOPED_TRACE(ToString(policy));
    Rig rig;
    rig.shards[1] = std::make_unique<FakeShard>(
        SocketPath("shard1"), std::vector<Action>{{BatchReply({1, 3})}});
    ASSERT_TRUE(rig.shards[1]->listening());
    std::vector<ShardEndpoint> endpoints(2);
    endpoints[0].host = "127.0.0.1";
    endpoints[0].port = black_hole.port();
    endpoints[1].unix_path = rig.shards[1]->path();
    ASSERT_TRUE(rig.StartRouter(std::move(endpoints), policy, &error))
        << error;
    WallTimer timer;
    std::string ids;
    const std::string line =
        rig.client.QueryIds(Payload(), &ids, 0, kTimeoutSeconds);
    EXPECT_LT(timer.ElapsedMillis(), kTimeoutSeconds * 1000 + 200);
    if (policy == ShardFailurePolicy::kError) {
      EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
      EXPECT_NE(line.find("shard 0"), std::string::npos) << line;
    } else {
      ASSERT_EQ(ParseResponseHead(line).kind, ResponseHead::Kind::kOk)
          << line;
      EXPECT_EQ(Ids(line, ids), (std::vector<GraphId>{1, 3}));
      EXPECT_NE(line.find("\"shards_ok\":1"), std::string::npos) << line;
    }
    EXPECT_EQ(rig.router->Stats().shard_failures, 1u);
  }
}

TEST(RouterFaultTest, ShardClosingMidStreamEndsOverloadedWithoutRetry) {
  // Shard 0 would stream {5, 7, 9}; it closes after its first chunk, on a
  // pooled connection that the warm-up query left behind.
  Rig rig;
  std::string error;
  ASSERT_TRUE(rig.Start(
      {{BatchReply({5})}, {FormatIdsLine(std::vector<GraphId>{5, 7}), false,
                           /*close_after=*/true}},
      {{BatchReply({1})}, {StreamReply({{1, 3}})}},
      ShardFailurePolicy::kError, &error))
      << error;
  std::string ids;
  const std::string warm = rig.client.QueryIds(Payload(), &ids);
  ASSERT_EQ(ParseResponseHead(warm).kind, ResponseHead::Kind::kOk) << warm;

  std::vector<GraphId> streamed;
  const std::string terminal =
      rig.client.StreamQuery(Payload(), /*limit=*/0, &streamed);
  EXPECT_EQ(terminal.rfind("OVERLOADED", 0), 0u) << terminal;
  const std::vector<GraphId> full = {1, 3, 5, 7, 9};
  ASSERT_LE(streamed.size(), full.size());
  EXPECT_TRUE(std::equal(streamed.begin(), streamed.end(), full.begin()));

  const RouterStatsSnapshot stats = rig.router->Stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.shard_failures, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(rig.shards[0]->connections(), 1u);
}

TEST(RouterFaultTest, StalePooledSocketIsRetriedExactlyOnce) {
  // Shard 0 closes its connection after the first reply, so the router's
  // pooled socket to it is stale when the second query arrives.
  Rig rig;
  std::string error;
  ASSERT_TRUE(rig.Start(
      {{BatchReply({0, 2}), false, /*close_after=*/true}, {BatchReply({0, 2})}},
      {{BatchReply({1})}, {BatchReply({1})}}, ShardFailurePolicy::kError,
      &error))
      << error;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::string ids;
    const std::string line = rig.client.QueryIds(Payload(), &ids);
    ASSERT_EQ(ParseResponseHead(line).kind, ResponseHead::Kind::kOk) << line;
    EXPECT_EQ(Ids(line, ids), (std::vector<GraphId>{0, 1, 2}));
  }
  const RouterStatsSnapshot stats = rig.router->Stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.shard_failures, 0u);
  EXPECT_EQ(stats.merged_ok, 2u);
  EXPECT_EQ(rig.shards[0]->connections(), 2u);
  EXPECT_EQ(rig.shards[1]->connections(), 1u);
}

TEST(RouterFaultTest, ShardOverloadedPropagatesUnderBothPolicies) {
  const std::string overloaded = FormatOverloadedResponse("queue full", 5);
  for (const ShardFailurePolicy policy :
       {ShardFailurePolicy::kError, ShardFailurePolicy::kDegraded}) {
    SCOPED_TRACE(ToString(policy));
    Rig rig;
    std::string error;
    ASSERT_TRUE(rig.Start({{overloaded}, {overloaded}},
                          {{BatchReply({1})}, {StreamReply({{1}})}}, policy,
                          &error))
        << error;
    std::string ids;
    const std::string line = rig.client.QueryIds(Payload(), &ids);
    EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
    EXPECT_NE(line.find("shard 0 overloaded"), std::string::npos) << line;

    std::vector<GraphId> streamed;
    const std::string terminal =
        rig.client.StreamQuery(Payload(), /*limit=*/0, &streamed);
    EXPECT_EQ(terminal.rfind("OVERLOADED", 0), 0u) << terminal;

    const RouterStatsSnapshot stats = rig.router->Stats();
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.retries, 0u);
  }
}

}  // namespace
}  // namespace sgq
