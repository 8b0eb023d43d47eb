// End-to-end acceptance test for the sharded serving stack: two real
// shard SocketServers plus a RouterServer, all in-process over Unix
// sockets (runs under the `tsan` ctest label). The core acceptance
// criterion is bit-identity — for every query, the router over 2 shards
// must produce the same response a single unsharded server produces,
// including the IDS line, the ordering, and LIMIT semantics. On top of
// that: STATS / RELOAD / CACHE CLEAR fan-out, the degraded-vs-error
// policies when a shard dies, reconnection after a shard restart, a
// dead shard consuming deadline rather than hanging the router, a fleet
// over TCP, and the router joining the threads of closed connections.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gen/graph_gen.h"
#include "graph/graph_io.h"
#include "router/router_server.h"
#include "router/shard_map.h"
#include "service/server.h"
#include "tests/line_client.h"
#include "tests/test_util.h"
#include "util/socket.h"
#include "util/timer.h"

namespace sgq {
namespace {

GraphDatabase SmallDb(uint32_t num_graphs = 40) {
  SyntheticParams params;
  params.num_graphs = num_graphs;
  params.vertices_per_graph = 16;
  params.degree = 3.0;
  params.num_labels = 4;
  params.seed = 21;
  return GenerateSyntheticDatabase(params);
}

std::string UniqueSocketPath(const char* tag) {
  return "/tmp/sgq_router_e2e_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

using Client = sgq::testing::LineClient;

// SocketServer::Start consumes the database by value; tests keep a master
// copy and hand out clones.
GraphDatabase Clone(const GraphDatabase& db) {
  GraphDatabase copy;
  for (const Graph& g : db.graphs()) copy.Add(g);
  return copy;
}

// A 2-shard fleet plus router, torn down in reverse order.
struct Fleet {
  static constexpr uint32_t kShards = 2;

  std::string shard_paths[kShards];
  std::unique_ptr<SocketServer> shards[kShards];
  std::string router_path;
  std::unique_ptr<RouterServer> router;

  bool StartShard(uint32_t i, GraphDatabase db, std::string* error,
                  const std::string& db_path = "") {
    ServerConfig server_config;
    server_config.unix_path = shard_paths[i];
    server_config.db_path = db_path;
    server_config.shard_index = i;
    server_config.shard_count = kShards;
    ServiceConfig service_config;
    service_config.workers = 2;
    service_config.queue_capacity = 16;
    shards[i] = std::make_unique<SocketServer>(server_config, service_config);
    return shards[i]->Start(std::move(db), error);
  }

  bool Start(const GraphDatabase& db, ShardFailurePolicy policy,
             std::string* error, const std::string& db_path = "",
             uint32_t cache_mb = 0) {
    for (uint32_t i = 0; i < kShards; ++i) {
      shard_paths[i] = UniqueSocketPath(("shard" + std::to_string(i)).c_str());
      if (!StartShard(i, Clone(db), error, db_path)) return false;
    }
    router_path = UniqueSocketPath("router");
    RouterServerConfig server_config;
    server_config.unix_path = router_path;
    server_config.cache_mb = cache_mb;
    RouterConfig router_config;
    for (uint32_t i = 0; i < kShards; ++i) {
      ShardEndpoint endpoint;
      endpoint.unix_path = shard_paths[i];
      router_config.shards.push_back(endpoint);
    }
    router_config.on_shard_failure = policy;
    router_config.forward_shutdown = false;  // the test owns the shards
    router = std::make_unique<RouterServer>(server_config, router_config);
    return router->Start(error);
  }

  void StopShard(uint32_t i) {
    shards[i]->RequestStop();
    shards[i]->Wait();
  }

  void Stop() {
    if (router) {
      router->RequestStop();
      router->Wait();
    }
    for (uint32_t i = 0; i < kShards; ++i) {
      if (shards[i]) StopShard(i);
    }
  }
};

TEST(RouterE2eTest, MatchesUnshardedServerBitForBit) {
  const GraphDatabase db = SmallDb();

  // Reference: one unsharded server over the same database.
  const std::string reference_path = UniqueSocketPath("reference");
  ServerConfig reference_config;
  reference_config.unix_path = reference_path;
  ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_capacity = 16;
  SocketServer reference(reference_config, service_config);
  std::string error;
  ASSERT_TRUE(reference.Start(Clone(db), &error)) << error;

  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db), ShardFailurePolicy::kError, &error))
      << error;
  // Sanity: the shards really did split the database.
  const uint64_t shard_graphs[2] = {fleet.shards[0]->Stats().db_graphs,
                                    fleet.shards[1]->Stats().db_graphs};
  EXPECT_GT(shard_graphs[0], 0u);
  EXPECT_GT(shard_graphs[1], 0u);
  EXPECT_EQ(shard_graphs[0] + shard_graphs[1], db.size());

  Client direct, routed;
  ASSERT_TRUE(direct.Connect(reference_path));
  ASSERT_TRUE(routed.Connect(fleet.router_path));

  // Database graphs as queries (each matches at least itself) plus small
  // patterns that match many graphs — exercising empty, sparse and dense
  // answer sets across both shards.
  std::vector<std::string> payloads;
  for (GraphId id = 0; id < 10; ++id) {
    payloads.push_back(SerializeGraph(db.graph(id), id));
  }
  payloads.push_back(SerializeGraph(sgq::testing::MakePath({0, 1}), 0));
  payloads.push_back(SerializeGraph(sgq::testing::MakePath({2, 3, 1}), 0));
  payloads.push_back(SerializeGraph(sgq::testing::MakeCycle({0, 1, 2}), 0));
  // An un-matchable query: label outside the generator's universe.
  payloads.push_back(SerializeGraph(sgq::testing::MakePath({9, 9}), 0));

  uint64_t nonempty = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    SCOPED_TRACE("payload " + std::to_string(i));
    std::string direct_ids, routed_ids;
    const std::string direct_line = direct.QueryIds(payloads[i], &direct_ids);
    const std::string routed_line = routed.QueryIds(payloads[i], &routed_ids);

    // The IDS line is the whole acceptance criterion: same match set, same
    // (sorted) order, byte for byte.
    EXPECT_EQ(routed_ids, direct_ids);
    if (direct_ids != "IDS") ++nonempty;

    // Head lines: identical outcome and answer count; stats timings may
    // differ, but the router's json must carry the shard-health fields.
    const ResponseHead direct_head = ParseResponseHead(direct_line);
    const ResponseHead routed_head = ParseResponseHead(routed_line);
    ASSERT_EQ(direct_head.kind, ResponseHead::Kind::kOk) << direct_line;
    ASSERT_EQ(routed_head.kind, ResponseHead::Kind::kOk) << routed_line;
    EXPECT_EQ(routed_head.num_answers, direct_head.num_answers);
    EXPECT_EQ(direct_head.body.find("\"shards_ok\""), std::string::npos);
    ShardHealth health;
    ASSERT_TRUE(ParseShardHealth(routed_head.body, &health)) << routed_line;
    EXPECT_EQ(health.ok, 2u);
    EXPECT_EQ(health.total, 2u);
  }
  EXPECT_GE(nonempty, 10u);  // the comparison actually compared answers

  // LIMIT k must agree bit-for-bit too: per-shard truncation + post-merge
  // take-k == unsharded take-k.
  for (const uint64_t limit : {1ull, 2ull, 7ull}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const std::string payload =
        SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
    std::string direct_ids, routed_ids;
    const std::string direct_line =
        direct.QueryIds(payload, &direct_ids, limit);
    const std::string routed_line =
        routed.QueryIds(payload, &routed_ids, limit);
    EXPECT_EQ(routed_ids, direct_ids);
    EXPECT_EQ(ParseResponseHead(routed_line).num_answers,
              ParseResponseHead(direct_line).num_answers);
  }

  // Router STATS: one object embedding the router counters and both
  // shards' stats jsons.
  std::string line;
  ASSERT_TRUE(routed.Send("STATS\n"));
  ASSERT_TRUE(routed.RecvLine(&line));
  ASSERT_EQ(line.rfind("OK {\"router\":{", 0), 0u) << line;
  EXPECT_NE(line.find("\"shards_total\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"bad_requests\":0"), std::string::npos) << line;
  const size_t shards_array = line.find("\"shards\":[{");
  ASSERT_NE(shards_array, std::string::npos) << line;
  EXPECT_NE(line.find("},{", shards_array), std::string::npos) << line;
  EXPECT_EQ(line.find("null"), std::string::npos) << line;

  fleet.Stop();
  reference.RequestStop();
  reference.Wait();
}

TEST(RouterE2eTest, ReloadAndCacheClearFanOutToEveryShard) {
  // db2 = db1 plus a pentagon with a label absent from db1, as in
  // service_e2e_test: RELOAD through the router must swap every shard, and
  // the merged answer set must include the new graph at its global id.
  const Graph pentagon = sgq::testing::MakeCycle({7, 7, 7, 7, 7});
  GraphDatabase db1 = SmallDb(10);
  GraphDatabase db2 = Clone(db1);
  db2.Add(pentagon);
  const std::string db2_path =
      "/tmp/sgq_router_e2e_db2_" + std::to_string(::getpid()) + ".txt";
  std::string error;
  ASSERT_TRUE(SaveDatabase(db2, db2_path, &error)) << error;

  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db1), ShardFailurePolicy::kError, &error))
      << error;
  Client client;
  ASSERT_TRUE(client.Connect(fleet.router_path));

  const std::string pentagon_payload = SerializeGraph(pentagon, 0);
  std::string ids;
  std::string line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS") << "pentagon matched before the reload: " << line;

  // RELOAD @file fans out; the router sums the per-shard counts, which
  // must cover the whole database exactly once.
  ASSERT_TRUE(client.Send("RELOAD @" + db2_path + "\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK reloaded 11 graphs") << line;

  // The new graph is answer 10 in global ids — whichever shard owns it.
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS 10") << line;

  // CACHE CLEAR fans out and reports the single-server success line.
  ASSERT_TRUE(client.Send("CACHE CLEAR\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK cache cleared");
  // Same answers after the clear (now re-executed on every shard).
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS 10") << line;

  fleet.Stop();
  ::unlink(db2_path.c_str());
}

TEST(RouterE2eTest, StreamedRoutedQueryMatchesBatchMerge) {
  // The router's incremental k-way merge must emit exactly the ids the
  // batch merge produces — same set, same global sorted order, at every
  // LIMIT — with the terminal count matching what was streamed.
  const GraphDatabase db = SmallDb();
  std::string error;
  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db), ShardFailurePolicy::kError, &error))
      << error;
  Client client;
  ASSERT_TRUE(client.Connect(fleet.router_path));

  std::vector<std::string> payloads;
  for (GraphId id = 0; id < 6; ++id) {
    payloads.push_back(SerializeGraph(db.graph(id), id));
  }
  payloads.push_back(SerializeGraph(sgq::testing::MakePath({0, 1}), 0));
  payloads.push_back(SerializeGraph(sgq::testing::MakeCycle({0, 1, 2}), 0));
  payloads.push_back(SerializeGraph(sgq::testing::MakePath({9, 9}), 0));

  uint64_t nonempty = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    SCOPED_TRACE("payload " + std::to_string(i));
    std::string batch_ids_line;
    const std::string batch_line =
        client.QueryIds(payloads[i], &batch_ids_line);
    const ResponseHead batch_head = ParseResponseHead(batch_line);
    ASSERT_EQ(batch_head.kind, ResponseHead::Kind::kOk) << batch_line;
    std::vector<GraphId> batch_ids;
    ASSERT_TRUE(
        ParseIdsLine(batch_ids_line, batch_head.num_answers, &batch_ids));

    std::vector<GraphId> streamed;
    const std::string stream_line =
        client.StreamQuery(payloads[i], /*limit=*/0, &streamed);
    ASSERT_EQ(stream_line.rfind("OK ", 0), 0u) << stream_line;
    EXPECT_EQ(streamed, batch_ids);
    EXPECT_EQ(ParseResponseHead(stream_line).num_answers, streamed.size());
    if (!batch_ids.empty()) ++nonempty;
  }
  EXPECT_GE(nonempty, 6u);

  // LIMIT through the streamed merge: the post-merge cut emits exactly
  // the first k of the batch-merged ids.
  const std::string payload = SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
  std::string full_ids_line;
  const std::string full_line = client.QueryIds(payload, &full_ids_line);
  const ResponseHead full_head = ParseResponseHead(full_line);
  std::vector<GraphId> full_ids;
  ASSERT_TRUE(ParseIdsLine(full_ids_line, full_head.num_answers, &full_ids));
  ASSERT_GE(full_ids.size(), 3u);
  for (const uint64_t limit : {uint64_t{1}, uint64_t{3},
                               static_cast<uint64_t>(full_ids.size() + 4)}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    std::vector<GraphId> streamed;
    const std::string line = client.StreamQuery(payload, limit, &streamed);
    ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    const size_t expect =
        std::min<size_t>(static_cast<size_t>(limit), full_ids.size());
    ASSERT_EQ(streamed.size(), expect);
    EXPECT_TRUE(
        std::equal(streamed.begin(), streamed.end(), full_ids.begin()));
  }

  fleet.Stop();
}

// Router cache json section, between the router object and the shards
// array (the per-shard stats have their own "cache" objects further on).
std::string RouterCacheJson(const std::string& stats_line) {
  const size_t begin = stats_line.find("\"cache\":{");
  const size_t end = stats_line.find("\"shards\":[");
  if (begin == std::string::npos || end == std::string::npos || begin > end) {
    return "";
  }
  return stats_line.substr(begin, end - begin);
}

uint64_t CacheCounter(const std::string& cache_json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = cache_json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << cache_json;
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(cache_json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(RouterE2eTest, RouterCacheHitsAndInvalidatesOnReload) {
  if (!CacheEnabledByEnv()) GTEST_SKIP() << "SGQ_CACHE=off";
  const Graph pentagon = sgq::testing::MakeCycle({7, 7, 7, 7, 7});
  GraphDatabase db1 = SmallDb(10);
  GraphDatabase db2 = Clone(db1);
  db2.Add(pentagon);
  const std::string db2_path =
      "/tmp/sgq_router_e2e_cache_db2_" + std::to_string(::getpid()) + ".txt";
  std::string error;
  ASSERT_TRUE(SaveDatabase(db2, db2_path, &error)) << error;

  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db1), ShardFailurePolicy::kError, &error,
                          /*db_path=*/"", /*cache_mb=*/8))
      << error;
  Client client;
  ASSERT_TRUE(client.Connect(fleet.router_path));

  // First full query misses and populates; the identical repeat hits and
  // returns the same bytes (including the synthesized 2/2 shard health).
  const std::string payload = SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
  std::string first_ids, second_ids, line;
  const std::string first = client.QueryIds(payload, &first_ids);
  ASSERT_EQ(ParseResponseHead(first).kind, ResponseHead::Kind::kOk) << first;
  const std::string second = client.QueryIds(payload, &second_ids);
  EXPECT_EQ(second_ids, first_ids);
  ShardHealth health;
  ASSERT_TRUE(ParseShardHealth(ParseResponseHead(second).body, &health));
  EXPECT_EQ(health.ok, 2u);
  EXPECT_EQ(health.total, 2u);

  ASSERT_TRUE(client.Send("STATS\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  std::string cache_json = RouterCacheJson(line);
  ASSERT_FALSE(cache_json.empty()) << line;
  EXPECT_EQ(CacheCounter(cache_json, "hits"), 1u);
  EXPECT_GE(CacheCounter(cache_json, "entries"), 1u);

  // A LIMIT request is served as the cached full result's prefix.
  const ResponseHead first_head = ParseResponseHead(first);
  std::vector<GraphId> full_ids;
  ASSERT_TRUE(ParseIdsLine(first_ids, first_head.num_answers, &full_ids));
  ASSERT_GE(full_ids.size(), 2u);
  std::string limited_ids;
  const std::string limited = client.QueryIds(payload, &limited_ids, 2);
  std::vector<GraphId> limited_vec;
  ASSERT_TRUE(
      ParseIdsLine(limited_ids, ParseResponseHead(limited).num_answers,
                   &limited_vec));
  EXPECT_EQ(limited_vec,
            (std::vector<GraphId>{full_ids[0], full_ids[1]}));

  // Cache the pentagon's pre-reload empty answer, reload through the
  // router, and verify the stale entry is unreachable: the post-reload
  // query must see the new graph, not the cached miss.
  const std::string pentagon_payload = SerializeGraph(pentagon, 0);
  std::string ids;
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS") << line;
  ASSERT_TRUE(client.Send("RELOAD @" + db2_path + "\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK reloaded 11 graphs") << line;
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS 10") << line;

  // CACHE CLEAR drops the router cache too.
  ASSERT_TRUE(client.Send("CACHE CLEAR\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK cache cleared");
  ASSERT_TRUE(client.Send("STATS\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  cache_json = RouterCacheJson(line);
  ASSERT_FALSE(cache_json.empty()) << line;
  EXPECT_EQ(CacheCounter(cache_json, "entries"), 0u);

  fleet.Stop();
  ::unlink(db2_path.c_str());
}

TEST(RouterE2eTest, KilledShardDegradesOrErrorsPerPolicy) {
  const GraphDatabase db = SmallDb();
  const std::string payload = SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
  std::string error;

  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db), ShardFailurePolicy::kDegraded, &error))
      << error;
  // A second router over the same shards with the strict policy, so both
  // behaviors are observed against the same kill.
  const std::string strict_path = UniqueSocketPath("strict");
  RouterServerConfig strict_config;
  strict_config.unix_path = strict_path;
  RouterConfig strict_router;
  for (const std::string& path : fleet.shard_paths) {
    ShardEndpoint endpoint;
    endpoint.unix_path = path;
    strict_router.shards.push_back(endpoint);
  }
  strict_router.on_shard_failure = ShardFailurePolicy::kError;
  strict_router.forward_shutdown = false;
  RouterServer strict(strict_config, strict_router);
  ASSERT_TRUE(strict.Start(&error)) << error;

  Client degraded_client, strict_client;
  ASSERT_TRUE(degraded_client.Connect(fleet.router_path));
  ASSERT_TRUE(strict_client.Connect(strict_path));

  // Healthy fleet first: both routers serve the full answer set.
  std::string full_ids, ids;
  std::string line = degraded_client.QueryIds(payload, &full_ids);
  const ResponseHead healthy_head = ParseResponseHead(line);
  ASSERT_EQ(healthy_head.kind, ResponseHead::Kind::kOk) << line;
  EXPECT_NE(full_ids, "IDS");
  std::vector<GraphId> healthy_answers;
  ASSERT_TRUE(
      ParseIdsLine(full_ids, healthy_head.num_answers, &healthy_answers));
  line = strict_client.QueryIds(payload, &ids);
  EXPECT_EQ(ids, full_ids);

  // Kill shard 1 (graceful stop — its socket disappears).
  fleet.StopShard(1);

  // Degraded policy: a well-formed OK response, answers = shard 0's slice
  // only (a strict subset of the healthy answer set, still sorted), with
  // shards_ok 1 of 2 in the stats.
  line = degraded_client.QueryIds(payload, &ids, 0, 5.0);
  const ResponseHead degraded_head = ParseResponseHead(line);
  ASSERT_EQ(degraded_head.kind, ResponseHead::Kind::kOk) << line;
  ShardHealth health;
  ASSERT_TRUE(ParseShardHealth(degraded_head.body, &health)) << line;
  EXPECT_EQ(health.ok, 1u);
  EXPECT_EQ(health.total, 2u);
  EXPECT_NE(ids, "IDS");
  EXPECT_NE(ids, full_ids);
  // Every surviving id was in the healthy answer set and belongs to shard 0.
  std::vector<GraphId> survivors;
  ASSERT_TRUE(ParseIdsLine(ids, degraded_head.num_answers, &survivors)) << ids;
  for (const GraphId id : survivors) {
    EXPECT_TRUE(std::find(healthy_answers.begin(), healthy_answers.end(),
                          id) != healthy_answers.end())
        << id;
    EXPECT_EQ(ShardOfGraph(id, Fleet::kShards), 0u);
  }

  // Error policy: the same query is refused, naming the dead shard.
  line = strict_client.QueryIds(payload, &ids, 0, 5.0);
  EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
  EXPECT_NE(line.find("shard 1"), std::string::npos) << line;

  // Restart shard 1 on the same socket: both routers reconnect and the
  // full fleet answer comes back bit-identical to the pre-kill one.
  ASSERT_TRUE(fleet.StartShard(1, Clone(db), &error)) << error;
  line = degraded_client.QueryIds(payload, &ids);
  EXPECT_EQ(ids, full_ids) << line;
  line = strict_client.QueryIds(payload, &ids);
  EXPECT_EQ(ids, full_ids) << line;

  strict.RequestStop();
  strict.Wait();
  fleet.Stop();
}

TEST(RouterE2eTest, DeadShardConsumesDeadlineNotForever) {
  // Shard 1's endpoint is never bound: every connect fails immediately.
  // The router must turn that into a prompt OVERLOADED under the error
  // policy — a dead shard costs (at most) the request budget, not a hang.
  const GraphDatabase db = SmallDb(10);
  const std::string live_path = UniqueSocketPath("live");
  ServerConfig server_config;
  server_config.unix_path = live_path;
  server_config.shard_index = 0;
  server_config.shard_count = 2;
  ServiceConfig service_config;
  service_config.workers = 1;
  service_config.queue_capacity = 4;
  SocketServer live(server_config, service_config);
  std::string error;
  ASSERT_TRUE(live.Start(Clone(db), &error)) << error;

  const std::string router_path = UniqueSocketPath("deadline");
  RouterServerConfig router_server_config;
  router_server_config.unix_path = router_path;
  RouterConfig router_config;
  ShardEndpoint endpoint;
  endpoint.unix_path = live_path;
  router_config.shards.push_back(endpoint);
  endpoint.unix_path = UniqueSocketPath("never_bound");
  router_config.shards.push_back(endpoint);
  router_config.on_shard_failure = ShardFailurePolicy::kError;
  router_config.forward_shutdown = false;
  RouterServer router(router_server_config, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(router_path));
  const std::string payload =
      SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
  WallTimer timer;
  std::string ids;
  const std::string line = client.QueryIds(payload, &ids, 0, 2.0);
  EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
  // Bound generously for loaded CI machines; the point is "seconds, not
  // the 600 s default timeout".
  EXPECT_LT(timer.ElapsedMillis(), 30'000.0);

  const RouterStatsSnapshot stats = router.Stats();
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_GE(stats.shard_failures, 1u);

  router.RequestStop();
  router.Wait();
  live.RequestStop();
  live.Wait();
}

bool HasNoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  return ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) == 0 &&
         value == 1;
}

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

TEST(RouterE2eTest, TcpFleetAnswersLikeUnixFleetWithoutNagleStalls) {
  // Connected and accepted TCP sockets both send without Nagle's delay.
  std::string error;
  uint16_t port = 0;
  UniqueFd listener = ListenTcp("127.0.0.1", 0, &port, &error);
  ASSERT_TRUE(listener.valid()) << error;
  UniqueFd connected = ConnectTcp("127.0.0.1", port, &error);
  ASSERT_TRUE(connected.valid()) << error;
  UniqueFd accepted = AcceptConnection(listener.get());
  ASSERT_TRUE(accepted.valid());
  EXPECT_TRUE(HasNoDelay(connected.get()));
  EXPECT_TRUE(HasNoDelay(accepted.get()));

  // The same database behind two fleets: the Unix-socket one, and two
  // shard servers on TCP port 0 behind a router that listens on TCP too.
  const GraphDatabase db = SmallDb();
  Fleet unix_fleet;
  ASSERT_TRUE(unix_fleet.Start(Clone(db), ShardFailurePolicy::kError, &error))
      << error;
  std::unique_ptr<SocketServer> tcp_shards[Fleet::kShards];
  RouterConfig router_config;
  for (uint32_t i = 0; i < Fleet::kShards; ++i) {
    ServerConfig server_config;
    server_config.port = 0;
    server_config.shard_index = i;
    server_config.shard_count = Fleet::kShards;
    ServiceConfig service_config;
    service_config.workers = 2;
    service_config.queue_capacity = 16;
    tcp_shards[i] =
        std::make_unique<SocketServer>(server_config, service_config);
    ASSERT_TRUE(tcp_shards[i]->Start(Clone(db), &error)) << error;
    ShardEndpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = tcp_shards[i]->port();
    router_config.shards.push_back(endpoint);
  }
  router_config.forward_shutdown = false;
  RouterServerConfig router_server_config;
  router_server_config.port = 0;
  RouterServer tcp_router(router_server_config, router_config);
  ASSERT_TRUE(tcp_router.Start(&error)) << error;

  Client over_unix, over_tcp;
  ASSERT_TRUE(over_unix.Connect(unix_fleet.router_path));
  ASSERT_TRUE(over_tcp.ConnectTcp(tcp_router.port()));
  std::vector<std::string> payloads;
  for (GraphId id = 0; id < 6; ++id) {
    payloads.push_back(SerializeGraph(db.graph(id), id));
  }
  payloads.push_back(SerializeGraph(sgq::testing::MakePath({0, 1}), 0));
  payloads.push_back(SerializeGraph(sgq::testing::MakeCycle({0, 1, 2}), 0));
  for (size_t i = 0; i < payloads.size(); ++i) {
    SCOPED_TRACE("payload " + std::to_string(i));
    std::string unix_ids, tcp_ids;
    const std::string unix_line = over_unix.QueryIds(payloads[i], &unix_ids);
    const std::string tcp_line = over_tcp.QueryIds(payloads[i], &tcp_ids);
    ASSERT_EQ(ParseResponseHead(tcp_line).kind, ResponseHead::Kind::kOk)
        << tcp_line;
    EXPECT_EQ(tcp_ids, unix_ids);
    std::vector<GraphId> unix_streamed, tcp_streamed;
    over_unix.StreamQuery(payloads[i], 0, &unix_streamed);
    const std::string terminal =
        over_tcp.StreamQuery(payloads[i], 0, &tcp_streamed);
    ASSERT_EQ(terminal.rfind("OK ", 0), 0u) << terminal;
    EXPECT_EQ(tcp_streamed, unix_streamed);
  }

  // Requests written in two sends (header, then payload), and STREAM
  // replies of chunk lines then a terminal line: with Nagle's algorithm
  // the second write waits for the peer's delayed ACK, ~40 ms.
  std::vector<double> batch_ms, stream_ms;
  for (int i = 0; i < 20; ++i) {
    std::string ids;
    WallTimer batch_timer;
    const std::string line = over_tcp.QueryIds(payloads.back(), &ids);
    batch_ms.push_back(batch_timer.ElapsedMillis());
    ASSERT_EQ(ParseResponseHead(line).kind, ResponseHead::Kind::kOk) << line;
    std::vector<GraphId> streamed;
    WallTimer stream_timer;
    const std::string terminal =
        over_tcp.StreamQuery(payloads.back(), 0, &streamed);
    stream_ms.push_back(stream_timer.ElapsedMillis());
    ASSERT_EQ(terminal.rfind("OK ", 0), 0u) << terminal;
    ASSERT_FALSE(streamed.empty());
  }
  EXPECT_LT(MedianMs(batch_ms), 10.0);
  EXPECT_LT(MedianMs(stream_ms), 10.0);

  tcp_router.RequestStop();
  tcp_router.Wait();
  for (const auto& shard : tcp_shards) {
    shard->RequestStop();
    shard->Wait();
  }
  unix_fleet.Stop();
}

TEST(RouterE2eTest, ClosedConnectionsDoNotLeakThreadStacks) {
  // As for a shard server: a connection thread joined only at shutdown
  // keeps its ~8 MB stack mapped after its client has gone.
  std::string error;
  Fleet fleet;
  ASSERT_TRUE(fleet.Start(SmallDb(10), ShardFailurePolicy::kError, &error))
      << error;
  const auto one_connection = [&] {
    Client client;
    ASSERT_TRUE(client.Connect(fleet.router_path));
    std::string ids;
    const std::string line = client.QueryIds(
        SerializeGraph(sgq::testing::MakePath({0, 1}), 0), &ids);
    ASSERT_EQ(ParseResponseHead(line).kind, ResponseHead::Kind::kOk) << line;
  };
  for (int i = 0; i < 10; ++i) one_connection();  // warm the stack cache
  const long before_kb = sgq::testing::VmSizeKb();
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < 200; ++i) one_connection();
  EXPECT_LT(sgq::testing::VmSizeKb() - before_kb, 200 * 1024);
  fleet.Stop();
}

// The mutation acceptance criterion for sharding: an interleaved stream
// of ADD/REMOVE/QUERY through the router over 2 shards stays bit-identical
// to the same stream against one unsharded server. Both id spaces start at
// 40 (the seed size) and assign sequentially, so the gids line up without
// any test-side mapping. Also checks that each ADD lands on its splitmix64
// owner shard and that the router refuses client-supplied ids.
TEST(RouterE2eTest, MutationStreamMatchesUnshardedServerBitForBit) {
  const GraphDatabase db = SmallDb();

  const std::string reference_path = UniqueSocketPath("mut_reference");
  ServerConfig reference_config;
  reference_config.unix_path = reference_path;
  ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_capacity = 16;
  SocketServer reference(reference_config, service_config);
  std::string error;
  ASSERT_TRUE(reference.Start(Clone(db), &error)) << error;

  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db), ShardFailurePolicy::kError, &error))
      << error;

  Client direct, routed;
  ASSERT_TRUE(direct.Connect(reference_path));
  ASSERT_TRUE(routed.Connect(fleet.router_path));

  const std::vector<std::string> probes = {
      SerializeGraph(sgq::testing::MakePath({0, 1}), 0),
      SerializeGraph(sgq::testing::MakeCycle({0, 1, 2}), 0),
      SerializeGraph(sgq::testing::MakeCycle({7, 7, 7, 7, 7}), 0),
      SerializeGraph(db.graph(3), 3),
      SerializeGraph(sgq::testing::MakePath({9, 9}), 0),
  };
  auto expect_bit_identity = [&](const char* when) {
    for (size_t i = 0; i < probes.size(); ++i) {
      SCOPED_TRACE(std::string(when) + ", probe " + std::to_string(i));
      std::string direct_ids, routed_ids;
      const std::string direct_line = direct.QueryIds(probes[i], &direct_ids);
      const std::string routed_line = routed.QueryIds(probes[i], &routed_ids);
      ASSERT_EQ(ParseResponseHead(direct_line).kind, ResponseHead::Kind::kOk)
          << direct_line;
      ASSERT_EQ(ParseResponseHead(routed_line).kind, ResponseHead::Kind::kOk)
          << routed_line;
      EXPECT_EQ(routed_ids, direct_ids);
      EXPECT_EQ(ParseResponseHead(routed_line).num_answers,
                ParseResponseHead(direct_line).num_answers);
    }
  };
  // ADD the same graph to both stacks; the assigned gids must agree, and
  // the routed copy must land on the gid's splitmix64 owner.
  auto add_both = [&](const Graph& graph) -> GraphId {
    const std::string text = SerializeGraph(graph, 0);
    const std::string header =
        "ADD GRAPH " + std::to_string(text.size()) + "\n";
    const uint64_t before[2] = {fleet.shards[0]->Stats().db_graphs,
                                fleet.shards[1]->Stats().db_graphs};
    std::string direct_line, routed_line;
    EXPECT_TRUE(direct.Send(header) && direct.Send(text) &&
                direct.RecvLine(&direct_line));
    EXPECT_TRUE(routed.Send(header) && routed.Send(text) &&
                routed.RecvLine(&routed_line));
    GraphId direct_gid = 0, routed_gid = 0;
    EXPECT_TRUE(ParseAddedResponse(direct_line, &direct_gid)) << direct_line;
    EXPECT_TRUE(ParseAddedResponse(routed_line, &routed_gid)) << routed_line;
    EXPECT_EQ(routed_gid, direct_gid);
    const uint32_t owner = ShardOfGraph(routed_gid, Fleet::kShards);
    EXPECT_EQ(fleet.shards[owner]->Stats().db_graphs, before[owner] + 1);
    EXPECT_EQ(fleet.shards[1 - owner]->Stats().db_graphs, before[1 - owner]);
    return routed_gid;
  };
  auto remove_both = [&](GraphId gid) {
    const std::string command = "REMOVE GRAPH " + std::to_string(gid) + "\n";
    std::string direct_line, routed_line;
    EXPECT_TRUE(direct.Send(command) && direct.RecvLine(&direct_line));
    EXPECT_TRUE(routed.Send(command) && routed.RecvLine(&routed_line));
    GraphId acked = 0;
    EXPECT_TRUE(ParseRemovedResponse(direct_line, &acked)) << direct_line;
    EXPECT_TRUE(ParseRemovedResponse(routed_line, &acked)) << routed_line;
    EXPECT_EQ(acked, gid);
  };

  expect_bit_identity("baseline");
  const GraphId pentagon_gid =
      add_both(sgq::testing::MakeCycle({7, 7, 7, 7, 7}));
  EXPECT_EQ(pentagon_gid, 40u);
  expect_bit_identity("after first add");
  add_both(sgq::testing::MakeCycle({0, 1, 2}));
  expect_bit_identity("after second add");
  remove_both(3);  // a seed graph: surviving global ids must not shift
  expect_bit_identity("after seed remove");
  remove_both(pentagon_gid);
  expect_bit_identity("after added-graph remove");
  add_both(sgq::testing::MakePath({0, 1, 2, 3}));
  expect_bit_identity("after re-add");

  // The router owns the id space: a client-supplied id is refused without
  // burning an id, and the connection survives.
  const std::string text = SerializeGraph(sgq::testing::MakePath({1, 2}), 0);
  std::string line;
  ASSERT_TRUE(routed.Send("ADD GRAPH " + std::to_string(text.size()) +
                          " ID 99\n") &&
              routed.Send(text));
  ASSERT_TRUE(routed.RecvLine(&line));
  EXPECT_EQ(line.rfind("BAD_REQUEST", 0), 0u) << line;
  EXPECT_NE(line.find("without ID"), std::string::npos) << line;

  // A dead id surfaces the owner shard's failure as OVERLOADED.
  ASSERT_TRUE(routed.Send("REMOVE GRAPH " + std::to_string(pentagon_gid) +
                          "\n"));
  ASSERT_TRUE(routed.RecvLine(&line));
  EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;

  // Still bit-identical after the failure probes (neither burned an id).
  add_both(sgq::testing::MakeCycle({1, 2, 3}));
  expect_bit_identity("after failure probes");

  fleet.Stop();
  reference.RequestStop();
  reference.Wait();
}

// The router's id counter is soft state: a fresh router over a mutated
// fleet resumes above every shard's next_global_id, and after a RELOAD
// the re-derived counter still clears every id the fleet ever assigned.
TEST(RouterE2eTest, RouterIdSpaceSurvivesRestartAndReload) {
  GraphDatabase db = SmallDb(10);
  const std::string db_path =
      "/tmp/sgq_router_e2e_idspace_" + std::to_string(::getpid()) + ".txt";
  std::string error;
  ASSERT_TRUE(SaveDatabase(db, db_path, &error)) << error;

  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db), ShardFailurePolicy::kError, &error))
      << error;

  const std::string text =
      SerializeGraph(sgq::testing::MakeCycle({7, 7, 7, 7, 7}), 0);
  const std::string header = "ADD GRAPH " + std::to_string(text.size()) + "\n";
  auto add_via = [&](Client* client) -> GraphId {
    std::string line;
    EXPECT_TRUE(client->Send(header) && client->Send(text) &&
                client->RecvLine(&line));
    GraphId gid = ~GraphId{0};
    EXPECT_TRUE(ParseAddedResponse(line, &gid)) << line;
    return gid;
  };

  {
    Client client;
    ASSERT_TRUE(client.Connect(fleet.router_path));
    EXPECT_EQ(add_via(&client), 10u);
    EXPECT_EQ(add_via(&client), 11u);
  }

  // Restart only the router: the shards remember the mutations, and the
  // new router's lazily-derived counter must clear both of them.
  fleet.router->RequestStop();
  fleet.router->Wait();
  RouterServerConfig server_config;
  server_config.unix_path = fleet.router_path;
  RouterConfig router_config;
  for (const std::string& path : fleet.shard_paths) {
    ShardEndpoint endpoint;
    endpoint.unix_path = path;
    router_config.shards.push_back(endpoint);
  }
  router_config.on_shard_failure = ShardFailurePolicy::kError;
  router_config.forward_shutdown = false;
  fleet.router = std::make_unique<RouterServer>(server_config, router_config);
  ASSERT_TRUE(fleet.router->Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(fleet.router_path));
  EXPECT_EQ(add_via(&client), 12u);

  // RELOAD rewinds the fleet to the 10-graph seed. The router forgets its
  // counter and re-derives it from the shards — whose id spaces stay
  // monotone across a reload (ids are never reused within a server
  // lifetime, so cached global ids cannot alias a different graph). The
  // next ADD therefore continues at 13, not back at 10.
  std::string line;
  ASSERT_TRUE(client.Send("RELOAD @" + db_path + "\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK reloaded 10 graphs") << line;
  EXPECT_EQ(add_via(&client), 13u);

  fleet.Stop();
  ::unlink(db_path.c_str());
}

// Selective invalidation in the router cache: a mutation purges exactly
// the entries it can affect. An entry whose labels the new graph cannot
// cover stays hittable across an ADD; the purged query re-executes and
// sees the new graph; a REMOVE purges entries whose answers contain the
// gid.
TEST(RouterE2eTest, RouterCacheInvalidatesSelectivelyOnMutation) {
  if (!CacheEnabledByEnv()) GTEST_SKIP() << "SGQ_CACHE=off";
  const GraphDatabase db = SmallDb(10);
  std::string error;
  Fleet fleet;
  ASSERT_TRUE(fleet.Start(Clone(db), ShardFailurePolicy::kError, &error,
                          /*db_path=*/"", /*cache_mb=*/8))
      << error;
  Client client;
  ASSERT_TRUE(client.Connect(fleet.router_path));

  const std::string path_payload =
      SerializeGraph(sgq::testing::MakePath({0, 1}), 0);
  const std::string pentagon_payload =
      SerializeGraph(sgq::testing::MakeCycle({7, 7, 7, 7, 7}), 0);
  auto router_hits = [&]() -> uint64_t {
    std::string line;
    EXPECT_TRUE(client.Send("STATS\n") && client.RecvLine(&line));
    const std::string cache_json = RouterCacheJson(line);
    EXPECT_FALSE(cache_json.empty()) << line;
    return CacheCounter(cache_json, "hits");
  };

  // Warm both entries: a label-{0,1} answer and the pentagon's empty one.
  std::string ids, line;
  ASSERT_EQ(ParseResponseHead(client.QueryIds(path_payload, &ids)).kind,
            ResponseHead::Kind::kOk);
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS") << line;
  const uint64_t hits_before = router_hits();

  // ADD a pentagon: its label set {7} cannot cover a {0,1} query, so that
  // entry survives; the pentagon entry is subsumed and must be purged.
  ASSERT_TRUE(client.Send("ADD GRAPH " +
                          std::to_string(pentagon_payload.size()) + "\n") &&
              client.Send(pentagon_payload));
  ASSERT_TRUE(client.RecvLine(&line));
  GraphId gid = 0;
  ASSERT_TRUE(ParseAddedResponse(line, &gid)) << line;
  EXPECT_EQ(gid, 10u);

  ASSERT_EQ(ParseResponseHead(client.QueryIds(path_payload, &ids)).kind,
            ResponseHead::Kind::kOk);
  EXPECT_EQ(router_hits(), hits_before + 1) << "survivor entry did not hit";
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS 10") << "stale empty answer served after ADD: " << line;

  // REMOVE purges by answer membership: the pentagon entry (answer {10})
  // dies, the {0,1} entry keeps hitting.
  ASSERT_TRUE(client.Send("REMOVE GRAPH 10\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  GraphId removed = 0;
  ASSERT_TRUE(ParseRemovedResponse(line, &removed)) << line;
  const uint64_t hits_mid = router_hits();
  line = client.QueryIds(pentagon_payload, &ids);
  EXPECT_EQ(ids, "IDS") << "stale answer served after REMOVE: " << line;
  ASSERT_EQ(ParseResponseHead(client.QueryIds(path_payload, &ids)).kind,
            ResponseHead::Kind::kOk);
  EXPECT_EQ(router_hits(), hits_mid + 1);

  fleet.Stop();
}

}  // namespace
}  // namespace sgq
