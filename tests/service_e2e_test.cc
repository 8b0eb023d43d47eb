// End-to-end acceptance test for the service subsystem: a real
// SocketServer on a Unix socket, raw-socket clients speaking the line
// protocol, ≥100 queries over ≥4 concurrent connections, a deliberate
// TIMEOUT, a deterministic OVERLOADED, STATS totals that must match the
// client-side counts exactly, a graceful shutdown that drains, the cache
// section of STATS with CACHE CLEAR over the wire, RELOAD invalidation
// under concurrent query load, and the threads of closed connections being
// joined while the server runs. Runs under the `tsan` ctest label.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "gen/graph_gen.h"
#include "graph/graph_io.h"
#include "service/protocol.h"
#include "service/server.h"
#include "tests/test_util.h"
#include "util/socket.h"

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

// K_{n,n}, single label. Together with an odd-cycle query this is a
// deterministic deadline-bound workload: the cycle cannot embed (parity),
// but the search space is far too large to exhaust, so Query() runs until
// its deadline — exactly what the TIMEOUT / OVERLOADED phases need.
Graph CompleteBipartite(uint32_t n) {
  GraphBuilder builder;
  for (uint32_t i = 0; i < 2 * n; ++i) builder.AddVertex(0);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) builder.AddEdge(i, n + j);
  }
  return builder.Build();
}

GraphDatabase DbWithHardInstance() {
  GraphDatabase db;
  db.Add(CompleteBipartite(12));
  const GraphDatabase rest = SmallDb();
  for (const Graph& g : rest.graphs()) db.Add(g);
  return db;
}

std::string UniqueSocketPath(const char* tag) {
  return "/tmp/sgq_e2e_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// Minimal blocking line-protocol client over a Unix socket.
class Client {
 public:
  bool Connect(const std::string& path) {
    std::string error;
    fd_ = ConnectUnix(path, &error);
    return fd_.valid();
  }

  bool Send(const std::string& bytes) { return WriteAll(fd_.get(), bytes); }

  bool RecvLine(std::string* line) {
    line->clear();
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[512];
      const ssize_t n = ReadSome(fd_.get(), chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Sends one inline QUERY and returns the response line ("" on drop).
  std::string Query(const std::string& payload, double timeout_seconds = 0) {
    std::string header = "QUERY ";
    header += std::to_string(payload.size());
    if (timeout_seconds > 0) {
      header += ' ';
      header += std::to_string(timeout_seconds);
    }
    header += '\n';
    std::string line;
    if (!Send(header) || !Send(payload) || !RecvLine(&line)) return "";
    return line;
  }

  // Sends one inline STREAM query, consumes the incremental IDS chunk
  // lines into `ids`, and returns the terminal OK/TIMEOUT line ("" on a
  // drop or a malformed chunk).
  std::string StreamQuery(const std::string& payload, uint64_t limit,
                          std::vector<GraphId>* ids, bool also_ids = false) {
    std::string header = "QUERY ";
    header += std::to_string(payload.size());
    if (limit > 0) {
      header += " LIMIT ";
      header += std::to_string(limit);
    }
    if (also_ids) header += " IDS";
    header += " STREAM\n";
    ids->clear();
    if (!Send(header) || !Send(payload)) return "";
    std::string line;
    for (;;) {
      if (!RecvLine(&line)) return "";
      if (line.rfind("IDS", 0) != 0) return line;
      if (!ParseIdsChunk(line, ids)) return "";
    }
  }

 private:
  UniqueFd fd_;
  std::string buffer_;
};

uint64_t ExtractUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

ServiceStatsSnapshot StatsOverWire(const std::string& socket_path,
                                   std::string* raw_json) {
  Client client;
  EXPECT_TRUE(client.Connect(socket_path));
  EXPECT_TRUE(client.Send("STATS\n"));
  std::string line;
  EXPECT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line.rfind("OK {", 0), 0u) << line;
  *raw_json = line.substr(3);
  ServiceStatsSnapshot stats;
  stats.received = ExtractUint(*raw_json, "received");
  stats.admitted = ExtractUint(*raw_json, "admitted");
  stats.rejected_overloaded = ExtractUint(*raw_json, "rejected_overloaded");
  stats.completed_ok = ExtractUint(*raw_json, "completed_ok");
  stats.completed_timeout = ExtractUint(*raw_json, "completed_timeout");
  stats.bad_requests = ExtractUint(*raw_json, "bad_requests");
  stats.queue_depth = ExtractUint(*raw_json, "queue_depth");
  stats.in_flight = ExtractUint(*raw_json, "in_flight");
  return stats;
}

TEST(ServiceE2eTest, ServeQueryStatsShutdownOverUnixSocket) {
  const std::string socket_path = UniqueSocketPath("basic");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.engine_name = "CFQL";
  service_config.workers = 2;
  service_config.queue_capacity = 8;

  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(SmallDb(), &error)) << error;

  const GraphDatabase db = SmallDb();
  const std::string payload = SerializeGraph(db.graph(0), 0);

  Client client;
  ASSERT_TRUE(client.Connect(socket_path));

  // Inline query: graph 0 is a subgraph of itself, so >= 1 answer.
  const std::string response = client.Query(payload);
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find("\"num_answers\":"), std::string::npos);

  // @file query: same graph via a file reference.
  const std::string query_file =
      "/tmp/sgq_e2e_q_" + std::to_string(::getpid()) + ".txt";
  { std::ofstream(query_file) << payload; }
  std::string line;
  ASSERT_TRUE(client.Send("QUERY @" + query_file + "\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;
  ::unlink(query_file.c_str());

  // A protocol error gets BAD_REQUEST, closes that connection only, and
  // shows up in the stats.
  Client hostile;
  ASSERT_TRUE(hostile.Connect(socket_path));
  ASSERT_TRUE(hostile.Send("FROBNICATE\n"));
  ASSERT_TRUE(hostile.RecvLine(&line));
  EXPECT_EQ(line.rfind("BAD_REQUEST", 0), 0u) << line;

  std::string raw_json;
  const ServiceStatsSnapshot stats = StatsOverWire(socket_path, &raw_json);
  EXPECT_EQ(stats.received, 2u);
  EXPECT_EQ(stats.completed_ok, 2u);
  EXPECT_EQ(stats.bad_requests, 1u);

  // SHUTDOWN over the wire: BYE, then the server drains and the socket
  // file disappears.
  ASSERT_TRUE(client.Send("SHUTDOWN\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "BYE");
  server.Wait();
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

TEST(ServiceE2eTest, FloodWithDeliberateTimeoutAndOverload) {
  const std::string socket_path = UniqueSocketPath("flood");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.engine_name = "CFQL";
  service_config.workers = 2;
  service_config.queue_capacity = 2;

  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(DbWithHardInstance(), &error)) << error;

  const std::string slow_payload =
      SerializeGraph(sgq::testing::MakeCycle({0, 0, 0, 0, 0, 0, 0, 0, 0}), 0);
  const GraphDatabase fast_queries = SmallDb();

  // Client-side ground truth, compared against STATS at the end.
  std::atomic<uint64_t> ok{0}, timeout{0}, overloaded{0}, dropped{0};
  const auto count = [&](const std::string& line) {
    if (line.rfind("OK ", 0) == 0) {
      ++ok;
    } else if (line.rfind("TIMEOUT ", 0) == 0) {
      ++timeout;
    } else if (line.rfind("OVERLOADED", 0) == 0) {
      ++overloaded;
    } else {
      ++dropped;
      ADD_FAILURE() << "unexpected response: '" << line << "'";
    }
  };

  // Phase A — deliberate TIMEOUT: the bipartite trap bounded to 0.3s.
  {
    Client client;
    ASSERT_TRUE(client.Connect(socket_path));
    const std::string line = client.Query(slow_payload, 0.3);
    EXPECT_EQ(line.rfind("TIMEOUT ", 0), 0u) << line;
    count(line);
  }

  // Phase B — deterministic OVERLOADED: occupy both workers with slow
  // queries, fill both queue slots with two more, then a fifth request
  // must bounce at admission.
  {
    std::vector<std::thread> busy;
    for (int i = 0; i < 2; ++i) {
      busy.emplace_back([&] {
        Client client;
        ASSERT_TRUE(client.Connect(socket_path));
        count(client.Query(slow_payload, 1.5));
      });
    }
    std::string raw_json;
    while (StatsOverWire(socket_path, &raw_json).in_flight < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::vector<std::thread> queued;
    for (int i = 0; i < 2; ++i) {
      queued.emplace_back([&] {
        Client client;
        ASSERT_TRUE(client.Connect(socket_path));
        // Expires in the queue while both workers grind on 1.5s queries;
        // the worker cancels it at pop without touching the database.
        count(client.Query(slow_payload, 1.0));
      });
    }
    while (StatsOverWire(socket_path, &raw_json).queue_depth < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    Client client;
    ASSERT_TRUE(client.Connect(socket_path));
    const std::string line =
        client.Query(SerializeGraph(fast_queries.graph(0), 0));
    // The rejection may carry a backoff hint ("OVERLOADED retry_after_ms=N")
    // once the server has a latency estimate, so match the prefix only.
    EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
    count(line);

    for (std::thread& t : busy) t.join();
    for (std::thread& t : queued) t.join();
  }
  EXPECT_GE(timeout.load(), 5u);  // phase A + all four slow queries

  // Let phase B fully settle before the flood.
  std::string raw_json;
  for (;;) {
    const ServiceStatsSnapshot s = StatsOverWire(socket_path, &raw_json);
    if (s.in_flight == 0 && s.queue_depth == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Phase C — the flood: 4 connections x 30 fast queries each. A client
  // that is bounced by backpressure retries, like a real one would: with
  // only 2 workers + 2 queue slots, a request can arrive in the window
  // where a worker has finished one query but not yet popped the next,
  // so transient OVERLOADED is legitimate here. Every response is still
  // counted, so the books below must balance regardless.
  std::vector<std::thread> flood;
  for (int c = 0; c < 4; ++c) {
    flood.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect(socket_path));
      for (int i = 0; i < 30; ++i) {
        const GraphId id = static_cast<GraphId>((c * 30 + i) %
                                                fast_queries.size());
        const std::string payload = SerializeGraph(fast_queries.graph(id), id);
        for (;;) {
          const std::string line = client.Query(payload);
          count(line);
          if (line.rfind("OK ", 0) == 0) break;
          ASSERT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  for (std::thread& t : flood) t.join();

  // The books must balance: STATS totals == client-side counts.
  const uint64_t sent = ok + timeout + overloaded + dropped;
  EXPECT_EQ(ok.load(), 120u);      // every flood query eventually succeeded
  EXPECT_EQ(timeout.load(), 5u);   // phase A + the four phase-B slow queries
  EXPECT_EQ(dropped.load(), 0u);
  EXPECT_GE(ok.load(), 100u);
  EXPECT_GE(timeout.load(), 1u);
  EXPECT_GE(overloaded.load(), 1u);

  const ServiceStatsSnapshot wire = StatsOverWire(socket_path, &raw_json);
  EXPECT_EQ(wire.received, sent);
  EXPECT_EQ(wire.completed_ok, ok.load());
  EXPECT_EQ(wire.completed_timeout, timeout.load());
  EXPECT_EQ(wire.rejected_overloaded, overloaded.load());
  EXPECT_EQ(wire.admitted, ok.load() + timeout.load());
  EXPECT_EQ(wire.bad_requests, 0u);

  // Graceful shutdown via signal-style RequestStop (what SIGTERM does in
  // sgq_server): drains and unlinks the socket. The in-process snapshot
  // must agree with what the wire reported.
  server.RequestStop();
  server.Wait();
  const ServiceStatsSnapshot final_stats = server.Stats();
  EXPECT_EQ(final_stats.received, wire.received);
  EXPECT_EQ(final_stats.completed_ok, wire.completed_ok);
  EXPECT_EQ(final_stats.completed_timeout, wire.completed_timeout);
  EXPECT_EQ(final_stats.rejected_overloaded, wire.rejected_overloaded);
  EXPECT_EQ(final_stats.in_flight, 0u);
  EXPECT_EQ(final_stats.queue_depth, 0u);
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

// Number of answers in an "OK <n> <json>" / "TIMEOUT <n> <json>" response;
// ~0ull for anything else (OVERLOADED during a reload drain).
uint64_t AnswersInResponse(const std::string& line) {
  const size_t space = line.find(' ');
  if (space == std::string::npos) return ~0ull;
  if (line.rfind("OK ", 0) != 0) return ~0ull;
  return std::strtoull(line.c_str() + space + 1, nullptr, 10);
}

TEST(ServiceE2eTest, StatsCacheSectionAndCacheClearOverWire) {
  if (!CacheEnabledByEnv()) GTEST_SKIP() << "SGQ_CACHE=off";
  const std::string socket_path = UniqueSocketPath("cache");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_capacity = 8;

  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(SmallDb(), &error)) << error;

  const std::string payload = SerializeGraph(SmallDb().graph(1), 0);
  Client client;
  ASSERT_TRUE(client.Connect(socket_path));
  const std::string first = client.Query(payload);
  const std::string second = client.Query(payload);  // cache hit
  EXPECT_EQ(first, second);  // byte-identical response line

  std::string raw_json;
  StatsOverWire(socket_path, &raw_json);
  EXPECT_NE(raw_json.find("\"cache\":{"), std::string::npos) << raw_json;
  EXPECT_EQ(ExtractUint(raw_json, "hits"), 1u);
  EXPECT_EQ(ExtractUint(raw_json, "engine_executions"), 1u);
  EXPECT_EQ(ExtractUint(raw_json, "entries"), 1u);

  // CACHE CLEAR over the wire empties the cache; the next identical query
  // re-executes and produces the same bytes again.
  std::string line;
  ASSERT_TRUE(client.Send("CACHE CLEAR\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK cache cleared");
  StatsOverWire(socket_path, &raw_json);
  EXPECT_EQ(ExtractUint(raw_json, "entries"), 0u);
  // The re-execution reports fresh timings, but the answers are identical.
  const std::string third = client.Query(payload);
  EXPECT_EQ(AnswersInResponse(third), AnswersInResponse(first));
  StatsOverWire(socket_path, &raw_json);
  EXPECT_EQ(ExtractUint(raw_json, "engine_executions"), 2u);

  server.RequestStop();
  server.Wait();
}

TEST(ServiceE2eTest, ReloadInvalidatesCacheUnderConcurrentLoad) {
  // db2 = db1 plus a pentagon whose label is absent from db1. Clients
  // hammer the pentagon query while the database is swapped underneath
  // them via RELOAD @file. The invariant: per connection, the answer
  // count is monotone 0 -> 1 — a cached pre-swap "no answers" must never
  // be served once any answer from the new database has been seen, and
  // in-flight old-epoch queries never surface post-swap results early.
  const Graph pentagon = sgq::testing::MakeCycle({7, 7, 7, 7, 7});
  GraphDatabase db1 = SmallDb(10);
  GraphDatabase db2 = SmallDb(10);
  db2.Add(pentagon);
  const std::string db1_path =
      "/tmp/sgq_e2e_db1_" + std::to_string(::getpid()) + ".txt";
  const std::string db2_path =
      "/tmp/sgq_e2e_db2_" + std::to_string(::getpid()) + ".txt";
  std::string error;
  ASSERT_TRUE(SaveDatabase(db1, db1_path, &error)) << error;
  ASSERT_TRUE(SaveDatabase(db2, db2_path, &error)) << error;

  const std::string socket_path = UniqueSocketPath("reload");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  server_config.db_path = db1_path;
  ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_capacity = 16;

  SocketServer server(server_config, service_config);
  ASSERT_TRUE(server.Start(SmallDb(10), &error)) << error;
  // Note: Start() got an in-memory copy of db1; the RELOAD below reads
  // db2 from disk, which is how sgq_server swaps databases too.

  const std::string pentagon_payload = SerializeGraph(pentagon, 0);
  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_done{0};
  std::vector<std::thread> clients;
  std::vector<bool> monotone(kClients, true);
  std::vector<uint64_t> last_seen(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect(socket_path));
      // After `stop`, keep going (bounded) until this connection has seen
      // the post-reload database, so the final assertions are not timing-
      // dependent.
      int post_stop_attempts = 0;
      while (!stop.load(std::memory_order_acquire) ||
             (last_seen[c] == 0 && ++post_stop_attempts < 500)) {
        const std::string line = client.Query(pentagon_payload);
        const uint64_t answers = AnswersInResponse(line);
        if (answers == ~0ull) {
          // OVERLOADED while the reload drains; back off and retry.
          EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        if (answers < last_seen[c]) monotone[c] = false;
        last_seen[c] = answers;
        ++queries_done;
      }
    });
  }

  // Let the cache warm up with pre-swap answers, then swap.
  while (queries_done.load() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Client admin;
  ASSERT_TRUE(admin.Connect(socket_path));
  std::string line;
  ASSERT_TRUE(admin.Send("RELOAD @" + db2_path + "\n"));
  ASSERT_TRUE(admin.RecvLine(&line));
  EXPECT_EQ(line, "OK reloaded 11 graphs") << line;

  // After the reload acknowledges, a fresh query must see the pentagon —
  // the pre-swap cached "0 answers" is unreachable (epoch moved).
  const std::string after = admin.Query(pentagon_payload);
  EXPECT_EQ(AnswersInResponse(after), 1u) << after;

  // Keep the flood going briefly on the new database, then stop.
  const uint64_t at_reload = queries_done.load();
  while (queries_done.load() < at_reload + 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(monotone[c]) << "connection " << c
                             << " saw answers regress after the reload";
    EXPECT_EQ(last_seen[c], 1u) << "connection " << c
                                << " never saw the post-reload database";
  }

  std::string raw_json;
  StatsOverWire(socket_path, &raw_json);
  if (CacheEnabledByEnv()) {
    EXPECT_EQ(ExtractUint(raw_json, "epoch"), 1u);
  }
  EXPECT_EQ(ExtractUint(raw_json, "reloads"), 1u);

  server.RequestStop();
  server.Wait();
  ::unlink(db1_path.c_str());
  ::unlink(db2_path.c_str());
}

// The tentpole invariant of the streaming pipeline: a STREAM response —
// at any LIMIT, on any engine, serial or parallel — is byte-for-byte the
// prefix of the batch IDS answer list, and the terminal count equals the
// number of ids streamed.
TEST(ServiceE2eTest, StreamedResultsAreBitIdenticalPrefixOfBatch) {
  const char* engines[] = {"CFQL", "VF2-scan", "CFQL-parallel"};
  const GraphDatabase db = SmallDb();
  // Single labeled edge: embeds in most of the 40 synthetic graphs, so
  // the streamed sequence is long enough to cross chunk boundaries.
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(1);
  builder.AddEdge(0, 1);
  const std::string payload = SerializeGraph(builder.Build(), 0);

  for (const char* engine : engines) {
    SCOPED_TRACE(engine);
    const std::string socket_path = UniqueSocketPath("stream");
    ServerConfig server_config;
    server_config.unix_path = socket_path;
    ServiceConfig service_config;
    service_config.engine_name = engine;
    service_config.workers = 2;
    service_config.queue_capacity = 8;

    SocketServer server(server_config, service_config);
    std::string error;
    ASSERT_TRUE(server.Start(SmallDb(), &error)) << error;

    Client client;
    ASSERT_TRUE(client.Connect(socket_path));

    // Batch ground truth with the IDS trailer.
    std::string header = "QUERY " + std::to_string(payload.size()) + " IDS\n";
    std::string line, ids_line;
    ASSERT_TRUE(client.Send(header) && client.Send(payload));
    ASSERT_TRUE(client.RecvLine(&line));
    ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    const ResponseHead batch_head = ParseResponseHead(line);
    ASSERT_TRUE(batch_head.has_count);
    ASSERT_TRUE(client.RecvLine(&ids_line));
    std::vector<GraphId> batch_ids;
    ASSERT_TRUE(ParseIdsLine(ids_line, batch_head.num_answers, &batch_ids));
    ASSERT_GE(batch_ids.size(), 2u) << "query too selective for this test";

    // Full stream == full batch list, and the terminal count agrees.
    std::vector<GraphId> streamed;
    line = client.StreamQuery(payload, /*limit=*/0, &streamed);
    ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    EXPECT_EQ(streamed, batch_ids);
    EXPECT_EQ(ParseResponseHead(line).num_answers, streamed.size());

    // Every LIMIT k streams exactly the first k batch ids.
    for (const uint64_t k : {uint64_t{1}, uint64_t{2},
                             static_cast<uint64_t>(batch_ids.size() + 5)}) {
      line = client.StreamQuery(payload, k, &streamed);
      ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
      const size_t expect =
          std::min<size_t>(static_cast<size_t>(k), batch_ids.size());
      ASSERT_EQ(streamed.size(), expect);
      EXPECT_TRUE(std::equal(streamed.begin(), streamed.end(),
                             batch_ids.begin()));
      EXPECT_EQ(ParseResponseHead(line).num_answers, streamed.size());
    }

    // STREAM + IDS must not emit the batch trailer after the terminal
    // line: the very next line on the connection is the STATS reply.
    line = client.StreamQuery(payload, 0, &streamed, /*also_ids=*/true);
    ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    EXPECT_EQ(streamed, batch_ids);
    ASSERT_TRUE(client.Send("STATS\n"));
    ASSERT_TRUE(client.RecvLine(&line));
    EXPECT_EQ(line.rfind("OK {", 0), 0u) << line;

    server.RequestStop();
    server.Wait();
  }
}

// Shutdown must not strand a connection that is mid-payload: the
// connection closes once the client is idle, and admitted work still
// completes.
TEST(ServiceE2eTest, ShutdownWithIdleConnectionsDoesNotHang) {
  const std::string socket_path = UniqueSocketPath("idle");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.workers = 1;
  service_config.queue_capacity = 4;

  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(SmallDb(), &error)) << error;

  // Three connections sit idle; one holds a truncated payload forever.
  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 3; ++i) {
    idle.push_back(std::make_unique<Client>());
    ASSERT_TRUE(idle.back()->Connect(socket_path));
  }
  ASSERT_TRUE(idle[2]->Send("QUERY 100\npartial"));

  server.RequestStop();
  server.Wait();  // must return despite the idle/truncated connections
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

TEST(ServiceE2eTest, ClosedConnectionsDoNotLeakThreadStacks) {
  // Every connection gets a thread. Joined only at shutdown, each closed
  // connection would keep its stack mapped: ~8 MB of address space, so 200
  // connections would add ~1.6 GB of VmSize.
  const std::string socket_path = UniqueSocketPath("reap");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.workers = 1;
  service_config.queue_capacity = 4;
  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(SmallDb(10), &error)) << error;

  const auto one_connection = [&] {
    Client client;
    ASSERT_TRUE(client.Connect(socket_path));
    std::string line;
    ASSERT_TRUE(client.Send("STATS\n"));
    ASSERT_TRUE(client.RecvLine(&line));
    ASSERT_EQ(line.rfind("OK {", 0), 0u) << line;
  };
  for (int i = 0; i < 10; ++i) one_connection();  // warm the stack cache
  const long before_kb = sgq::testing::VmSizeKb();
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < 200; ++i) one_connection();
  EXPECT_LT(sgq::testing::VmSizeKb() - before_kb, 200 * 1024);

  server.RequestStop();
  server.Wait();
}

// The full mutation verb surface over the wire: inline and @file ADD,
// forced ids, REMOVE, the error taxonomy (OVERLOADED for live-data
// failures, BAD_REQUEST for malformed payloads/grammar), and the STATS
// "update" section — all on one server, with queries observing each
// published version.
TEST(ServiceE2eTest, LiveMutationsOverTheWire) {
  const std::string socket_path = UniqueSocketPath("mutate");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_capacity = 16;

  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(SmallDb(), &error)) << error;  // gids 0..39

  const Graph pentagon = sgq::testing::MakeCycle({7, 7, 7, 7, 7});
  const std::string graph_text = SerializeGraph(pentagon, 0);
  const std::string query_payload = SerializeGraph(pentagon, 0);
  const std::string query_header =
      "QUERY " + std::to_string(query_payload.size()) + " IDS\n";

  Client client;
  ASSERT_TRUE(client.Connect(socket_path));
  std::string line;

  // Label 7 is absent from SmallDb: the pentagon query starts empty.
  ASSERT_TRUE(client.Send(query_header) && client.Send(query_payload));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(AnswersInResponse(line), 0u) << line;
  ASSERT_TRUE(client.RecvLine(&line));  // empty IDS trailer

  // Inline ADD: the first free global id after a 40-graph seed is 40.
  ASSERT_TRUE(client.Send("ADD GRAPH " + std::to_string(graph_text.size()) +
                          "\n") &&
              client.Send(graph_text));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK added 40") << line;

  ASSERT_TRUE(client.Send(query_header) && client.Send(query_payload));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(AnswersInResponse(line), 1u) << line;
  std::string ids_line;
  ASSERT_TRUE(client.RecvLine(&ids_line));
  std::vector<GraphId> ids;
  ASSERT_TRUE(ParseIdsLine(ids_line, 1, &ids));
  EXPECT_EQ(ids, std::vector<GraphId>{40});

  // @file ADD with a forced id: a gap above next_global_id is legal.
  const std::string file_path =
      "/tmp/sgq_e2e_add_" + std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(file_path);
    out << graph_text;
  }
  ASSERT_TRUE(client.Send("ADD GRAPH @" + file_path + " ID 50\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK added 50") << line;

  ASSERT_TRUE(client.Send(query_header) && client.Send(query_payload));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(AnswersInResponse(line), 2u) << line;
  ASSERT_TRUE(client.RecvLine(&ids_line));
  ASSERT_TRUE(ParseIdsLine(ids_line, 2, &ids));
  EXPECT_EQ(ids, (std::vector<GraphId>{40, 50}));

  // REMOVE keeps the surviving global id stable.
  ASSERT_TRUE(client.Send("REMOVE GRAPH 40\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line, "OK removed 40") << line;

  ASSERT_TRUE(client.Send(query_header) && client.Send(query_payload));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(AnswersInResponse(line), 1u) << line;
  ASSERT_TRUE(client.RecvLine(&ids_line));
  ASSERT_TRUE(ParseIdsLine(ids_line, 1, &ids));
  EXPECT_EQ(ids, std::vector<GraphId>{50});

  // A dead id is a live-data failure (OVERLOADED), not a grammar error:
  // the connection stays usable.
  ASSERT_TRUE(client.Send("REMOVE GRAPH 40\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line.rfind("OVERLOADED", 0), 0u) << line;

  // An unparseable payload is BAD_REQUEST, also non-terminal.
  const std::string junk = "this is not a graph\n";
  ASSERT_TRUE(client.Send("ADD GRAPH " + std::to_string(junk.size()) + "\n") &&
              client.Send(junk));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(line.rfind("BAD_REQUEST", 0), 0u) << line;

  // The STATS update section accounts for everything above.
  ASSERT_TRUE(client.Send("STATS\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(line.rfind("OK {", 0), 0u) << line;
  EXPECT_NE(line.find("\"update\":{"), std::string::npos) << line;
  EXPECT_EQ(ExtractUint(line, "mutations_add"), 2u);
  EXPECT_EQ(ExtractUint(line, "mutations_remove"), 1u);
  EXPECT_EQ(ExtractUint(line, "mutation_failures"), 1u);
  EXPECT_EQ(ExtractUint(line, "db_epoch"), 4u);  // publish + 3 mutations
  EXPECT_EQ(ExtractUint(line, "next_global_id"), 51u);

  // Mutation grammar errors terminate the connection like any other
  // codec error; probe with a throwaway client.
  {
    Client bad;
    ASSERT_TRUE(bad.Connect(socket_path));
    ASSERT_TRUE(bad.Send("ADD GRAPH\n"));
    ASSERT_TRUE(bad.RecvLine(&line));
    EXPECT_EQ(line.rfind("BAD_REQUEST", 0), 0u) << line;
  }

  ::unlink(file_path.c_str());
  server.RequestStop();
  server.Wait();
}

// Queries flooding one connection while another connection cycles
// ADD/REMOVE of a single pentagon: snapshot isolation means every
// response sees either zero or one pentagon — never a torn state — and
// the server reports zero quiesce (queries ran during mutations).
TEST(ServiceE2eTest, MutationStreamInterleavedWithWireQueries) {
  const std::string socket_path = UniqueSocketPath("interleave");
  ServerConfig server_config;
  server_config.unix_path = socket_path;
  ServiceConfig service_config;
  service_config.workers = 3;
  service_config.queue_capacity = 32;

  SocketServer server(server_config, service_config);
  std::string error;
  ASSERT_TRUE(server.Start(SmallDb(), &error)) << error;

  const std::string graph_text =
      SerializeGraph(sgq::testing::MakeCycle({7, 7, 7, 7, 7}), 0);
  const std::string query_header =
      "QUERY " + std::to_string(graph_text.size()) + "\n";

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<bool> reader_failed{false};
  std::thread reader([&] {
    Client c;
    if (!c.Connect(socket_path)) {
      reader_failed.store(true);
      return;
    }
    while (!stop.load()) {
      const std::string line = c.Query(graph_text);
      const uint64_t n = AnswersInResponse(line);
      if (n == ~0ull || n > 1) {  // torn state or error: fail loudly
        reader_failed.store(true);
        return;
      }
      queries_ok.fetch_add(1);
    }
  });

  Client mutator;
  ASSERT_TRUE(mutator.Connect(socket_path));
  const int kCycles = 20;
  for (int i = 0; i < kCycles; ++i) {
    std::string line;
    ASSERT_TRUE(mutator.Send("ADD GRAPH " +
                             std::to_string(graph_text.size()) + "\n") &&
                mutator.Send(graph_text));
    ASSERT_TRUE(mutator.RecvLine(&line));
    GraphId gid = 0;
    ASSERT_TRUE(ParseAddedResponse(line, &gid)) << line;
    ASSERT_TRUE(mutator.Send("REMOVE GRAPH " + std::to_string(gid) + "\n"));
    ASSERT_TRUE(mutator.RecvLine(&line));
    GraphId removed = 0;
    ASSERT_TRUE(ParseRemovedResponse(line, &removed)) << line;
    ASSERT_EQ(removed, gid);
  }
  stop.store(true);
  reader.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_GT(queries_ok.load(), 0u);

  std::string raw;
  const ServiceStatsSnapshot stats = StatsOverWire(socket_path, &raw);
  (void)stats;
  EXPECT_EQ(ExtractUint(raw, "mutations_add"),
            static_cast<uint64_t>(kCycles));
  EXPECT_EQ(ExtractUint(raw, "mutations_remove"),
            static_cast<uint64_t>(kCycles));
  EXPECT_EQ(ExtractUint(raw, "mutation_failures"), 0u);

  server.RequestStop();
  server.Wait();
}

}  // namespace
}  // namespace sgq
