// Satellite of the thread-pool PR: the parallel engine must be bit-for-bit
// deterministic. Answers, num_candidates and si_tests come from per-graph
// predicates that do not depend on how the scan is partitioned, so every
// (threads, chunk) combination must reproduce the serial vcFV result exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "matching/cfl.h"
#include "matching/matcher.h"
#include "matching/parallel_backtrack.h"
#include "matching/workspace.h"
#include "query/engine_factory.h"
#include "query/parallel_vcfv_engine.h"
#include "tests/test_util.h"
#include "util/intersect.h"
#include "util/rng.h"

namespace sgq {
namespace {

GraphDatabase MakeDb(uint64_t seed, uint32_t graphs) {
  SyntheticParams params;
  params.num_graphs = graphs;
  params.vertices_per_graph = 30;
  params.degree = 3.0;
  params.num_labels = 4;
  params.seed = seed;
  return GenerateSyntheticDatabase(params);
}

std::vector<Graph> MakeQueries(const GraphDatabase& db, int count,
                               uint64_t seed) {
  std::vector<Graph> queries;
  Rng rng(seed);
  while (static_cast<int>(queries.size()) < count) {
    Graph q;
    if (GenerateQuery(db, queries.size() % 2 == 0 ? QueryKind::kSparse
                                                  : QueryKind::kDense,
                      6, &rng, &q)) {
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

TEST(ParallelDeterminismTest, MatchesSerialAcrossThreadAndChunkCounts) {
  const GraphDatabase db = MakeDb(11, 72);
  const std::vector<Graph> queries = MakeQueries(db, 6, 23);

  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  for (const Graph& q : queries) expected.push_back(serial->Query(q));

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (uint32_t chunk : {0u, 1u, 3u, 17u, 1000u}) {
      ParallelVcfvEngine parallel(threads, chunk);
      ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryResult actual =
            parallel.Query(queries[i], Deadline::Infinite());
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " chunk=" << chunk
                     << " query=" << i);
        // Byte-identical answer sets (both sorted GraphId vectors).
        EXPECT_EQ(actual.answers, expected[i].answers);
        // Identical filtering/verification work, not just identical answers.
        EXPECT_EQ(actual.stats.num_candidates,
                  expected[i].stats.num_candidates);
        EXPECT_EQ(actual.stats.si_tests, expected[i].stats.si_tests);
        EXPECT_EQ(actual.stats.num_answers, expected[i].stats.num_answers);
        EXPECT_FALSE(actual.stats.timed_out);
      }
    }
  }
}

TEST(ParallelDeterminismTest, RepeatedQueriesOnOneEngineAreStable) {
  // Workspace reuse must not leak state between queries: asking the same
  // engine the same queries twice (warm workspaces the second time) must
  // reproduce the cold-run results.
  const GraphDatabase db = MakeDb(5, 48);
  const std::vector<Graph> queries = MakeQueries(db, 4, 31);
  ParallelVcfvEngine engine(4, 5);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));

  std::vector<QueryResult> first;
  for (const Graph& q : queries) {
    first.push_back(engine.Query(q, Deadline::Infinite()));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult again = engine.Query(queries[i], Deadline::Infinite());
    SCOPED_TRACE(::testing::Message() << "query=" << i);
    EXPECT_EQ(again.answers, first[i].answers);
    EXPECT_EQ(again.stats.num_candidates, first[i].stats.num_candidates);
    EXPECT_EQ(again.stats.si_tests, first[i].stats.si_tests);
  }
}

TEST(ParallelDeterminismTest, KernelsAgreeUnderParallelism) {
  // The extension kernels must not perturb parallel determinism: the
  // parallel engine on the word kernel (30-vertex graphs) and on the list
  // kernel (the same graphs padded past 64 vertices, SIMD on and off)
  // reproduces the serial word-kernel result.
  const bool saved_simd = IntersectSimdEnabled();
  const GraphDatabase db = MakeDb(19, 56);
  const GraphDatabase padded = ::sgq::testing::PadPastWordLimit(db);
  const std::vector<Graph> queries = MakeQueries(db, 4, 37);

  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  for (const Graph& q : queries) expected.push_back(serial->Query(q));

  struct Config {
    const GraphDatabase* db;
    bool simd;
    const char* name;
  };
  for (const Config& config : {Config{&db, true, "words"},
                               Config{&padded, true, "lists"},
                               Config{&padded, false, "lists-scalar"}}) {
    SetIntersectSimdEnabled(config.simd);
    ParallelVcfvEngine parallel(4, 3);
    ASSERT_TRUE(parallel.Prepare(*config.db, Deadline::Infinite()));
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResult actual =
          parallel.Query(queries[i], Deadline::Infinite());
      SCOPED_TRACE(::testing::Message()
                   << "kernel=" << config.name << " query=" << i);
      EXPECT_EQ(actual.answers, expected[i].answers);
      EXPECT_EQ(actual.stats.num_candidates,
                expected[i].stats.num_candidates);
      EXPECT_EQ(actual.stats.si_tests, expected[i].stats.si_tests);
    }
  }
  SetIntersectSimdEnabled(saved_simd);
}

TEST(ParallelDeterminismTest, WorkspaceHitRateClimbsAfterWarmup) {
  const GraphDatabase db = MakeDb(7, 64);
  const std::vector<Graph> queries = MakeQueries(db, 3, 13);
  ParallelVcfvEngine engine(4);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));

  // A slot allocates at most once over the engine's lifetime (its first
  // graph); every other Filter() is a hit. Which query a slot first
  // participates in depends on scheduling, so the bound is cumulative.
  // Every graph the label-count screen admits reaches Filter() once.
  uint64_t hits = 0, misses = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult r = engine.Query(queries[i], Deadline::Infinite());
    uint64_t admitted = 0;
    for (GraphId g = 0; g < db.size(); ++g) {
      admitted += db.graph(g).MayContain(queries[i]) ? 1 : 0;
    }
    EXPECT_EQ(r.stats.ws_filter_hits + r.stats.ws_filter_misses, admitted)
        << "query " << i;
    hits += r.stats.ws_filter_hits;
    misses += r.stats.ws_filter_misses;
  }
  EXPECT_GT(misses, 0u);  // the first graph of the first active slot
  // Slots = pool threads + the participating caller.
  EXPECT_LE(misses, engine.num_threads() + 1u);
  // The acceptance bar for the workload: >90% of Filter() calls recycled.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
}

// A 61-label database where the label-count screen rejects most
// (query, graph) pairs before Filter(): the parallel scan, batch and
// streaming, with the automatic split threshold and with every enumeration
// split, must screen the same graphs as the serial engine and so report the
// same candidates and SI tests.
TEST(ParallelDeterminismTest, ScreenedScanMatchesSerialInEveryMode) {
  SyntheticParams params;
  params.num_graphs = 90;
  params.vertices_per_graph = 24;
  params.degree = 3.0;
  params.num_labels = 61;
  params.labels_per_graph = 6;
  params.seed = 61;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  const std::vector<Graph> queries = MakeQueries(db, 6, 67);

  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  uint64_t filter_calls = 0;
  for (const Graph& q : queries) {
    expected.push_back(serial->Query(q));
    filter_calls += expected.back().stats.ws_filter_hits +
                    expected.back().stats.ws_filter_misses;
  }
  // The screen must have rejected most pairs for this test to mean much.
  EXPECT_LT(filter_calls, queries.size() * db.size() / 2);

  // Collects every streamed id; never stops the scan.
  class CollectSink : public ResultSink {
   public:
    bool OnAnswer(GraphId id) override {
      ids.push_back(id);
      return true;
    }
    std::vector<GraphId> ids;
  };

  for (uint32_t heavy_threshold : {0u, 1u}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (uint32_t chunk : {1u, 7u, 0u}) {
        ParallelVcfvEngine parallel(
            threads, chunk, StealConfig{.heavy_threshold = heavy_threshold});
        ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
        for (size_t i = 0; i < queries.size(); ++i) {
          SCOPED_TRACE(::testing::Message()
                       << "heavy_threshold=" << heavy_threshold
                       << " threads=" << threads
                       << " chunk=" << chunk << " query=" << i);
          const QueryResult batch =
              parallel.Query(queries[i], Deadline::Infinite());
          CollectSink sink;
          const QueryResult streamed =
              parallel.Query(queries[i], Deadline::Infinite(), &sink);
          for (const QueryResult* actual : {&batch, &streamed}) {
            EXPECT_EQ(actual->answers, expected[i].answers);
            EXPECT_EQ(actual->stats.num_candidates,
                      expected[i].stats.num_candidates);
            EXPECT_EQ(actual->stats.si_tests, expected[i].stats.si_tests);
            EXPECT_EQ(actual->stats.ws_filter_hits +
                          actual->stats.ws_filter_misses,
                      expected[i].stats.ws_filter_hits +
                          expected[i].stats.ws_filter_misses);
            EXPECT_FALSE(actual->stats.timed_out);
          }
          EXPECT_EQ(sink.ids, expected[i].answers);
        }
      }
    }
  }
}

// ---- intra-query stealing --------------------------------------------------

TEST(ParallelDeterminismTest, IntraStealingMatchesSerialAcrossKnobs) {
  // heavy_threshold=1 routes EVERY enumeration through the StealScheduler,
  // so this sweep exercises the split/steal/merge machinery on each of the
  // workload's graphs rather than only the occasional heavy one.
  const GraphDatabase db = MakeDb(11, 72);
  const std::vector<Graph> queries = MakeQueries(db, 6, 23);

  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  for (const Graph& q : queries) expected.push_back(serial->Query(q));

  for (uint32_t threads : {1u, 2u, 4u}) {
    for (uint32_t steal_chunk : {1u, 3u, 16u}) {
      ParallelVcfvEngine parallel(
          threads, /*chunk_size=*/3,
          StealConfig{.chunk = steal_chunk, .heavy_threshold = 1});
      ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryResult actual =
            parallel.Query(queries[i], Deadline::Infinite());
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " steal_chunk=" << steal_chunk
                     << " query=" << i);
        EXPECT_EQ(actual.answers, expected[i].answers);
        EXPECT_EQ(actual.stats.num_candidates,
                  expected[i].stats.num_candidates);
        EXPECT_EQ(actual.stats.si_tests, expected[i].stats.si_tests);
        EXPECT_FALSE(actual.stats.timed_out);
      }
    }
  }
}

TEST(ParallelDeterminismTest, IntraStealingKernelsAgree) {
  const bool saved_simd = IntersectSimdEnabled();
  const GraphDatabase db = MakeDb(19, 56);
  const GraphDatabase padded = ::sgq::testing::PadPastWordLimit(db);
  const std::vector<Graph> queries = MakeQueries(db, 4, 37);

  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  for (const Graph& q : queries) expected.push_back(serial->Query(q));

  struct Config {
    const GraphDatabase* db;
    bool simd;
    const char* name;
  };
  for (const Config& config : {Config{&db, true, "words"},
                               Config{&padded, true, "lists"},
                               Config{&padded, false, "lists-scalar"}}) {
    SetIntersectSimdEnabled(config.simd);
    ParallelVcfvEngine parallel(
        4, 3, StealConfig{.chunk = 2, .heavy_threshold = 1});
    ASSERT_TRUE(parallel.Prepare(*config.db, Deadline::Infinite()));
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResult actual =
          parallel.Query(queries[i], Deadline::Infinite());
      SCOPED_TRACE(::testing::Message()
                   << "kernel=" << config.name << " query=" << i);
      EXPECT_EQ(actual.answers, expected[i].answers);
      EXPECT_EQ(actual.stats.num_candidates, expected[i].stats.num_candidates);
      EXPECT_EQ(actual.stats.si_tests, expected[i].stats.si_tests);
    }
  }
  SetIntersectSimdEnabled(saved_simd);
}

// Scheduler-level determinism: the merged embedding SEQUENCE (not just the
// count) must be bit-identical to serial BacktrackOverCandidates for every
// (executors, chunk, limit) combination, including limits that force
// truncation mid-merge.
TEST(ParallelDeterminismTest, StealSchedulerEmbeddingSequencesBitIdentical) {
  Rng rng(99);
  std::vector<Label> labels{0, 1, 2};
  GraphDatabase db;
  db.Add(GenerateRandomGraph(300, 8.0, labels, &rng));
  const Graph& data = db.graph(0);
  Graph query;
  while (!GenerateQuery(db, QueryKind::kDense, 6, &rng, &query)) {
  }
  const CflMatcher matcher;
  const auto filtered = matcher.Filter(query, data);
  ASSERT_TRUE(filtered->Passed());
  const std::vector<VertexId> order = JoinBasedOrder(query, filtered->phi);
  ASSERT_GT(filtered->phi.set(order[0]).size(), 1u);

  // Serial reference: full enumeration, flat embedding stream.
  MatchWorkspace serial_ws;
  std::vector<VertexId> serial_all;
  const EnumerateResult serial_full = BacktrackOverCandidates(
      query, data, filtered->phi, order,
      std::numeric_limits<uint64_t>::max(), nullptr,
      [&serial_all](const std::vector<VertexId>& m) {
        serial_all.insert(serial_all.end(), m.begin(), m.end());
        return true;
      },
      &serial_ws);
  ASSERT_GT(serial_full.embeddings, 10u);
  const size_t stride = query.NumVertices();

  for (const uint64_t limit : {uint64_t{1}, uint64_t{7}, serial_full.embeddings}) {
    // Serial truncated reference for this limit.
    const std::vector<VertexId> serial_flat(
        serial_all.begin(), serial_all.begin() + limit * stride);
    for (const uint32_t executors : {2u, 4u}) {
      for (const uint32_t chunk : {1u, 2u, 5u}) {
        SCOPED_TRACE(::testing::Message() << "limit=" << limit << " executors="
                                          << executors << " chunk=" << chunk);
        StealConfig config;
        config.chunk = chunk;
        config.heavy_threshold = 1;
        StealScheduler sched(executors, config);
        // Executor 0 owns the job; the others have no graphs to scan, so
        // they steal until it finishes its scan.
        sched.BeginScan();
        std::vector<std::thread> helpers;
        for (uint32_t t = 1; t < executors; ++t) {
          helpers.emplace_back([&sched, t] {
            MatchWorkspace helper_ws;
            sched.FinishScan(t, &helper_ws);
          });
        }
        std::vector<VertexId> steal_flat;
        MatchWorkspace owner_ws;
        const EnumerateResult stolen = sched.Enumerate(
            0, query, data, filtered->phi, order, limit, Deadline::Infinite(),
            [&steal_flat](const std::vector<VertexId>& m) {
              steal_flat.insert(steal_flat.end(), m.begin(), m.end());
              return true;
            },
            &owner_ws);
        sched.FinishScan(0, &owner_ws);
        for (std::thread& h : helpers) h.join();
        EXPECT_EQ(stolen.embeddings, limit);
        EXPECT_FALSE(stolen.aborted);
        EXPECT_EQ(steal_flat, serial_flat);
      }
    }
  }
}

// The same sequence check on a data graph the word kernel serves, with the
// full search tree (recursion_calls) compared too when no limit truncates.
TEST(ParallelDeterminismTest, StealSchedulerWordKernelMatchesSerial) {
  Rng rng(314);
  std::vector<Label> labels{0, 1};
  GraphDatabase db;
  db.Add(GenerateRandomGraph(40, 8.0, labels, &rng));
  const Graph& data = db.graph(0);
  ASSERT_TRUE(FitsInWord(data));
  Graph query;
  while (!GenerateQuery(db, QueryKind::kDense, 6, &rng, &query)) {
  }
  const CflMatcher matcher;
  const auto filtered = matcher.Filter(query, data);
  ASSERT_TRUE(filtered->Passed());
  const std::vector<VertexId> order = JoinBasedOrder(query, filtered->phi);
  ASSERT_GT(filtered->phi.set(order[0]).size(), 2u);

  MatchWorkspace serial_ws;
  std::vector<VertexId> serial_all;
  const EnumerateResult serial = BacktrackOverCandidates(
      query, data, filtered->phi, order, std::numeric_limits<uint64_t>::max(),
      nullptr,
      [&serial_all](const std::vector<VertexId>& m) {
        serial_all.insert(serial_all.end(), m.begin(), m.end());
        return true;
      },
      &serial_ws);
  ASSERT_GT(serial.embeddings, 10u);
  EXPECT_EQ(serial.intersect_calls, 0u);
  const size_t stride = query.NumVertices();

  for (const uint64_t limit :
       {uint64_t{1}, uint64_t{7}, std::numeric_limits<uint64_t>::max()}) {
    const uint64_t expected = std::min(limit, serial.embeddings);
    const std::vector<VertexId> serial_flat(
        serial_all.begin(), serial_all.begin() + expected * stride);
    for (const uint32_t executors : {2u, 4u}) {
      for (const uint32_t chunk : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message() << "limit=" << limit << " executors="
                                          << executors << " chunk=" << chunk);
        StealConfig config;
        config.chunk = chunk;
        config.heavy_threshold = 1;
        StealScheduler sched(executors, config);
        // Executor 0 owns the job; the others have no graphs to scan, so
        // they steal until it finishes its scan.
        sched.BeginScan();
        std::vector<std::thread> helpers;
        for (uint32_t t = 1; t < executors; ++t) {
          helpers.emplace_back([&sched, t] {
            MatchWorkspace helper_ws;
            sched.FinishScan(t, &helper_ws);
          });
        }
        std::vector<VertexId> steal_flat;
        MatchWorkspace owner_ws;
        const EnumerateResult stolen = sched.Enumerate(
            0, query, data, filtered->phi, order, limit, Deadline::Infinite(),
            [&steal_flat](const std::vector<VertexId>& m) {
              steal_flat.insert(steal_flat.end(), m.begin(), m.end());
              return true;
            },
            &owner_ws);
        sched.FinishScan(0, &owner_ws);
        for (std::thread& h : helpers) h.join();
        EXPECT_EQ(stolen.embeddings, expected);
        EXPECT_FALSE(stolen.aborted);
        EXPECT_EQ(steal_flat, serial_flat);
        if (limit == std::numeric_limits<uint64_t>::max()) {
          EXPECT_EQ(stolen.recursion_calls, serial.recursion_calls);
          EXPECT_EQ(stolen.local_candidates, serial.local_candidates);
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, StealSchedulerPreExpiredDeadlineAborts) {
  Rng rng(7);
  std::vector<Label> labels{0, 1};
  GraphDatabase db;
  db.Add(GenerateRandomGraph(200, 6.0, labels, &rng));
  const Graph& data = db.graph(0);
  Graph query;
  while (!GenerateQuery(db, QueryKind::kSparse, 5, &rng, &query)) {
  }
  const CflMatcher matcher;
  const auto filtered = matcher.Filter(query, data);
  ASSERT_TRUE(filtered->Passed());
  const std::vector<VertexId> order = JoinBasedOrder(query, filtered->phi);

  StealScheduler sched(2, StealConfig{});
  MatchWorkspace ws;
  // Deterministic regardless of thread timing: an already-expired deadline
  // aborts before any task runs, every time.
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t calls = 0;
    const EnumerateResult er = sched.Enumerate(
        0, query, data, filtered->phi, order,
        std::numeric_limits<uint64_t>::max(), Deadline::AfterSeconds(-1.0),
        [&calls](const std::vector<VertexId>&) {
          ++calls;
          return true;
        },
        &ws);
    EXPECT_TRUE(er.aborted);
    EXPECT_EQ(er.embeddings, 0u);
    EXPECT_EQ(calls, 0u);
  }
}

TEST(ParallelDeterminismTest, IntraStealingReportsTaskStats) {
  const GraphDatabase db = MakeDb(3, 40);
  const std::vector<Graph> queries = MakeQueries(db, 3, 17);
  // Every enumeration splits -> tasks guaranteed.
  ParallelVcfvEngine engine(4, 2,
                            StealConfig{.chunk = 1, .heavy_threshold = 1});
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));

  uint64_t spawned = 0;
  for (const Graph& q : queries) {
    const QueryResult r = engine.Query(q, Deadline::Infinite());
    EXPECT_FALSE(r.stats.timed_out);
    spawned += r.stats.tasks_spawned;
    // Counters drain per query — stolen/aborted never exceed spawned.
    EXPECT_LE(r.stats.tasks_stolen + r.stats.tasks_aborted,
              r.stats.tasks_spawned);
  }
  EXPECT_GT(spawned, 0u);
}

}  // namespace
}  // namespace sgq
