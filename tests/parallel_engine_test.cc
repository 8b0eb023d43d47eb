#include "query/parallel_vcfv_engine.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <vector>

#include "gen/dataset_profiles.h"
#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "query/engine_factory.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCompleteBipartite;
using ::sgq::testing::MakeCycle;

GraphDatabase MakeDb(uint64_t seed, uint32_t graphs) {
  SyntheticParams params;
  params.num_graphs = graphs;
  params.vertices_per_graph = 25;
  params.degree = 3.5;
  params.num_labels = 5;
  params.seed = seed;
  return GenerateSyntheticDatabase(params);
}

TEST(ParallelVcfvTest, AgreesWithSerialCfql) {
  const GraphDatabase db = MakeDb(1, 60);
  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParallelVcfvEngine parallel(threads);
    ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
    Rng rng(7);
    for (int trial = 0; trial < 8; ++trial) {
      Graph q;
      if (!GenerateQuery(db, QueryKind::kSparse, 6, &rng, &q)) continue;
      const QueryResult expected = serial->Query(q);
      const QueryResult actual = parallel.Query(q, Deadline::Infinite());
      EXPECT_EQ(actual.answers, expected.answers)
          << threads << " threads, trial " << trial;
      EXPECT_EQ(actual.stats.num_candidates, expected.stats.num_candidates);
      EXPECT_FALSE(actual.stats.timed_out);
    }
  }
}

TEST(ParallelVcfvTest, AnswersSortedAndStatsConsistent) {
  const GraphDatabase db = MakeDb(2, 40);
  auto engine = MakeEngine("CFQL-parallel");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  Rng rng(9);
  Graph q;
  ASSERT_TRUE(GenerateQuery(db, QueryKind::kDense, 6, &rng, &q));
  const QueryResult r = engine->Query(q);
  EXPECT_TRUE(std::is_sorted(r.answers.begin(), r.answers.end()));
  EXPECT_EQ(r.stats.num_answers, r.answers.size());
  EXPECT_LE(r.stats.num_answers, r.stats.num_candidates);
  EXPECT_GE(r.stats.filtering_ms, 0.0);
  EXPECT_GE(r.stats.verification_ms, 0.0);
  EXPECT_EQ(engine->IndexMemoryBytes(), 0u);
}

TEST(ParallelVcfvTest, DefaultsToHardwareConcurrency) {
  ParallelVcfvEngine engine;
  EXPECT_GE(engine.num_threads(), 1u);
}

// Records the streamed ids and stops the scan after `limit` of them.
class LimitSink : public ResultSink {
 public:
  explicit LimitSink(size_t limit) : limit_(limit) {}
  bool OnAnswer(GraphId id) override {
    seen.push_back(id);
    return seen.size() < limit_;
  }
  std::vector<GraphId> seen;

 private:
  size_t limit_;
};

// The engine the factory builds splits a graph whose first-level candidate
// set reaches the automatic threshold (32) across its executors, with the
// default settings, and still reports exactly what serial CFQL reports.
TEST(ParallelVcfvTest, FactoryEngineSplitsAHeavyGraphLikeSerialCfql) {
  // K20,20 (40 first-level candidates, one label) between small graphs of
  // other labels. The 5-cycle has no embedding in it, so its search is
  // exhaustive; the 4-cycle and K2,3 have embeddings.
  GraphDatabase db = MakeDb(3, 20);
  db.Add(MakeCompleteBipartite(20, 20, 7));
  for (GraphId g = 0; g < 20; ++g) db.Add(db.graph(g));
  db.Add(MakeCompleteBipartite(20, 20, 7));
  const std::vector<Graph> queries = {MakeCycle({7, 7, 7, 7, 7}),
                                      MakeCycle({7, 7, 7, 7}),
                                      MakeCompleteBipartite(2, 3, 7)};

  auto serial = MakeEngine("CFQL");
  auto parallel = MakeEngine("CFQL-parallel");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  ASSERT_TRUE(parallel->Prepare(db, Deadline::Infinite()));
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "query " << i);
    const QueryResult expected = serial->Query(queries[i]);
    EXPECT_EQ(expected.stats.num_candidates, 2u);

    const QueryResult batch = parallel->Query(queries[i]);
    LimitSink all(SIZE_MAX);
    const QueryResult streamed =
        parallel->Query(queries[i], Deadline::Infinite(), &all);
    LimitSink first(1);
    const QueryResult limited =
        parallel->Query(queries[i], Deadline::Infinite(), &first);
    for (const QueryResult* actual : {&batch, &streamed}) {
      EXPECT_GT(actual->stats.tasks_spawned, 0u);
      EXPECT_EQ(actual->answers, expected.answers);
      EXPECT_EQ(actual->stats.num_candidates, expected.stats.num_candidates);
      EXPECT_EQ(actual->stats.si_tests, expected.stats.si_tests);
      EXPECT_FALSE(actual->stats.timed_out);
    }
    EXPECT_EQ(all.seen, expected.answers);
    EXPECT_GT(limited.stats.tasks_spawned, 0u);
    const std::vector<GraphId> prefix(
        expected.answers.begin(),
        expected.answers.begin() +
            std::min<size_t>(1, expected.answers.size()));
    EXPECT_EQ(limited.answers, prefix);
    EXPECT_EQ(first.seen, prefix);
  }
}

// The skewed database: 2,000 AIDS stand-in graphs with a one-label K12,12
// inserted as graph 1000. A label-90 7-cycle passes the label screen only on
// K12,12, where it has 24 first-level candidates (below the split
// threshold) and no embedding, so one executor searches exhaustively while
// every other one runs out of graphs at once.
GraphDatabase SkewedDb() {
  const GraphDatabase standin =
      GenerateStandIn(ProfileByName("AIDS"), 0.05, 1.0, 1);
  GraphDatabase db;
  for (GraphId g = 0; g < standin.size(); ++g) {
    if (g == 1000) db.Add(MakeCompleteBipartite(12, 12, 90));
    db.Add(standin.graph(g));
  }
  return db;
}

Graph SkewedQuery() { return MakeCycle({90, 90, 90, 90, 90, 90, 90}); }

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Executors that have nothing left to scan or steal block instead of
// spinning until the heavy graph's executor is done.
TEST(ParallelVcfvTest, IdleExecutorsBurnNoCpuWhileOneGraphIsSearched) {
  const GraphDatabase db = SkewedDb();
  const Graph query = SkewedQuery();
  ParallelVcfvEngine engine(4);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));
  const double cpu_before = ProcessCpuSeconds();
  const WallTimer wall;
  for (int i = 0; i < 10; ++i) {
    const QueryResult r = engine.Query(query, Deadline::Infinite());
    ASSERT_TRUE(r.answers.empty());
    ASSERT_EQ(r.stats.si_tests, 1u);
  }
  const double wall_s = wall.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  EXPECT_LE(cpu_s, 1.5 * wall_s) << "cpu " << cpu_s << " s, wall " << wall_s
                                 << " s";
}

// QueryMs() is the query's wall time, not the summed executor time divided
// by the executor count (which reads a fifth of it here: one executor is
// busy, four are idle).
TEST(ParallelVcfvTest, QueryMsIsWallTime) {
  const GraphDatabase db = SkewedDb();
  const Graph query = SkewedQuery();
  ParallelVcfvEngine engine(4);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));
  for (int i = 0; i < 3; ++i) {
    const WallTimer wall;
    const QueryResult r = engine.Query(query, Deadline::Infinite());
    const double wall_ms = wall.ElapsedMillis();
    EXPECT_GE(r.stats.QueryMs(), 0.8 * wall_ms);
    EXPECT_LE(r.stats.QueryMs(), wall_ms);
    // The exhaustive search dominates the query.
    EXPECT_GT(r.stats.verification_ms, r.stats.filtering_ms);
  }
}

}  // namespace
}  // namespace sgq
