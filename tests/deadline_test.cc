// Regression test for the service-queue cancellation contract: Query() on
// an already-expired Deadline must report the OOT outcome immediately, for
// every engine type, without scanning the database. Before the fix, several
// engines processed at least the first graph (and IFV engines could scan
// the whole candidate list, because their DeadlineChecker only polls the
// clock every 1024 ticks).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "gen/graph_gen.h"
#include "graph/graph_utils.h"
#include "matching/cfql.h"
#include "matching/parallel_backtrack.h"
#include "matching/workspace.h"
#include "query/engine_factory.h"
#include "query/match_engine.h"
#include "query/parallel_vcfv_engine.h"
#include "tests/test_util.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace sgq {
namespace {

GraphDatabase SmallDb() {
  SyntheticParams params;
  params.num_graphs = 20;
  params.vertices_per_graph = 16;
  params.degree = 3.0;
  params.num_labels = 4;
  params.seed = 5;
  return GenerateSyntheticDatabase(params);
}

// Every engine the factory can build, paper algorithms and extensions.
std::vector<std::string> EveryEngineName() {
  std::vector<std::string> names = AllEngineNames();
  names.insert(names.end(), {"TurboIso", "Ullmann", "QuickSI", "SPath",
                             "GraphGrep", "MinedPath", "CFQL-parallel",
                             "VF2-scan"});
  return names;
}

TEST(DeadlineTest, ExpiredDeadlineReturnsTimeoutWithoutScanning) {
  const GraphDatabase db = SmallDb();
  // A query that is a subgraph of at least one data graph (itself), so a
  // non-empty answer set would prove the engine scanned despite the
  // expired deadline.
  const Graph query = db.graph(0);
  for (const std::string& name : EveryEngineName()) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    const QueryResult expired =
        engine->Query(query, Deadline::AfterSeconds(-1));
    EXPECT_TRUE(expired.stats.timed_out);
    EXPECT_TRUE(expired.answers.empty());
    EXPECT_EQ(expired.stats.si_tests, 0u);
    EXPECT_EQ(expired.stats.num_candidates, 0u);

    // Sanity: the same engine does answer under an unexpired deadline.
    const QueryResult fine = engine->Query(query, Deadline::Infinite());
    EXPECT_FALSE(fine.stats.timed_out);
    EXPECT_FALSE(fine.answers.empty());
  }
}

TEST(DeadlineTest, AfterSecondsZeroCountsAsExpired) {
  const GraphDatabase db = SmallDb();
  auto engine = MakeEngine("CFQL");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  const QueryResult r = engine->Query(db.graph(0), Deadline::AfterSeconds(0));
  EXPECT_TRUE(r.stats.timed_out);
  EXPECT_TRUE(r.answers.empty());
}

TEST(DeadlineTest, MatchEngineHonorsExpiredDeadline) {
  const GraphDatabase db = SmallDb();
  MatchEngine engine(std::make_unique<CfqlMatcher>());
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));
  const MatchResult r = engine.Match(db.graph(0), MatchOptions{},
                                     Deadline::AfterSeconds(-1));
  EXPECT_TRUE(r.stats.timed_out);
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.stats.si_tests, 0u);
}

// Accepts every streamed answer (selects the engines' streaming scans).
class AcceptAllSink : public ResultSink {
 public:
  bool OnAnswer(GraphId) override { return true; }
};

TEST(DeadlineTest, DeadlineExpiringInsideAScreenedStretchTimesOut) {
  // 50,000 one-vertex graphs whose label the query lacks: the label-count
  // screen rejects every one before Filter(), and the scan reads the clock
  // only once per kScreenedGraphsPerDeadlinePoll of them. A deadline that
  // expires during that stretch must still end the query as timed out.
  // Scanning takes far longer than the 2 us budget, so the expiry lands
  // either at the entry check or mid-scan; both must report timed_out.
  GraphDatabase db;
  const Graph lone = ::sgq::testing::MakePath({7});
  for (int i = 0; i < 50000; ++i) db.Add(lone);
  const Graph query = ::sgq::testing::MakePath({0, 1});

  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (const char* name : {"CFL", "GraphQL", "CFQL", "TurboIso"}) {
    engines.push_back(MakeEngine(name));
  }
  engines.push_back(std::make_unique<ParallelVcfvEngine>(2));
  // Every verification through the steal scheduler.
  engines.push_back(std::make_unique<ParallelVcfvEngine>(
      2, 0, StealConfig{.heavy_threshold = 1}));
  for (const auto& engine : engines) {
    SCOPED_TRACE(engine->name());
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    const QueryResult full = engine->Query(query, Deadline::Infinite());
    EXPECT_FALSE(full.stats.timed_out);
    EXPECT_TRUE(full.answers.empty());
    EXPECT_EQ(full.stats.ws_filter_hits + full.stats.ws_filter_misses, 0u);

    EXPECT_TRUE(
        engine->Query(query, Deadline::AfterSeconds(2e-6)).stats.timed_out);
    AcceptAllSink sink;
    EXPECT_TRUE(engine->Query(query, Deadline::AfterSeconds(2e-6), &sink)
                    .stats.timed_out);
  }

  MatchEngine match(std::make_unique<CfqlMatcher>());
  ASSERT_TRUE(match.Prepare(db, Deadline::Infinite()));
  EXPECT_FALSE(match.Match(query).stats.timed_out);
  EXPECT_TRUE(match.Match(query, MatchOptions{}, Deadline::AfterSeconds(2e-6))
                  .stats.timed_out);
}

// A deadline that passes in the middle of a word-kernel enumeration (a data
// graph of <= 64 vertices) must end it with `aborted`, serially and through
// the stealing scheduler. K64 holds ~10^21 embeddings of a 12-vertex path,
// so the unlimited search is still running when 20 ms are up.
TEST(DeadlineTest, DeadlineExpiringInsideWordKernelEnumerationAborts) {
  GraphBuilder builder;
  for (int v = 0; v < 64; ++v) builder.AddVertex(0);
  for (VertexId a = 0; a < 64; ++a) {
    for (VertexId b = a + 1; b < 64; ++b) builder.AddEdge(a, b);
  }
  const Graph data = builder.Build();
  ASSERT_TRUE(FitsInWord(data));
  GraphBuilder path;
  for (int v = 0; v < 12; ++v) path.AddVertex(0);
  for (VertexId v = 1; v < 12; ++v) path.AddEdge(v - 1, v);
  const Graph query = path.Build();
  CandidateSets phi(query.NumVertices());
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    const auto all = data.VerticesWithLabel(0);
    phi.mutable_set(u).assign(all.begin(), all.end());
  }
  const std::vector<VertexId> order = BuildBfsTree(query, 0).order;

  DeadlineChecker checker(Deadline::AfterSeconds(0.02));
  MatchWorkspace ws;
  const EnumerateResult serial = BacktrackOverCandidates(
      query, data, phi, order, std::numeric_limits<uint64_t>::max(), &checker,
      nullptr, &ws);
  EXPECT_TRUE(serial.aborted);
  EXPECT_GT(serial.embeddings, 0u);

  StealConfig config;
  config.chunk = 4;
  StealScheduler sched(2, config);
  sched.BeginScan();
  std::thread helper([&sched] {
    MatchWorkspace helper_ws;
    sched.FinishScan(1, &helper_ws);
  });
  const EnumerateResult stolen = sched.Enumerate(
      0, query, data, phi, order, std::numeric_limits<uint64_t>::max(),
      Deadline::AfterSeconds(0.02), nullptr, &ws);
  sched.FinishScan(0, &ws);
  helper.join();
  EXPECT_TRUE(stolen.aborted);
}

// The same through the parallel engine, whose scheduler splits the search:
// an odd cycle in K20,20 has no embedding, and the exhaustive search for a
// 9-cycle would take hours, so the query must end timed out shortly after
// its 50 ms budget.
TEST(DeadlineTest, DeadlineExpiringInsideASplitEnumerationTimesOut) {
  GraphDatabase db;
  db.Add(::sgq::testing::MakeCompleteBipartite(20, 20, 0));
  const Graph query =
      ::sgq::testing::MakeCycle({0, 0, 0, 0, 0, 0, 0, 0, 0});
  ParallelVcfvEngine engine(2, 0, StealConfig{.heavy_threshold = 1});
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));
  AcceptAllSink sink;
  for (ResultSink* s : {static_cast<ResultSink*>(nullptr),
                        static_cast<ResultSink*>(&sink)}) {
    const WallTimer timer;
    const QueryResult r = engine.Query(query, Deadline::AfterSeconds(0.05), s);
    EXPECT_TRUE(r.stats.timed_out);
    EXPECT_TRUE(r.answers.empty());
    EXPECT_GT(r.stats.tasks_spawned, 0u);
    EXPECT_LT(timer.ElapsedSeconds(), 5.0);
  }
}

TEST(DeadlineTest, ExpiredPrepareStillFailsForIndexEngines) {
  const GraphDatabase db = SmallDb();
  for (const char* name : {"Grapes", "GGSX", "CT-Index"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    EXPECT_FALSE(engine->Prepare(db, Deadline::AfterSeconds(-1)));
  }
}

}  // namespace
}  // namespace sgq
