// Engine-level tests: all eight competing algorithms (plus the naive
// VF2-scan baseline) must return identical answer sets on randomized
// databases, and their stats must satisfy the paper's structural invariants
// (|A| <= |C| <= |D|, vcFV has zero index memory, timeouts reported).
#include "query/engine_factory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "gen/dataset_profiles.h"
#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "graph/graph_utils.h"
#include "index/ggsx_index.h"
#include "index/grapes_index.h"
#include "matching/brute_force.h"
#include "matching/cfql.h"
#include "matching/matcher.h"
#include "matching/workspace.h"
#include "query/match_engine.h"
#include "query/parallel_vcfv_engine.h"
#include "query/stats.h"
#include "tests/test_util.h"
#include "util/intersect.h"
#include "util/rng.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCycle;
using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;

GraphDatabase TinyDatabase() {
  GraphDatabase db;
  db.Add(MakePath({0, 1, 2}));
  db.Add(MakeCycle({0, 1, 2}));
  db.Add(MakeGraph({0, 1, 2, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  db.Add(MakePath({2, 1, 0, 1}));
  return db;
}

class EngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<QueryEngine> engine_ = MakeEngine(GetParam());
};

TEST_P(EngineTest, AnswersMatchBruteForceOnTinyDatabase) {
  const GraphDatabase db = TinyDatabase();
  ASSERT_TRUE(engine_->Prepare(db, Deadline::Infinite()));
  for (const Graph& q : {MakePath({0, 1}), MakePath({1, 2}),
                         MakeCycle({0, 1, 2}), MakePath({0, 1, 2})}) {
    std::vector<GraphId> expected;
    for (GraphId g = 0; g < db.size(); ++g) {
      if (BruteForceContains(q, db.graph(g))) expected.push_back(g);
    }
    const QueryResult result = engine_->Query(q);
    EXPECT_EQ(result.answers, expected) << GetParam();
    EXPECT_FALSE(result.stats.timed_out);
    EXPECT_EQ(result.stats.num_answers, expected.size());
    EXPECT_GE(result.stats.num_candidates, expected.size());
    EXPECT_LE(result.stats.num_candidates, db.size());
  }
}

TEST_P(EngineTest, NoAnswersForForeignLabels) {
  const GraphDatabase db = TinyDatabase();
  ASSERT_TRUE(engine_->Prepare(db, Deadline::Infinite()));
  const QueryResult result = engine_->Query(MakePath({17, 18}));
  EXPECT_TRUE(result.answers.empty());
}

TEST_P(EngineTest, StatsAreInternallyConsistent) {
  const GraphDatabase db = TinyDatabase();
  ASSERT_TRUE(engine_->Prepare(db, Deadline::Infinite()));
  const QueryResult r = engine_->Query(MakePath({0, 1}));
  EXPECT_GE(r.stats.filtering_ms, 0.0);
  EXPECT_GE(r.stats.verification_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.stats.QueryMs(),
                   r.stats.filtering_ms + r.stats.verification_ms);
  EXPECT_LE(r.stats.si_tests, r.stats.num_candidates);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineTest,
    ::testing::Values("CT-Index", "Grapes", "GGSX", "GraphGrep", "CFL",
                      "GraphQL", "CFQL", "vcGrapes", "vcGGSX", "VF2-scan"),
    [](const auto& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(EngineAgreementTest, AllEnginesAgreeOnRandomizedDatabases) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    SyntheticParams params;
    params.num_graphs = 30;
    params.vertices_per_graph = 25;
    params.degree = 3.5;
    params.num_labels = 5;
    params.seed = seed;
    const GraphDatabase db = GenerateSyntheticDatabase(params);

    std::vector<std::unique_ptr<QueryEngine>> engines;
    std::vector<std::string> names = AllEngineNames();
    names.insert(names.end(),
                 {"TurboIso", "Ullmann", "QuickSI", "SPath", "GraphGrep",
                  "MinedPath"});
    for (const std::string& name : names) {
      engines.push_back(MakeEngine(name));
      ASSERT_TRUE(engines.back()->Prepare(db, Deadline::Infinite()));
    }
    auto baseline = MakeEngine("VF2-scan");
    ASSERT_TRUE(baseline->Prepare(db, Deadline::Infinite()));

    Rng rng(seed);
    for (int trial = 0; trial < 6; ++trial) {
      Graph q;
      const QueryKind kind =
          trial % 2 == 0 ? QueryKind::kSparse : QueryKind::kDense;
      if (!GenerateQuery(db, kind, 4 + 2 * (trial % 3), &rng, &q)) continue;
      const QueryResult expected = baseline->Query(q);
      ASSERT_FALSE(expected.stats.timed_out);
      for (const auto& engine : engines) {
        const QueryResult r = engine->Query(q);
        EXPECT_EQ(r.answers, expected.answers)
            << engine->name() << " disagrees, seed " << seed << " trial "
            << trial;
        // Filtering soundness: C(q) can only shrink verification work, so
        // candidate counts are bounded by |D| and bounded below by |A|.
        EXPECT_GE(r.stats.num_candidates, r.answers.size());
      }
    }
  }
}

// RAII guard: restores the process-wide SIMD flag so a failing assertion
// cannot leak a non-default configuration into later tests.
struct SimdGuard {
  const bool saved_simd = IntersectSimdEnabled();
  ~SimdGuard() { SetIntersectSimdEnabled(saved_simd); }
};

TEST(KernelDeterminismTest, EnginesAgreeAcrossKernelsAndSimd) {
  // The word kernel (graphs of <= 64 vertices) and the list kernel (the
  // same graphs padded with 65 isolated vertices, with and without the SIMD
  // intersections) must be observationally identical through unmodified
  // engines: same answers, same candidate counts, same SI-test counts.
  SimdGuard guard;
  SyntheticParams params;
  params.num_graphs = 40;
  params.vertices_per_graph = 30;
  params.degree = 4.0;
  params.num_labels = 4;
  params.seed = 77;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  const GraphDatabase padded = ::sgq::testing::PadPastWordLimit(db);
  ASSERT_FALSE(FitsInWord(padded.graph(0)));
  std::vector<Graph> queries;
  Rng rng(55);
  while (queries.size() < 5) {
    Graph q;
    if (GenerateQuery(db, queries.size() % 2 == 0 ? QueryKind::kSparse
                                                  : QueryKind::kDense,
                      6, &rng, &q)) {
      queries.push_back(std::move(q));
    }
  }

  for (const std::string& engine_name :
       {std::string("GraphQL"), std::string("CFQL")}) {
    auto words = MakeEngine(engine_name);
    ASSERT_TRUE(words->Prepare(db, Deadline::Infinite()));
    std::vector<QueryResult> expected;
    for (const Graph& q : queries) {
      expected.push_back(words->Query(q));
      EXPECT_EQ(expected.back().stats.intersect_calls, 0u) << engine_name;
    }
    for (const bool simd : {true, false}) {
      SetIntersectSimdEnabled(simd);
      auto lists = MakeEngine(engine_name);
      ASSERT_TRUE(lists->Prepare(padded, Deadline::Infinite()));
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryResult r = lists->Query(queries[i]);
        SCOPED_TRACE(::testing::Message() << engine_name << " simd=" << simd
                                          << " query=" << i);
        EXPECT_EQ(r.answers, expected[i].answers);
        EXPECT_EQ(r.stats.num_candidates, expected[i].stats.num_candidates);
        EXPECT_EQ(r.stats.si_tests, expected[i].stats.si_tests);
      }
    }
  }
}

TEST(KernelDeterminismTest, EmbeddingsAndFirstMappingBitIdentical) {
  // Stronger than answer-set equality: full embedding sequences, the first
  // embedding's mapping, and the visited search-tree size must match
  // between the word kernel and the list kernel (SIMD on and off).
  SimdGuard guard;
  Rng rng(121);
  std::vector<Label> labels = {0, 1, 2};
  int compared = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Graph q = GenerateRandomGraph(5, 2.0, labels, &rng);
    if (!IsConnected(q)) continue;
    const Graph g = GenerateRandomGraph(60, 5.0, labels, &rng);
    const Graph padded = ::sgq::testing::PadWithIsolatedVertices(g, 65);
    CandidateSets phi(q.NumVertices());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.label(v) == q.label(u)) phi.mutable_set(u).push_back(v);
      }
    }
    if (!phi.AllNonEmpty()) continue;
    const std::vector<VertexId> order = JoinBasedOrder(q, phi);

    struct Run {
      EnumerateResult result;
      std::vector<VertexId> first_mapping;
      std::vector<std::vector<VertexId>> all;
    };
    auto run_on = [&](const Graph& data, bool simd) {
      SetIntersectSimdEnabled(simd);
      Run run;
      MatchWorkspace ws;
      run.result = BacktrackOverCandidates(
          q, data, phi, order, UINT64_MAX, nullptr,
          [&](const std::vector<VertexId>& m) {
            if (run.all.empty()) run.first_mapping = m;
            run.all.push_back(m);
            return true;
          },
          &ws);
      return run;
    };

    const Run words = run_on(g, true);
    EXPECT_EQ(words.result.intersect_calls, 0u);
    for (const bool simd : {true, false}) {
      const Run lists = run_on(padded, simd);
      SCOPED_TRACE(::testing::Message() << "trial=" << trial
                                        << " simd=" << simd);
      EXPECT_EQ(lists.result.embeddings, words.result.embeddings);
      EXPECT_EQ(lists.result.recursion_calls, words.result.recursion_calls);
      EXPECT_EQ(lists.first_mapping, words.first_mapping);
      EXPECT_EQ(lists.all, words.all);  // same embeddings in the same order
      // Dense-enough queries have backward neighbors beyond the tree edge,
      // so the list side must have exercised the intersection kernels.
      if (q.NumEdges() >= q.NumVertices()) {
        EXPECT_GT(lists.result.intersect_calls, 0u);
      }
    }
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(EngineTimeoutTest, QueryTimesOutAndReportsIt) {
  // Dense unlabeled database: verification explodes for VF2-based engines.
  SyntheticParams params;
  params.num_graphs = 4;
  params.vertices_per_graph = 120;
  params.degree = 12.0;
  params.num_labels = 1;
  params.seed = 9;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  auto engine = MakeEngine("VF2-scan");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  Rng rng(1);
  Graph q;
  ASSERT_TRUE(GenerateQuery(db, QueryKind::kDense, 24, &rng, &q));
  const QueryResult r = engine->Query(q, Deadline::AfterSeconds(0.02));
  // Either it finished (fast machine / lucky query) or it reported timeout.
  if (r.stats.timed_out) {
    EXPECT_LE(r.answers.size(), db.size());
  }
}

TEST(EngineOotTest, IndexBuildOotPropagates) {
  SyntheticParams params;
  params.num_graphs = 20;
  params.vertices_per_graph = 80;
  params.degree = 24.0;
  params.num_labels = 1;
  params.seed = 10;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  for (const std::string& name :
       {std::string("Grapes"), std::string("GGSX"), std::string("CT-Index"),
        std::string("vcGrapes"), std::string("vcGGSX")}) {
    auto engine = MakeEngine(name);
    EXPECT_FALSE(engine->Prepare(db, Deadline::AfterSeconds(1e-4)))
        << name << " should report OOT";
  }
}

TEST(EngineMemoryTest, VcfvHasNoIndexMemory) {
  const GraphDatabase db = TinyDatabase();
  for (const std::string& name :
       {std::string("CFL"), std::string("GraphQL"), std::string("CFQL")}) {
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    EXPECT_EQ(engine->IndexMemoryBytes(), 0u) << name;
    const QueryResult r = engine->Query(MakePath({0, 1}));
    EXPECT_GT(r.stats.aux_memory_bytes, 0u) << name;
  }
  for (const std::string& name :
       {std::string("Grapes"), std::string("GGSX"), std::string("CT-Index")}) {
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    EXPECT_GT(engine->IndexMemoryBytes(), 0u) << name;
  }
}

TEST(EngineUpdateTest, VcfvAnswersStayCorrectAfterDatabaseChanges) {
  // The index-free selling point: updating D needs no rebuild for vcFV.
  GraphDatabase db = TinyDatabase();
  auto engine = MakeEngine("CFQL");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  const Graph q = MakePath({0, 1});

  const size_t before = engine->Query(q).answers.size();
  db.Add(MakePath({0, 1}));  // one more matching graph
  const size_t after = engine->Query(q).answers.size();
  EXPECT_EQ(after, before + 1);

  db.Remove(static_cast<GraphId>(db.size() - 1));
  EXPECT_EQ(engine->Query(q).answers.size(), before);
}

// ---- the label-count screen ahead of the vcFV/IvcFV filter ---------------

// Reference for Graph::MayContain: per-label counts through a map.
bool NaiveMayContain(const Graph& query, const Graph& data) {
  if (query.NumEdges() > data.NumEdges()) return false;
  std::map<Label, uint32_t> need;
  for (VertexId u = 0; u < query.NumVertices(); ++u) ++need[query.label(u)];
  for (const auto& [label, count] : need) {
    if (data.NumVerticesWithLabel(label) < count) return false;
  }
  return true;
}

struct ScreenDatabase {
  std::string name;
  GraphDatabase db;
  uint32_t num_labels;  // |Σ|, the relabeling universe
};

// One label (the screen can only reject on edge counts), four, and 61
// (most pairs fail a label count), plus the AIDS stand-in.
std::vector<ScreenDatabase> ScreenDatabases() {
  std::vector<ScreenDatabase> dbs;
  for (uint32_t labels : {1u, 4u, 61u}) {
    SyntheticParams params;
    params.num_graphs = 30;
    params.vertices_per_graph = 16;
    params.degree = 3.0;
    params.num_labels = labels;
    params.labels_per_graph = labels == 61 ? 6 : 0;
    params.seed = 500 + labels;
    dbs.push_back({"synthetic-" + std::to_string(labels),
                   GenerateSyntheticDatabase(params), labels});
  }
  const DatasetProfile& aids = ProfileByName("AIDS");
  dbs.push_back({"AIDS", GenerateStandIn(aids, 0.001, 1.0, 17),
                 aids.num_labels});
  return dbs;
}

// A copy of `graph` with each vertex relabeled, with probability 1/3, to a
// label drawn uniformly from [0, num_labels).
Graph RandomlyRelabeled(const Graph& graph, uint32_t num_labels, Rng* rng) {
  GraphBuilder builder;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    builder.AddVertex(rng->NextBounded(3) == 0
                          ? static_cast<Label>(rng->NextBounded(num_labels))
                          : graph.label(u));
  }
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

// Generated sparse and dense queries of 2-6 edges, each followed by a
// randomly relabeled copy.
std::vector<Graph> ScreenQueries(const ScreenDatabase& sdb, uint64_t seed) {
  std::vector<Graph> queries;
  Rng rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    Graph q;
    const QueryKind kind =
        trial % 2 == 0 ? QueryKind::kSparse : QueryKind::kDense;
    if (!GenerateQuery(sdb.db, kind, 2 + trial % 5, &rng, &q)) continue;
    queries.push_back(RandomlyRelabeled(q, sdb.num_labels, &rng));
    queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<GraphId> OracleAnswers(const Graph& query,
                                   const GraphDatabase& db) {
  std::vector<GraphId> answers;
  for (GraphId g = 0; g < db.size(); ++g) {
    if (BruteForceContains(query, db.graph(g))) answers.push_back(g);
  }
  return answers;
}

TEST(ScreenTest, AdmitsEveryGraphTheOracleEmbedsInto) {
  for (const ScreenDatabase& sdb : ScreenDatabases()) {
    uint64_t admitted = 0, rejected = 0;
    for (const Graph& q : ScreenQueries(sdb, 71)) {
      for (GraphId g = 0; g < sdb.db.size(); ++g) {
        const Graph& data = sdb.db.graph(g);
        SCOPED_TRACE(::testing::Message() << sdb.name << " graph " << g);
        const bool screen = data.MayContain(q);
        EXPECT_EQ(screen, NaiveMayContain(q, data));
        if (BruteForceContains(q, data)) {
          EXPECT_TRUE(screen);
        }
        ++(screen ? admitted : rejected);
      }
    }
    SCOPED_TRACE(sdb.name);
    EXPECT_GT(admitted, 0u);
    // With one label only |E(q)| > |E(G)| could reject, and these small
    // queries never have more edges than a data graph.
    if (sdb.num_labels > 1) {
      EXPECT_GT(rejected, 0u);
    }
  }
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

TEST(ScreenedScanTest, EveryScanEngineEqualsOracleInBatchStreamAndLimit) {
  struct Spec {
    std::string label;
    std::function<std::unique_ptr<QueryEngine>()> make;
  };
  std::vector<Spec> specs;
  for (const char* name : {"CFL", "GraphQL", "CFQL", "vcGrapes", "vcGGSX"}) {
    specs.push_back({name, [name] { return MakeEngine(name); }});
  }
  for (uint32_t threads : {1u, 2u, 4u}) {
    specs.push_back({"CFQL-parallel/" + std::to_string(threads), [threads] {
                       return std::make_unique<ParallelVcfvEngine>(threads, 3);
                     }});
  }
  // Every verification through the steal scheduler.
  specs.push_back({"CFQL-parallel/split", [] {
                     return std::make_unique<ParallelVcfvEngine>(
                         4, 3, StealConfig{.heavy_threshold = 1});
                   }});

  for (const ScreenDatabase& sdb : ScreenDatabases()) {
    if (sdb.name == "AIDS") continue;  // the property test covers it
    const std::vector<Graph> queries = ScreenQueries(sdb, 83);
    // The IvcFV engines' indexes, built the same way (default options), so
    // their screened-in candidates can be counted exactly.
    GrapesIndex grapes;
    GgsxIndex ggsx;
    ASSERT_TRUE(grapes.Build(sdb.db, Deadline::Infinite()));
    ASSERT_TRUE(ggsx.Build(sdb.db, Deadline::Infinite()));
    auto admitted_among = [&](const Graph& q, std::vector<GraphId> ids) {
      return static_cast<uint64_t>(
          std::count_if(ids.begin(), ids.end(), [&](GraphId g) {
            return sdb.db.graph(g).MayContain(q);
          }));
    };
    std::vector<GraphId> all_ids(sdb.db.size());
    std::iota(all_ids.begin(), all_ids.end(), 0);

    std::vector<std::vector<GraphId>> oracle;
    // Per query: graphs the screen admits among all graphs and among each
    // index's candidates — exactly the graphs each engine runs Filter() on.
    std::vector<std::map<std::string, uint64_t>> filter_calls;
    size_t multi_answer_queries = 0;
    for (const Graph& q : queries) {
      oracle.push_back(OracleAnswers(q, sdb.db));
      multi_answer_queries += oracle.back().size() >= 2 ? 1 : 0;
      filter_calls.push_back(
          {{"scan", admitted_among(q, all_ids)},
           {"vcGrapes", admitted_among(q, grapes.FilterCandidates(q))},
           {"vcGGSX", admitted_among(q, ggsx.FilterCandidates(q))}});
    }
    // LIMIT 1 and 2 must actually cut some answer lists short.
    EXPECT_GT(multi_answer_queries, 0u) << sdb.name;
    for (const Spec& spec : specs) {
      auto engine = spec.make();
      ASSERT_TRUE(engine->Prepare(sdb.db, Deadline::Infinite()));
      const std::string name = engine->name();
      const std::string scan =
          name == "vcGrapes" || name == "vcGGSX" ? name : "scan";
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << sdb.name << " " << spec.label
                                          << " query " << i);
        const QueryResult batch = engine->Query(queries[i]);
        EXPECT_EQ(batch.answers, oracle[i]);
        EXPECT_FALSE(batch.stats.timed_out);
        EXPECT_GE(batch.stats.num_candidates, oracle[i].size());
        EXPECT_LE(batch.stats.num_candidates, filter_calls[i].at(scan));
        EXPECT_EQ(batch.stats.ws_filter_hits + batch.stats.ws_filter_misses,
                  filter_calls[i].at(scan));

        LimitSink all(SIZE_MAX);
        const QueryResult streamed =
            engine->Query(queries[i], Deadline::Infinite(), &all);
        EXPECT_EQ(streamed.answers, oracle[i]);
        EXPECT_EQ(all.seen, oracle[i]);
        EXPECT_EQ(streamed.stats.num_candidates, batch.stats.num_candidates);
        EXPECT_EQ(streamed.stats.si_tests, batch.stats.si_tests);

        for (size_t limit : {size_t{1}, size_t{2}}) {
          const std::vector<GraphId> prefix(
              oracle[i].begin(),
              oracle[i].begin() + std::min(limit, oracle[i].size()));
          LimitSink sink(limit);
          const QueryResult limited =
              engine->Query(queries[i], Deadline::Infinite(), &sink);
          EXPECT_EQ(limited.answers, prefix) << "limit " << limit;
          EXPECT_EQ(sink.seen, prefix) << "limit " << limit;
        }
      }
    }

    // MatchEngine: the pure CFQL sweep finds exactly the oracle's graphs.
    MatchEngine match(std::make_unique<CfqlMatcher>());
    ASSERT_TRUE(match.Prepare(sdb.db, Deadline::Infinite()));
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << sdb.name << " MatchEngine query "
                                        << i);
      for (uint64_t per_graph_limit : {uint64_t{1}, UINT64_MAX}) {
        const MatchResult r = match.Match(queries[i], {per_graph_limit});
        std::vector<GraphId> graphs;
        for (const GraphMatches& m : r.matches) graphs.push_back(m.graph);
        EXPECT_EQ(graphs, oracle[i]);
        EXPECT_EQ(r.stats.ws_filter_hits + r.stats.ws_filter_misses,
                  filter_calls[i].at("scan"));
      }
    }
  }
}

TEST(ScreenedScanTest, IndexCandidatesAreScreenedToo) {
  // The 6-cycle 0-1-2-3-4-5 holds every path of up to 4 edges that the
  // 7-vertex path 0-1-2-3-4-5-0 holds, so GGSX (path presence) keeps it as
  // a candidate (Grapes' occurrence counts already drop it), and CFL's
  // filter maps both label-0 ends onto its single label-0 vertex. Only the
  // label count rules it out.
  GraphDatabase db;
  db.Add(MakeCycle({0, 1, 2, 3, 4, 5}));
  db.Add(MakePath({0, 1, 2, 3, 4, 5, 0, 1}));
  const Graph q = MakePath({0, 1, 2, 3, 4, 5, 0});
  ASSERT_FALSE(db.graph(0).MayContain(q));
  GrapesIndex grapes;
  GgsxIndex ggsx;
  ASSERT_TRUE(grapes.Build(db, Deadline::Infinite()));
  ASSERT_TRUE(ggsx.Build(db, Deadline::Infinite()));
  EXPECT_EQ(grapes.FilterCandidates(q), (std::vector<GraphId>{1}));
  EXPECT_EQ(ggsx.FilterCandidates(q), (std::vector<GraphId>{0, 1}));
  EXPECT_TRUE(CflMatcher().Filter(q, db.graph(0))->Passed());
  for (const char* name : {"CFL", "CFQL", "vcGrapes", "vcGGSX"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    const QueryResult r = engine->Query(q);
    EXPECT_EQ(r.answers, std::vector<GraphId>{1});
    EXPECT_EQ(r.stats.num_candidates, 1u);
    EXPECT_EQ(r.stats.ws_filter_hits + r.stats.ws_filter_misses, 1u);
  }
}

TEST(SummarizeTest, AggregatesPerPaperFormulas) {
  std::vector<QueryResult> results(2);
  results[0].stats.filtering_ms = 2;
  results[0].stats.verification_ms = 8;
  results[0].stats.num_candidates = 4;
  results[0].stats.num_answers = 2;
  results[1].stats.filtering_ms = 4;
  results[1].stats.verification_ms = 0;
  results[1].stats.num_candidates = 0;  // precision contribution: 1.0
  results[1].stats.num_answers = 0;
  results[1].stats.timed_out = true;

  const QuerySetSummary s = Summarize(results, /*timeout_ms=*/100);
  EXPECT_EQ(s.num_queries, 2u);
  EXPECT_EQ(s.num_timeouts, 1u);
  EXPECT_DOUBLE_EQ(s.avg_filtering_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_verification_ms, 4.0);
  // Query time: (2+8) for the first, 100 (the limit) for the timed-out one.
  EXPECT_DOUBLE_EQ(s.avg_query_ms, 55.0);
  EXPECT_DOUBLE_EQ(s.filtering_precision, (0.5 + 1.0) / 2);
  EXPECT_DOUBLE_EQ(s.avg_candidates, 2.0);
  EXPECT_DOUBLE_EQ(s.per_si_test_ms, 1.0);  // (8/4 + 0)/2
}

}  // namespace
}  // namespace sgq
