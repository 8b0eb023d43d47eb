// Cross-validation of all preprocessing-enumeration matchers (GraphQL, CFL,
// CFQL) against the brute-force oracle, plus the completeness property of
// Definition III.1 for every filter.
#include "matching/matcher.h"

#include <gtest/gtest.h>

#include <memory>

#include "gen/graph_gen.h"
#include "graph/graph_utils.h"
#include "matching/brute_force.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/direct_enumeration.h"
#include "matching/graphql.h"
#include "matching/spath.h"
#include "matching/turboiso.h"
#include "matching/workspace.h"
#include "tests/test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCycle;
using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;
using ::sgq::testing::PadWithIsolatedVertices;
using ::sgq::testing::Sorted;

// A one-label circulant graph over n vertices: the edges (v, v+s mod n) for
// each stride s. Strides {1, 2} put every vertex, the last ones included,
// on triangles and 4-cycles; sizes 63/64/65 straddle the word kernel's
// 64-vertex limit.
Graph Circulant(uint32_t n, std::initializer_list<uint32_t> strides) {
  GraphBuilder builder;
  for (uint32_t v = 0; v < n; ++v) builder.AddVertex(0);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t s : strides) builder.AddEdge(v, (v + s) % n);
  }
  return builder.Build();
}

// A one-label path over n vertices.
Graph UnlabeledPath(uint32_t n) {
  GraphBuilder builder;
  for (uint32_t v = 0; v < n; ++v) builder.AddVertex(0);
  for (uint32_t v = 1; v < n; ++v) builder.AddEdge(v - 1, v);
  return builder.Build();
}

std::unique_ptr<Matcher> MakeMatcher(const std::string& name) {
  if (name == "GraphQL") return std::make_unique<GraphQlMatcher>();
  if (name == "CFL") return std::make_unique<CflMatcher>();
  if (name == "CFQL") return std::make_unique<CfqlMatcher>();
  if (name == "TurboIso") return std::make_unique<TurboIsoMatcher>();
  if (name == "Ullmann") return std::make_unique<UllmannMatcher>();
  if (name == "QuickSI") return std::make_unique<QuickSiMatcher>();
  if (name == "SPath") return std::make_unique<SPathMatcher>();
  // Option variants: every ablation knob must stay correct, not just the
  // defaults.
  if (name == "GraphQL_r0") {
    return std::make_unique<GraphQlMatcher>(
        GraphQlOptions{.refinement_rounds = 0});
  }
  if (name == "GraphQL_r4_noprofile") {
    return std::make_unique<GraphQlMatcher>(
        GraphQlOptions{.refinement_rounds = 4, .use_profile = false});
  }
  if (name == "CFL_bare") {
    return std::make_unique<CflMatcher>(
        CflOptions{.use_nlf = false, .refine_bottom_up = false});
  }
  if (name == "CFQL_nonlf") {
    return std::make_unique<CfqlMatcher>(CflOptions{.use_nlf = false});
  }
  if (name == "TurboIso_nonlf") {
    return std::make_unique<TurboIsoMatcher>(
        TurboIsoOptions{.use_nlf = false});
  }
  if (name == "SPath_d1") {
    return std::make_unique<SPathMatcher>(
        SPathOptions{.signature_depth = 1});
  }
  if (name == "SPath_d3") {
    return std::make_unique<SPathMatcher>(
        SPathOptions{.signature_depth = 3});
  }
  SGQ_LOG(Fatal) << "unknown matcher " << name;
  return nullptr;
}

class MatcherTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Matcher> matcher_ = MakeMatcher(GetParam());

  uint64_t CountEmbeddings(const Graph& q, const Graph& g) {
    const auto data = matcher_->Filter(q, g);
    if (!data->Passed()) return 0;
    return matcher_->Enumerate(q, g, *data, UINT64_MAX, nullptr).embeddings;
  }
};

TEST_P(MatcherTest, TriangleInTriangle) {
  const Graph tri = MakeCycle({0, 0, 0});
  EXPECT_EQ(CountEmbeddings(tri, tri), 6u);  // all 3! automorphisms
}

TEST_P(MatcherTest, PathInPath) {
  const Graph q = MakePath({0, 1});
  const Graph g = MakePath({0, 1, 0, 1});
  // Edges with labels (0,1): (0,1), (2,1), (2,3) -> 3 embeddings.
  EXPECT_EQ(CountEmbeddings(q, g), 3u);
}

TEST_P(MatcherTest, LabelMismatchRejectedByFilter) {
  const Graph q = MakePath({5, 5});
  const Graph g = MakePath({0, 1, 2});
  const auto data = matcher_->Filter(q, g);
  EXPECT_FALSE(data->Passed());
}

TEST_P(MatcherTest, FigureOneExample) {
  // The paper's Figure 1: q = triangle (A,B,C) plus a pendant A on B... we
  // encode labels A=0, B=1, C=2. Query: u0(A)-u1(B)-u2(C)-u0, u1-u3(A).
  const Graph q = MakeGraph({0, 1, 2, 0}, {{0, 1}, {1, 2}, {0, 2}, {1, 3}});
  // Data graph: v0(A)-v1(B)-v2(C)-v0, v1-v3(A), v1-v4(A), plus v4(A)-v5(B).
  const Graph g = MakeGraph({0, 1, 2, 0, 0, 1},
                            {{0, 1}, {1, 2}, {0, 2}, {1, 3}, {1, 4}, {4, 5}});
  const uint64_t expected = BruteForceEnumerate(q, g, UINT64_MAX);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(CountEmbeddings(q, g), expected);
}

TEST_P(MatcherTest, SingleVertexQuery) {
  const Graph q = MakeGraph({3}, {});
  const Graph g = MakeGraph({3, 3, 1}, {{0, 1}, {1, 2}});
  EXPECT_EQ(CountEmbeddings(q, g), 2u);
  // At the word kernel's limit: every one of the 64 vertices, 63 included.
  EXPECT_EQ(CountEmbeddings(MakeGraph({0}, {}), Circulant(64, {1, 2})), 64u);
}

TEST_P(MatcherTest, EmptyDataGraph) {
  const Graph q = MakePath({0, 1});
  const Graph g;
  const auto data = matcher_->Filter(q, g);
  EXPECT_FALSE(data->Passed());
}

TEST_P(MatcherTest, ContainsReportsCorrectly) {
  const Graph q = MakeCycle({0, 1, 0, 1});
  const Graph yes = MakeCycle({0, 1, 0, 1});
  const Graph no = MakePath({0, 1, 0, 1});
  DeadlineChecker unlimited{Deadline::Infinite()};
  EXPECT_EQ(matcher_->Contains(q, yes, &unlimited), 1);
  EXPECT_EQ(matcher_->Contains(q, no, &unlimited), 0);
}

TEST_P(MatcherTest, LimitStopsEnumeration) {
  const Graph q = MakePath({0, 0});
  const Graph g = MakeCycle({0, 0, 0, 0, 0});
  const auto data = matcher_->Filter(q, g);
  ASSERT_TRUE(data->Passed());
  const auto r = matcher_->Enumerate(q, g, *data, 3, nullptr);
  EXPECT_EQ(r.embeddings, 3u);
}

TEST_P(MatcherTest, CallbackReceivesValidEmbeddings) {
  const Graph q = MakeCycle({0, 0, 0});
  const Graph g = MakeGraph({0, 0, 0, 0},
                            {{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}});
  const auto data = matcher_->Filter(q, g);
  ASSERT_TRUE(data->Passed());
  uint64_t count = 0;
  matcher_->Enumerate(
      q, g, *data, UINT64_MAX, nullptr,
      [&](const std::vector<VertexId>& mapping) {
        ++count;
        EXPECT_EQ(mapping.size(), q.NumVertices());
        // Injectivity, labels, and edges.
        for (VertexId u = 0; u < q.NumVertices(); ++u) {
          EXPECT_EQ(q.label(u), g.label(mapping[u]));
          for (VertexId u2 = u + 1; u2 < q.NumVertices(); ++u2) {
            EXPECT_NE(mapping[u], mapping[u2]);
          }
          for (VertexId w : q.Neighbors(u)) {
            EXPECT_TRUE(g.HasEdge(mapping[u], mapping[w]));
          }
        }
        return true;
      });
  EXPECT_GT(count, 0u);
}

TEST_P(MatcherTest, WordLimitBoundaryGraphsMatchBruteForce) {
  const Graph diamond =
      MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  for (const uint32_t n : {63u, 64u, 65u}) {
    const Graph g = Circulant(n, {1, 2});
    for (const Graph& q : {MakeCycle({0, 0, 0}), MakeCycle({0, 0, 0, 0}),
                           MakePath({0, 0, 0, 0}), diamond}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " |V(q)|="
                                        << q.NumVertices());
      const auto data = matcher_->Filter(q, g);
      ASSERT_TRUE(data->Passed());
      std::vector<std::vector<VertexId>> embeddings;
      bool uses_63 = false;
      matcher_->Enumerate(q, g, *data, UINT64_MAX, nullptr,
                          [&](const std::vector<VertexId>& mapping) {
                            embeddings.push_back(mapping);
                            for (VertexId v : mapping) uses_63 |= v == 63;
                            return true;
                          });
      EXPECT_EQ(Sorted(embeddings), Sorted(BruteForceAllEmbeddings(q, g)));
      EXPECT_EQ(uses_63, n > 63);
    }
  }
}

TEST_P(MatcherTest, QueryWithMoreVerticesThanDataGraph) {
  // Every query vertex has candidates (one label, degree 2 on both sides),
  // but no injective mapping of 13 vertices into 12 exists.
  const Graph g = Circulant(12, {1});
  const Graph q = UnlabeledPath(13);
  const auto data = matcher_->Filter(q, g);
  if (data->Passed()) {
    EXPECT_EQ(matcher_->Enumerate(q, g, *data, UINT64_MAX, nullptr)
                  .embeddings,
              0u);
  }
  DeadlineChecker unlimited{Deadline::Infinite()};
  EXPECT_EQ(matcher_->Contains(q, g, &unlimited), 0);
}

// Randomized sweep: embedding counts must equal brute force, and the filter
// must be complete (every embedding's mapped vertex appears in Φ(u)).
TEST_P(MatcherTest, RandomizedAgainstBruteForce) {
  Rng rng(777);
  std::vector<Label> labels = {0, 1, 2};
  int nonzero_cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const uint32_t qn = 2 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t gn = 4 + static_cast<uint32_t>(rng.NextBounded(10));
    Graph q = GenerateRandomGraph(qn, 1.0 + rng.NextDouble() * 2.0, labels,
                                  &rng);
    const Graph g =
        GenerateRandomGraph(gn, 1.0 + rng.NextDouble() * 3.0, labels, &rng);
    // Matchers require connected queries; the generator guarantees this
    // whenever the edge budget allows, so skip rare disconnected outputs.
    if (!IsConnected(q) || q.NumVertices() == 0) continue;

    const auto expected = BruteForceAllEmbeddings(q, g);
    if (!expected.empty()) ++nonzero_cases;

    const auto data = matcher_->Filter(q, g);
    // Completeness (Definition III.1).
    for (const auto& mapping : expected) {
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        EXPECT_TRUE(data->phi.Contains(u, mapping[u]))
            << GetParam() << " dropped candidate " << mapping[u]
            << " of query vertex " << u << " in trial " << trial;
      }
    }
    uint64_t count = 0;
    if (data->Passed()) {
      count = matcher_->Enumerate(q, g, *data, UINT64_MAX, nullptr)
                  .embeddings;
    }
    EXPECT_EQ(count, expected.size()) << GetParam() << " trial " << trial;
  }
  EXPECT_GT(nonzero_cases, 5);  // the sweep exercised real matches
}

// Runs the shared backtracking with label-bucket Φ and the BFS order from
// vertex 0 — the oracle's own search order — collecting every embedding.
struct LabelBucketRun {
  EnumerateResult result;
  std::vector<std::vector<VertexId>> embeddings;
};

LabelBucketRun RunOverLabelBuckets(const Graph& q, const Graph& g) {
  CandidateSets phi(q.NumVertices());
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    const auto bucket = g.VerticesWithLabel(q.label(u));
    phi.mutable_set(u).assign(bucket.begin(), bucket.end());
  }
  LabelBucketRun run;
  MatchWorkspace ws;
  run.result = BacktrackOverCandidates(
      q, g, phi, BuildBfsTree(q, 0).order, UINT64_MAX, nullptr,
      [&run](const std::vector<VertexId>& mapping) {
        run.embeddings.push_back(mapping);
        return true;
      },
      &ws);
  return run;
}

// At 63, 64 and 65 data vertices the word kernel (and, at 65, the list
// kernel) must give the oracle's embedding sequence, and the same search
// tree as the list kernel on the padded graph.
TEST(WordKernelTest, BoundarySizesMatchOracleAndListKernel) {
  for (const uint32_t n : {63u, 64u, 65u}) {
    const Graph g = Circulant(n, {1, 2});
    const Graph padded = PadWithIsolatedVertices(g, 65);
    for (const Graph& q : {MakeGraph({0}, {}), MakeCycle({0, 0, 0}),
                           MakePath({0, 0, 0, 0}), MakeCycle({0, 0, 0, 0})}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " |V(q)|="
                                        << q.NumVertices());
      const LabelBucketRun run = RunOverLabelBuckets(q, g);
      const LabelBucketRun lists = RunOverLabelBuckets(q, padded);
      EXPECT_EQ(run.embeddings, BruteForceAllEmbeddings(q, g));
      EXPECT_EQ(run.embeddings, lists.embeddings);
      EXPECT_EQ(run.result.recursion_calls, lists.result.recursion_calls);
      if (FitsInWord(g)) {
        EXPECT_EQ(run.result.intersect_calls, 0u);
      }
      bool uses_63 = false;
      for (const auto& mapping : run.embeddings) {
        for (VertexId v : mapping) uses_63 |= v == 63;
      }
      EXPECT_EQ(uses_63, n > 63);
    }
  }
}

TEST(WordKernelTest, QueryLargerThanWordLimitFindsNothing) {
  // 65 query vertices into a 64-vertex ring: every depth has candidates
  // until the ring runs out, and both kernels walk the same tree.
  const Graph g = Circulant(64, {1});
  const Graph q = UnlabeledPath(65);
  const LabelBucketRun run = RunOverLabelBuckets(q, g);
  const LabelBucketRun lists =
      RunOverLabelBuckets(q, PadWithIsolatedVertices(g, 65));
  EXPECT_EQ(run.result.embeddings, 0u);
  EXPECT_EQ(lists.result.embeddings, 0u);
  EXPECT_GT(run.result.recursion_calls, 64u);
  EXPECT_EQ(run.result.recursion_calls, lists.result.recursion_calls);
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherTest,
                         ::testing::Values("GraphQL", "CFL", "CFQL",
                                           "TurboIso", "Ullmann", "QuickSI",
                                           "SPath"),
                         [](const auto& info) { return info.param; });

INSTANTIATE_TEST_SUITE_P(OptionVariants, MatcherTest,
                         ::testing::Values("GraphQL_r0",
                                           "GraphQL_r4_noprofile",
                                           "CFL_bare", "CFQL_nonlf",
                                           "TurboIso_nonlf", "SPath_d1",
                                           "SPath_d3"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace sgq
