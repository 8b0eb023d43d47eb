// White-box tests of CFL's CPI: tree shape, matching-order invariants
// (parents precede children; core before forest before leaves), CPI edge
// soundness, and the ablation knobs.
#include "matching/cfl.h"

#include <gtest/gtest.h>

#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "graph/graph_utils.h"
#include "index/vertex_candidate_index.h"
#include "matching/brute_force.h"
#include "matching/cfql.h"
#include "matching/workspace.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCycle;
using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;

const CpiData& AsCpi(const FilterData& data) {
  return dynamic_cast<const CpiData&>(data);
}

TEST(CflCpiTest, MatchingOrderParentsPrecedeChildren) {
  Rng rng(55);
  std::vector<Label> labels = {0, 1};
  CflMatcher matcher;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph q =
        GenerateRandomGraph(3 + rng.NextBounded(5),
                            1.5 + rng.NextDouble() * 2, labels, &rng);
    if (!IsConnected(q)) continue;
    const Graph g = GenerateRandomGraph(20, 4.0, labels, &rng);
    const auto data = matcher.Filter(q, g);
    if (!data->Passed()) continue;
    const CpiData& cpi = AsCpi(*data);
    ASSERT_EQ(cpi.matching_order.size(), q.NumVertices());
    std::vector<bool> seen(q.NumVertices(), false);
    for (VertexId u : cpi.matching_order) {
      if (u != cpi.tree.root) {
        EXPECT_TRUE(seen[cpi.tree.parent[u]])
            << "vertex " << u << " ordered before its tree parent";
      }
      seen[u] = true;
    }
  }
}

TEST(CflCpiTest, CoreVerticesComeFirst) {
  // Triangle (core) with two pendant vertices (forest/leaves).
  const Graph q = MakeGraph({0, 0, 0, 0, 0},
                            {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const Graph g = MakeGraph(
      {0, 0, 0, 0, 0, 0},
      {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  CflMatcher matcher;
  const auto data = matcher.Filter(q, g);
  ASSERT_TRUE(data->Passed());
  const CpiData& cpi = AsCpi(*data);
  const auto core = TwoCoreMembership(q);
  // All core vertices (0,1,2) must appear before all non-core (3,4).
  uint32_t last_core_pos = 0, first_noncore_pos = UINT32_MAX;
  for (uint32_t i = 0; i < cpi.matching_order.size(); ++i) {
    if (core[cpi.matching_order[i]]) {
      last_core_pos = i;
    } else {
      first_noncore_pos = std::min(first_noncore_pos, i);
    }
  }
  EXPECT_LT(last_core_pos, first_noncore_pos);
}

TEST(CflCpiTest, CpiEdgesPointIntoPhi) {
  Rng rng(66);
  std::vector<Label> labels = {0, 1, 2};
  CflMatcher matcher;
  for (int trial = 0; trial < 40; ++trial) {
    const Graph q = GenerateRandomGraph(4, 1.5, labels, &rng);
    if (!IsConnected(q)) continue;
    const Graph g = GenerateRandomGraph(25, 4.0, labels, &rng);
    const auto data = matcher.Filter(q, g);
    if (!data->Passed()) continue;
    const CpiData& cpi = AsCpi(*data);
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      if (u == cpi.tree.root) continue;
      const VertexId p = cpi.tree.parent[u];
      ASSERT_EQ(cpi.children[u].size(), data->phi.set(p).size());
      for (uint32_t pj = 0; pj < cpi.children[u].size(); ++pj) {
        const VertexId pv = data->phi.set(p)[pj];
        for (uint32_t idx : cpi.children[u][pj]) {
          ASSERT_LT(idx, data->phi.set(u).size());
          const VertexId cv = data->phi.set(u)[idx];
          // CPI edge => real data edge between the two candidates.
          EXPECT_TRUE(g.HasEdge(pv, cv));
        }
      }
    }
  }
}

TEST(CflCpiTest, BottomUpRefinementOnlyShrinksPhi) {
  Rng rng(77);
  std::vector<Label> labels = {0, 1};
  CflMatcher with{CflOptions{.use_nlf = true, .refine_bottom_up = true}};
  CflMatcher without{CflOptions{.use_nlf = true, .refine_bottom_up = false}};
  for (int trial = 0; trial < 40; ++trial) {
    const Graph q = GenerateRandomGraph(4, 1.5, labels, &rng);
    if (!IsConnected(q)) continue;
    const Graph g = GenerateRandomGraph(25, 3.0, labels, &rng);
    const auto refined = with.Filter(q, g);
    const auto raw = without.Filter(q, g);
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      EXPECT_LE(refined->phi.set(u).size(), raw->phi.set(u).size());
      for (VertexId v : refined->phi.set(u)) {
        EXPECT_TRUE(raw->phi.Contains(u, v));
      }
    }
    // Both must still count the same embeddings.
    const uint64_t expected = BruteForceEnumerate(q, g, UINT64_MAX);
    if (refined->Passed()) {
      EXPECT_EQ(with.Enumerate(q, g, *refined, UINT64_MAX, nullptr)
                    .embeddings,
                expected);
    } else {
      EXPECT_EQ(expected, 0u);
    }
    if (raw->Passed()) {
      EXPECT_EQ(
          without.Enumerate(q, g, *raw, UINT64_MAX, nullptr).embeddings,
          expected);
    } else {
      EXPECT_EQ(expected, 0u);
    }
  }
}

TEST(CflCpiTest, MemoryBytesCountsCpi) {
  const Graph q = MakePath({0, 1, 0});
  const Graph g = MakeCycle({0, 1, 0, 1});
  CflMatcher matcher;
  const auto data = matcher.Filter(q, g);
  ASSERT_TRUE(data->Passed());
  EXPECT_GT(data->MemoryBytes(), data->phi.MemoryBytes());
}

TEST(CflCpiTest, RecycledCpiEqualsFreshAfterLargerQuery) {
  // One workspace serves a large query and then a smaller one against the
  // same data graphs, so the second Filter() reuses a CpiData (tree,
  // children lists, order) and 2-core/BFS scratch sized for the first.
  Rng rng(913);
  const std::vector<Label> labels = {0, 1, 2};
  CflMatcher matcher;
  CfqlMatcher cfql;
  MatchWorkspace ws;
  MatchWorkspace phi_ws;
  int passed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = GenerateRandomGraph(40, 4.0, labels, &rng);
    const uint32_t n = trial % 2 == 0 ? 9 : 3;
    const Graph q = GenerateRandomGraph(n, 2.4, labels, &rng);
    if (!IsConnected(q)) continue;
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const auto fresh = matcher.Filter(q, g);
    const CpiData& expected = AsCpi(*fresh);
    const CpiData& recycled = AsCpi(*matcher.Filter(q, g, &ws));
    ASSERT_EQ(recycled.phi.NumQueryVertices(), n);
    for (VertexId u = 0; u < n; ++u) {
      EXPECT_EQ(recycled.phi.set(u), expected.phi.set(u));
    }
    EXPECT_EQ(recycled.Passed(), expected.Passed());
    if (!expected.Passed()) continue;
    ++passed;
    EXPECT_EQ(recycled.tree.root, expected.tree.root);
    EXPECT_EQ(recycled.tree.parent, expected.tree.parent);
    EXPECT_EQ(recycled.tree.order, expected.tree.order);
    EXPECT_EQ(recycled.tree.children, expected.tree.children);
    EXPECT_EQ(recycled.children, expected.children);
    EXPECT_EQ(recycled.matching_order, expected.matching_order);

    // CFQL's filter stops at Φ: the same Φ and tree, no CPI edges or order.
    const CpiData& phi_only = AsCpi(*cfql.Filter(q, g, &phi_ws));
    for (VertexId u = 0; u < n; ++u) {
      EXPECT_EQ(phi_only.phi.set(u), expected.phi.set(u));
    }
    EXPECT_EQ(phi_only.tree.order, expected.tree.order);
    EXPECT_TRUE(phi_only.children.empty());
    EXPECT_TRUE(phi_only.matching_order.empty());
    EXPECT_LT(cfql.Filter(q, g)->MemoryBytes(), expected.MemoryBytes());
    EXPECT_EQ(cfql.Enumerate(q, g, phi_only, UINT64_MAX, nullptr, &phi_ws)
                  .embeddings,
              BruteForceEnumerate(q, g, UINT64_MAX));
  }
  EXPECT_GT(passed, 10);
}

// CFL's filter on a data graph of <= 64 vertices works on adjacency words;
// the same graph padded past 64 vertices takes the reach-map path. Both
// must build the same Φ, tree, CPI and order, with and without a vertex
// candidate index attached (the SGQ_CANDIDATE_INDEX=on mode, where the
// top-down pass draws its candidates from the index). Padding at the tail
// keeps every candidate inside the first word of a map; spreading the
// vertices over more than 4,096 ids puts them in many map words.
TEST(CflCpiTest, WordFilterEqualsPaddedListFilter) {
  Rng rng(4242);
  const std::vector<Label> labels = {0, 1, 2};
  CflMatcher matcher;
  CfqlMatcher cfql;
  MatchWorkspace ws;
  int passed = 0;
  for (int trial = 0; trial < 45; ++trial) {
    const uint32_t num_vertices = trial % 3 == 0 ? 64 : 20 + trial;
    GraphDatabase db;
    db.Add(GenerateRandomGraph(num_vertices, 3.0 + trial % 4, labels, &rng));
    Graph q;
    if (trial % 4 == 3) {
      // A random query: mostly filtered out, at the root or later.
      q = GenerateRandomGraph(5, 2.2, labels, &rng);
      if (!IsConnected(q)) continue;
    } else if (!GenerateQuery(db,
                              trial % 2 == 0 ? QueryKind::kDense
                                             : QueryKind::kSparse,
                              4 + trial % 5, &rng, &q)) {
      continue;
    }
    for (const bool indexed : {false, true}) {
      for (const bool spread : {false, true}) {
        Graph words = db.graph(0);
        const uint32_t stride = spread ? 4096 / words.NumVertices() + 1 : 1;
        Graph lists =
            spread ? ::sgq::testing::SpreadWithIsolatedVertices(words, stride)
                   : ::sgq::testing::PadWithIsolatedVertices(words, 65);
        ASSERT_TRUE(FitsInWord(words));
        ASSERT_FALSE(FitsInWord(lists));
        if (indexed) {
          words.SetCandidateIndex(VertexCandidateIndex::Build(words));
          lists.SetCandidateIndex(VertexCandidateIndex::Build(lists));
        }
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " indexed="
                                          << indexed << " spread=" << spread);
        // Φ over `words` in the ids of `lists`.
        auto list_ids = [&](std::vector<VertexId> set) {
          for (VertexId& v : set) v *= stride;
          return set;
        };
        const auto expected = matcher.Filter(q, lists);
        const CpiData& want = AsCpi(*expected);
        const CpiData& got = AsCpi(*matcher.Filter(q, words, &ws));
        ASSERT_EQ(got.Passed(), want.Passed());
        for (VertexId u = 0; u < q.NumVertices(); ++u) {
          EXPECT_EQ(list_ids(got.phi.set(u)), want.phi.set(u));
        }
        const auto phi_only = cfql.Filter(q, words);
        for (VertexId u = 0; u < q.NumVertices(); ++u) {
          EXPECT_EQ(list_ids(phi_only->phi.set(u)), want.phi.set(u));
        }
        if (!want.Passed()) continue;
        ++passed;
        EXPECT_EQ(got.tree.order, want.tree.order);
        EXPECT_EQ(got.children, want.children);
        EXPECT_EQ(got.matching_order, want.matching_order);
      }
    }
  }
  EXPECT_GT(passed, 80);
}

TEST(CflCpiTest, SingleVertexQueryWorks) {
  const Graph q = MakeGraph({1}, {});
  const Graph g = MakeGraph({1, 1, 0}, {{0, 1}, {1, 2}});
  CflMatcher matcher;
  const auto data = matcher.Filter(q, g);
  ASSERT_TRUE(data->Passed());
  EXPECT_EQ(matcher.Enumerate(q, g, *data, UINT64_MAX, nullptr).embeddings,
            2u);
}

}  // namespace
}  // namespace sgq
