// CFL's filter on data graphs of more than 64 vertices, where the top-down
// reach test and the bottom-up adjacency test run on multi-word vertex maps
// (matching/cfl.cc). On generated power-law graphs with hubs and several
// labels: Φ of CFL and CFQL, with and without a vertex candidate index,
// equals a reference that applies the top-down and bottom-up definitions
// with HasEdge; answers equal brute force; and one workspace recycled over
// data graphs of very different sizes returns what a fresh one returns.
#include <gtest/gtest.h>

#include <vector>

#include "gen/biggraph_gen.h"
#include "gen/query_gen.h"
#include "graph/graph_database.h"
#include "index/vertex_candidate_index.h"
#include "matching/brute_force.h"
#include "matching/candidate_space.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/workspace.h"
#include "util/rng.h"

namespace sgq {
namespace {

const CpiData& AsCpi(const FilterData& data) {
  return dynamic_cast<const CpiData&>(data);
}

Graph PowerLaw(uint32_t vertices, uint64_t seed) {
  return GeneratePowerLawGraph({.num_vertices = vertices,
                                .avg_degree = 8.0,
                                .num_labels = 5,
                                .label_skew = 0.5,
                                .seed = seed});
}

Graph Indexed(const Graph& g) {
  Graph copy = g;
  copy.SetCandidateIndex(VertexCandidateIndex::Build(copy));
  return copy;
}

// Φ by definition along `tree`: LDF + NLF; top-down, every backward
// neighbor u' of u has a candidate adjacent to v; bottom-up, in reverse
// order, every forward neighbor has one too. Returns false as soon as a
// set is empty (the graph is filtered out).
bool ReferencePhi(const Graph& q, const Graph& g, const BfsTree& tree,
                  std::vector<std::vector<VertexId>>* phi) {
  const uint32_t n = q.NumVertices();
  phi->assign(n, {});
  std::vector<uint32_t> pos(n);
  for (uint32_t i = 0; i < n; ++i) pos[tree.order[i]] = i;
  auto adjacent_to_some = [&](VertexId v, VertexId uprime) {
    for (VertexId x : (*phi)[uprime]) {
      if (g.HasEdge(v, x)) return true;
    }
    return false;
  };
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = tree.order[i];
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (!PassesLdfNlf(q, g, u, v, /*use_nlf=*/true)) continue;
      bool reached = true;
      for (VertexId uprime : q.Neighbors(u)) {
        if (pos[uprime] < i && !adjacent_to_some(v, uprime)) reached = false;
      }
      if (reached) (*phi)[u].push_back(v);
    }
    if ((*phi)[u].empty()) return false;
  }
  for (uint32_t i = n; i-- > 0;) {
    const VertexId u = tree.order[i];
    std::erase_if((*phi)[u], [&](VertexId v) {
      for (VertexId uprime : q.Neighbors(u)) {
        if (pos[uprime] > i && !adjacent_to_some(v, uprime)) return true;
      }
      return false;
    });
    if ((*phi)[u].empty()) return false;
  }
  return true;
}

// Checks `got` against the reference along its own tree.
void ExpectReferencePhi(const Graph& q, const Graph& g, const CpiData& got) {
  std::vector<std::vector<VertexId>> want;
  const bool passed = ReferencePhi(q, g, got.tree, &want);
  ASSERT_EQ(got.Passed(), passed);
  if (!passed) return;
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    EXPECT_EQ(got.phi.set(u), want[u]) << "u " << u;
  }
}

TEST(CflReachMapTest, PhiEqualsDefinitionOnPowerLawGraph) {
  GraphDatabase db;
  db.Add(PowerLaw(3000, 17));
  const Graph& plain = db.graph(0);
  const Graph indexed = Indexed(plain);
  ASSERT_FALSE(FitsInWord(plain));

  CflMatcher cfl;
  CfqlMatcher cfql;
  Rng rng(2024);
  int queries = 0;
  int multi_backward = 0;  // query vertices with >= 2 backward neighbors
  for (int trial = 0; trial < 16; ++trial) {
    const QueryKind kind =
        trial % 2 == 0 ? QueryKind::kSparse : QueryKind::kDense;
    Graph q;
    if (!GenerateQuery(db, kind, 3 + trial % 6, &rng, &q)) continue;
    ++queries;
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const bool contained = BruteForceContains(q, plain);
    for (const Graph* g : {&plain, &indexed}) {
      SCOPED_TRACE(::testing::Message() << "indexed=" << (g == &indexed));
      const auto full = cfl.Filter(q, *g);
      const CpiData& cpi = AsCpi(*full);
      ExpectReferencePhi(q, *g, cpi);
      const auto phi_only = cfql.Filter(q, *g);
      ExpectReferencePhi(q, *g, AsCpi(*phi_only));

      const auto found = [&](const Matcher& m, const FilterData& data) {
        return data.Passed() &&
               m.Enumerate(q, *g, data, 1, nullptr).embeddings > 0;
      };
      EXPECT_EQ(found(cfl, *full), contained);
      EXPECT_EQ(found(cfql, *phi_only), contained);

      std::vector<uint32_t> pos(q.NumVertices());
      for (uint32_t i = 0; i < q.NumVertices(); ++i) {
        pos[cpi.tree.order[i]] = i;
      }
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        uint32_t backward = 0;
        for (VertexId w : q.Neighbors(u)) backward += pos[w] < pos[u];
        multi_backward += backward >= 2;
      }
    }
  }
  EXPECT_GE(queries, 12);
  EXPECT_GT(multi_backward, 0);
}

// One workspace serves data graphs of ~5,000, 100, 40 (one word) and again
// ~5,000 vertices in turn, so stale map words from a larger graph and the
// switches between word rows and maps would show as a Φ, CPI or order that
// differs from a fresh workspace's.
TEST(CflReachMapTest, RecycledWorkspaceEqualsFreshAcrossGraphSizes) {
  std::vector<GraphDatabase> dbs(4);
  dbs[0].Add(PowerLaw(5000, 31));
  dbs[1].Add(PowerLaw(100, 32));
  dbs[2].Add(PowerLaw(40, 33));
  dbs[3].Add(PowerLaw(5000, 34));
  ASSERT_TRUE(FitsInWord(dbs[2].graph(0)));
  ASSERT_FALSE(FitsInWord(dbs[1].graph(0)));

  CflMatcher cfl;
  CfqlMatcher cfql;
  MatchWorkspace ws;
  Rng rng(77);
  int passed = 0;
  for (int round = 0; round < 8; ++round) {
    for (size_t d = 0; d < dbs.size(); ++d) {
      const Graph g =
          round % 2 == 0 ? dbs[d].graph(0) : Indexed(dbs[d].graph(0));
      Graph q;
      const QueryKind kind =
          round % 3 == 0 ? QueryKind::kSparse : QueryKind::kDense;
      if (!GenerateQuery(dbs[d], kind, 3 + round % 5, &rng, &q)) continue;
      SCOPED_TRACE(::testing::Message() << "round " << round << " graph " << d);
      const auto fresh = cfl.Filter(q, g);
      const CpiData& want = AsCpi(*fresh);
      {
        const CpiData& got = AsCpi(*cfl.Filter(q, g, &ws));
        ASSERT_EQ(got.Passed(), want.Passed());
        for (VertexId u = 0; u < q.NumVertices(); ++u) {
          EXPECT_EQ(got.phi.set(u), want.phi.set(u));
        }
        if (want.Passed()) {
          ++passed;
          EXPECT_EQ(got.children, want.children);
          EXPECT_EQ(got.matching_order, want.matching_order);
        }
      }
      const FilterData& phi_only = *cfql.Filter(q, g, &ws);
      ASSERT_EQ(phi_only.Passed(), want.Passed());
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        EXPECT_EQ(phi_only.phi.set(u), want.phi.set(u));
      }
    }
  }
  EXPECT_GT(passed, 20);
}

}  // namespace
}  // namespace sgq
