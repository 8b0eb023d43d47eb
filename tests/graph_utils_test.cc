#include "graph/graph_utils.h"

#include <gtest/gtest.h>

#include <deque>

#include "gen/graph_gen.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCycle;
using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;

TEST(BfsTreeTest, PathGraph) {
  Graph g = MakePath({0, 0, 0, 0});
  const BfsTree t = BuildBfsTree(g, 0);
  EXPECT_EQ(t.root, 0u);
  EXPECT_EQ(t.parent[0], kInvalidVertex);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[3], 2u);
  EXPECT_EQ(t.level[3], 3u);
  EXPECT_EQ(t.num_levels, 4u);
  EXPECT_EQ(t.order.size(), 4u);
  EXPECT_EQ(t.order[0], 0u);
}

TEST(BfsTreeTest, LevelsFromMiddle) {
  Graph g = MakePath({0, 0, 0, 0, 0});
  const BfsTree t = BuildBfsTree(g, 2);
  EXPECT_EQ(t.level[2], 0u);
  EXPECT_EQ(t.level[0], 2u);
  EXPECT_EQ(t.level[4], 2u);
  EXPECT_EQ(t.num_levels, 3u);
  EXPECT_EQ(t.children[2].size(), 2u);
}

TEST(ConnectivityTest, Basics) {
  EXPECT_TRUE(IsConnected(Graph()));
  EXPECT_TRUE(IsConnected(MakePath({0, 1, 2})));
  EXPECT_FALSE(IsConnected(MakeGraph({0, 1, 2}, {{0, 1}})));
}

TEST(ConnectivityTest, Components) {
  Graph g = MakeGraph({0, 0, 0, 0, 0}, {{0, 1}, {2, 3}});
  const auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(TwoCoreTest, CycleWithTail) {
  // Triangle 0-1-2 with a tail 2-3-4: the 2-core is exactly the triangle.
  Graph g = MakeGraph({0, 0, 0, 0, 0},
                      {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const auto core = TwoCoreMembership(g);
  EXPECT_TRUE(core[0]);
  EXPECT_TRUE(core[1]);
  EXPECT_TRUE(core[2]);
  EXPECT_FALSE(core[3]);
  EXPECT_FALSE(core[4]);
}

TEST(TwoCoreTest, TreeHasEmptyCore) {
  Graph g = MakePath({0, 0, 0, 0});
  for (bool b : TwoCoreMembership(g)) EXPECT_FALSE(b);
}

TEST(TwoCoreTest, CascadingRemoval) {
  // A "broom": path attached to a star; everything should be removed.
  Graph g = MakeGraph({0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {1, 3}, {1, 4}});
  for (bool b : TwoCoreMembership(g)) EXPECT_FALSE(b);
}

// Textbook references the buffer-recycling forms must reproduce: a
// deque-driven BFS and peeling with a separate removed[] array.
BfsTree ReferenceBfsTree(const Graph& graph, VertexId root) {
  const uint32_t n = graph.NumVertices();
  BfsTree tree;
  tree.root = root;
  tree.parent.assign(n, kInvalidVertex);
  tree.level.assign(n, 0);
  tree.children.assign(n, {});
  std::vector<bool> visited(n, false);
  std::deque<VertexId> queue = {root};
  visited[root] = true;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    tree.order.push_back(u);
    for (VertexId w : graph.Neighbors(u)) {
      if (visited[w]) continue;
      visited[w] = true;
      tree.parent[w] = u;
      tree.level[w] = tree.level[u] + 1;
      tree.children[u].push_back(w);
      queue.push_back(w);
    }
  }
  tree.num_levels = tree.level[tree.order.back()] + 1;
  return tree;
}

std::vector<bool> ReferenceTwoCore(const Graph& graph) {
  const uint32_t n = graph.NumVertices();
  std::vector<uint32_t> degree(n);
  std::vector<bool> removed(n, false);
  bool changed = true;
  for (VertexId v = 0; v < n; ++v) degree[v] = graph.degree(v);
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (removed[v] || degree[v] >= 2) continue;
      removed[v] = true;
      changed = true;
      for (VertexId w : graph.Neighbors(v)) {
        if (!removed[w]) --degree[w];
      }
    }
  }
  std::vector<bool> in_core(n);
  for (VertexId v = 0; v < n; ++v) in_core[v] = !removed[v];
  return in_core;
}

void ExpectSameTree(const BfsTree& actual, const BfsTree& expected) {
  EXPECT_EQ(actual.root, expected.root);
  EXPECT_EQ(actual.parent, expected.parent);
  EXPECT_EQ(actual.level, expected.level);
  EXPECT_EQ(actual.order, expected.order);
  EXPECT_EQ(actual.children, expected.children);
  EXPECT_EQ(actual.num_levels, expected.num_levels);
}

TEST(BfsTreeTest, RecycledTreeEqualsFreshOnRandomGraphs) {
  // One BfsTree and one set of 2-core buffers serve every graph, in an
  // order that alternates large and small graphs, so each call after the
  // first reuses buffers sized for a different (often larger) graph.
  Rng rng(404);
  const std::vector<Label> labels = {0, 1, 2};
  BfsTree recycled;
  std::vector<bool> in_core;
  std::vector<uint32_t> core_degree;
  std::vector<VertexId> stack;
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = static_cast<uint32_t>(
        trial % 2 == 0 ? 12 + rng.NextBounded(12) : 1 + rng.NextBounded(6));
    const double degree = trial % 3 == 0 ? 1.9 : trial % 3 == 1 ? 2.5 : 3.5;
    const Graph g = GenerateRandomGraph(n, degree, labels, &rng);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n);
    TwoCoreMembership(g, &in_core, &core_degree, &stack);
    EXPECT_EQ(in_core, ReferenceTwoCore(g));
    EXPECT_EQ(TwoCoreMembership(g), ReferenceTwoCore(g));
    if (!IsConnected(g)) continue;
    const VertexId root = static_cast<VertexId>(rng.NextBounded(n));
    BuildBfsTree(g, root, &recycled);
    ExpectSameTree(recycled, ReferenceBfsTree(g, root));
    ExpectSameTree(BuildBfsTree(g, root), ReferenceBfsTree(g, root));
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(AcyclicTest, Basics) {
  EXPECT_TRUE(IsAcyclic(MakePath({0, 0, 0})));
  EXPECT_FALSE(IsAcyclic(MakeCycle({0, 0, 0})));
  // Forest (disconnected, no cycles).
  EXPECT_TRUE(IsAcyclic(MakeGraph({0, 0, 0, 0}, {{0, 1}, {2, 3}})));
  // Disconnected with one cycle.
  EXPECT_FALSE(
      IsAcyclic(MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}})));
}

TEST(SortedMultisetContainsTest, Cases) {
  using V = std::vector<Label>;
  const V empty;
  const V a = {1, 2, 2, 5};
  EXPECT_TRUE(SortedMultisetContains(a, empty));
  EXPECT_TRUE(SortedMultisetContains(a, V{2, 2}));
  EXPECT_TRUE(SortedMultisetContains(a, V{1, 2, 2, 5}));
  EXPECT_FALSE(SortedMultisetContains(a, V{2, 2, 2}));
  EXPECT_FALSE(SortedMultisetContains(a, V{3}));
  EXPECT_FALSE(SortedMultisetContains(a, V{1, 2, 2, 5, 5}));
  EXPECT_FALSE(SortedMultisetContains(empty, V{1}));
}

}  // namespace
}  // namespace sgq
