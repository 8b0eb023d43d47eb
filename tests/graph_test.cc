#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/graph_database.h"
#include "tests/test_util.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder;
  Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.LabelBound(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphBuilderTest, SingleVertex) {
  GraphBuilder builder;
  const VertexId v = builder.AddVertex(7);
  Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 1u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.label(v), 7u);
  EXPECT_EQ(g.degree(v), 0u);
  EXPECT_EQ(g.LabelBound(), 8u);
  EXPECT_EQ(g.NumDistinctLabels(), 1u);
}

TEST(GraphBuilderTest, RejectsDuplicateEdge) {
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(0);
  EXPECT_TRUE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(1, 0));  // undirected duplicate
  EXPECT_EQ(builder.NumEdges(), 1u);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  Graph g = MakeGraph({0, 1, 2, 1}, {{0, 2}, {0, 1}, {2, 3}, {1, 2}});
  ASSERT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  const auto n2 = g.Neighbors(2);
  EXPECT_TRUE(std::is_sorted(n2.begin(), n2.end()));
  EXPECT_EQ(n2.size(), 3u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) {
      EXPECT_TRUE(g.HasEdge(u, v)) << u << "-" << v;
      EXPECT_TRUE(g.HasEdge(v, u)) << v << "-" << u;
    }
  }
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(3, 0));
}

TEST(GraphTest, NeighborLabelsSorted) {
  Graph g = MakeGraph({5, 3, 9, 3}, {{0, 1}, {0, 2}, {0, 3}});
  const auto labels = g.NeighborLabels(0);
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], 3u);
  EXPECT_EQ(labels[1], 3u);
  EXPECT_EQ(labels[2], 9u);
}

TEST(GraphTest, LabelIndex) {
  Graph g = MakeGraph({1, 0, 1, 2, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto ones = g.VerticesWithLabel(1);
  ASSERT_EQ(ones.size(), 3u);
  EXPECT_EQ(ones[0], 0u);
  EXPECT_EQ(ones[1], 2u);
  EXPECT_EQ(ones[2], 4u);
  EXPECT_EQ(g.NumVerticesWithLabel(0), 1u);
  EXPECT_EQ(g.NumVerticesWithLabel(2), 1u);
  EXPECT_TRUE(g.VerticesWithLabel(99).empty());
  EXPECT_EQ(g.NumDistinctLabels(), 3u);
}

TEST(GraphTest, DegreeAndMaxDegree) {
  Graph g = MakePath({0, 0, 0, 0});
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.MaxDegree(), 2u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 3 / 4);
}

TEST(GraphTest, MemoryBytesPositive) {
  Graph g = MakePath({0, 1, 2});
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphTest, MayContainChecksEdgesAndEveryLabelCount) {
  // Data: labels {0: 2 vertices, 1: 1, 3: 1}, 3 edges.
  const Graph data = MakeGraph({0, 1, 0, 3}, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(data.MayContain(data));
  EXPECT_TRUE(data.MayContain(MakePath({0, 1, 0})));
  EXPECT_TRUE(data.MayContain(MakePath({3})));
  // A label the data graph lacks, below, between and above its labels.
  EXPECT_FALSE(data.MayContain(MakePath({0, 2})));
  EXPECT_FALSE(data.MayContain(MakePath({5})));
  EXPECT_FALSE(data.MayContain(MakeGraph({0, 1, 0, 3, 4}, {})));
  // Every label present, one of them too often.
  EXPECT_FALSE(data.MayContain(MakePath({1, 0, 1})));
  EXPECT_FALSE(data.MayContain(MakeGraph({0, 0, 0}, {})));
  // The screen sees only counts: a triangle on labels 0,1,0 has as many
  // edges as the data graph and passes (the matcher's filter rejects it),
  // while a 4-cycle on all four labels has one edge too many.
  EXPECT_TRUE(data.MayContain(MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}, {2, 0}})));
  EXPECT_FALSE(data.MayContain(
      MakeGraph({0, 1, 0, 3}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}})));
  // The empty query fits anywhere; nothing but the empty query fits the
  // empty graph.
  EXPECT_TRUE(data.MayContain(Graph()));
  EXPECT_TRUE(Graph().MayContain(Graph()));
  EXPECT_FALSE(Graph().MayContain(MakePath({0})));
}

TEST(GraphTest, MayContainHandlesSparseLabelsUpToMax) {
  const Graph data = MakeGraph({kMaxLabel, 7, 1000000, kMaxLabel, 7},
                               {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_TRUE(data.MayContain(MakePath({kMaxLabel, 7, 1000000})));
  EXPECT_TRUE(data.MayContain(MakePath({kMaxLabel, 7, kMaxLabel})));
  EXPECT_FALSE(data.MayContain(MakePath({kMaxLabel, kMaxLabel, kMaxLabel})));
  EXPECT_FALSE(data.MayContain(MakePath({kMaxLabel - 1})));
  EXPECT_FALSE(data.MayContain(MakePath({1000000, 1000001})));
  EXPECT_FALSE(data.MayContain(MakePath({0, 7})));
}

TEST(GraphDatabaseTest, AddAndRemove) {
  GraphDatabase db;
  EXPECT_TRUE(db.empty());
  const GraphId a = db.Add(MakePath({0, 1}));
  const GraphId b = db.Add(MakePath({1, 2, 3}));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.graph(b).NumVertices(), 3u);

  // Remove swaps in the last graph.
  EXPECT_TRUE(db.Remove(a));
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.graph(0).NumVertices(), 3u);
  EXPECT_FALSE(db.Remove(5));
}

TEST(GraphDatabaseTest, ComputeStats) {
  GraphDatabase db;
  db.Add(MakePath({0, 1}));      // 2 vertices, 1 edge, 2 labels
  db.Add(MakePath({2, 2, 2}));   // 3 vertices, 2 edges, 1 label
  const DatabaseStats s = db.ComputeStats();
  EXPECT_EQ(s.num_graphs, 2u);
  EXPECT_EQ(s.num_distinct_labels, 3u);
  EXPECT_DOUBLE_EQ(s.avg_vertices_per_graph, 2.5);
  EXPECT_DOUBLE_EQ(s.avg_edges_per_graph, 1.5);
  EXPECT_DOUBLE_EQ(s.avg_labels_per_graph, 1.5);
}

}  // namespace
}  // namespace sgq
