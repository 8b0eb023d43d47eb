// Shared helpers for the test suite.
#ifndef SGQ_TESTS_TEST_UTIL_H_
#define SGQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "graph/types.h"

namespace sgq::testing {

// Builds a graph from a label list and an edge list.
inline Graph MakeGraph(std::initializer_list<Label> labels,
                       std::initializer_list<std::pair<VertexId, VertexId>>
                           edges) {
  GraphBuilder builder;
  for (Label l : labels) builder.AddVertex(l);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

// A labeled path v0 - v1 - ... - v_{n-1}.
inline Graph MakePath(std::initializer_list<Label> labels) {
  GraphBuilder builder;
  VertexId prev = kInvalidVertex;
  for (Label l : labels) {
    const VertexId v = builder.AddVertex(l);
    if (prev != kInvalidVertex) builder.AddEdge(prev, v);
    prev = v;
  }
  return builder.Build();
}

// A labeled cycle.
inline Graph MakeCycle(std::initializer_list<Label> labels) {
  GraphBuilder builder;
  std::vector<VertexId> ids;
  for (Label l : labels) ids.push_back(builder.AddVertex(l));
  for (size_t i = 0; i < ids.size(); ++i) {
    builder.AddEdge(ids[i], ids[(i + 1) % ids.size()]);
  }
  return builder.Build();
}

// The complete bipartite graph K_{a,b}, every vertex labeled `label`: it
// holds no odd cycle, so an odd-cycle query searches it exhaustively.
inline Graph MakeCompleteBipartite(uint32_t a, uint32_t b, Label label) {
  GraphBuilder builder;
  for (uint32_t v = 0; v < a + b; ++v) builder.AddVertex(label);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId w = a; w < a + b; ++w) builder.AddEdge(u, w);
  }
  return builder.Build();
}

// A label the generated databases and queries of the tests never use.
inline constexpr Label kPaddingLabel = 1000;

// `g` plus `count` isolated vertices labeled kPaddingLabel, appended after
// g's own vertices so every existing id is unchanged. No query uses the
// label, so filters, orders and search trees over the result equal those
// over `g`; pushing a graph past 64 vertices this way switches matching
// from the word kernel to the list kernel and nothing else.
inline Graph PadWithIsolatedVertices(const Graph& g, uint32_t count) {
  GraphBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) builder.AddVertex(g.label(v));
  for (uint32_t i = 0; i < count; ++i) builder.AddVertex(kPaddingLabel);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId x : g.Neighbors(v)) {
      if (v < x) builder.AddEdge(v, x);
    }
  }
  return builder.Build();
}

// `g` with vertex v moved to id v * stride and stride - 1 isolated
// kPaddingLabel vertices after each: the ids keep their order, so filters,
// orders and search trees over the result equal those over `g` under
// v -> v * stride, while g's vertices land in many 64-bit words of a
// vertex bit map instead of the first one.
inline Graph SpreadWithIsolatedVertices(const Graph& g, uint32_t stride) {
  GraphBuilder builder;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    builder.AddVertex(g.label(v));
    for (uint32_t i = 1; i < stride; ++i) builder.AddVertex(kPaddingLabel);
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId x : g.Neighbors(v)) {
      if (v < x) builder.AddEdge(v * stride, x * stride);
    }
  }
  return builder.Build();
}

// Every graph of `db` padded past the word kernel's 64-vertex limit (65
// isolated vertices each).
inline GraphDatabase PadPastWordLimit(const GraphDatabase& db) {
  GraphDatabase padded;
  for (GraphId g = 0; g < db.size(); ++g) {
    padded.Add(PadWithIsolatedVertices(db.graph(g), 65));
  }
  return padded;
}

// Canonicalizes a list of embeddings for order-insensitive comparison.
inline std::vector<std::vector<VertexId>> Sorted(
    std::vector<std::vector<VertexId>> embeddings) {
  std::sort(embeddings.begin(), embeddings.end());
  return embeddings;
}

// This process's virtual size (VmSize in /proc/self/status) in kB; 0 when
// it cannot be read.
inline long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::atol(line.c_str() + 7);
  }
  return 0;
}

}  // namespace sgq::testing

#endif  // SGQ_TESTS_TEST_UTIL_H_
