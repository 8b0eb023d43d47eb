// Structural graph algorithms shared by the matchers and indexes: BFS trees
// (CFL's q_t), 2-core decomposition (CFL's core structure), connectivity
// checks (query generators must emit connected queries), and sorted-multiset
// containment (the NLF / neighborhood-profile filter).
#ifndef SGQ_GRAPH_GRAPH_UTILS_H_
#define SGQ_GRAPH_GRAPH_UTILS_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace sgq {

// A BFS spanning tree of a connected graph, as built by CFL for its CPI.
struct BfsTree {
  VertexId root = 0;
  // parent[v] == kInvalidVertex for the root.
  std::vector<VertexId> parent;
  // BFS level of each vertex; root is level 0.
  std::vector<uint32_t> level;
  // Vertices in BFS visit order (level by level).
  std::vector<VertexId> order;
  // Children of each vertex in the tree.
  std::vector<std::vector<VertexId>> children;

  uint32_t num_levels = 0;
};

// Builds the BFS tree rooted at `root`. The graph must be connected (all
// vertices reachable from root); unreachable vertices trigger a CHECK.
BfsTree BuildBfsTree(const Graph& graph, VertexId root);

// The same tree written into `*tree`, reusing its buffers (including each
// children list): no heap allocation once the tree has held a graph at
// least this large. CFL builds one per data graph that reaches its filter.
void BuildBfsTree(const Graph& graph, VertexId root, BfsTree* tree);

// True iff the graph is connected (the empty graph counts as connected).
bool IsConnected(const Graph& graph);

// Component id (0-based, dense) per vertex.
std::vector<uint32_t> ConnectedComponents(const Graph& graph);

// 2-core membership: in_core[v] is true iff v survives iterated removal of
// vertices with degree < 2. CFL prioritizes these vertices in its matching
// order ("core structure").
std::vector<bool> TwoCoreMembership(const Graph& graph);

// The same membership written into `*in_core`, with `*degree` and `*stack`
// as scratch; all three keep their capacity across calls, so a caller that
// recycles them runs allocation-free.
void TwoCoreMembership(const Graph& graph, std::vector<bool>* in_core,
                       std::vector<uint32_t>* degree,
                       std::vector<VertexId>* stack);

// True iff the graph has no cycle (i.e., is a forest). Used by the query-set
// statistics ("% of trees", Table V) and the CT-Index cycle enumerator.
bool IsAcyclic(const Graph& graph);

// True iff sorted multiset `needle` is contained in sorted multiset
// `haystack` (both ascending, with duplicates). This is GraphQL's
// neighborhood-profile check and the NLF filter in one primitive.
bool SortedMultisetContains(std::span<const Label> haystack,
                            std::span<const Label> needle);

}  // namespace sgq

#endif  // SGQ_GRAPH_GRAPH_UTILS_H_
