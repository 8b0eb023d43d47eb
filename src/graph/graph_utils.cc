#include "graph/graph_utils.h"

#include <algorithm>

#include "util/logging.h"

namespace sgq {

BfsTree BuildBfsTree(const Graph& graph, VertexId root) {
  BfsTree tree;
  BuildBfsTree(graph, root, &tree);
  return tree;
}

void BuildBfsTree(const Graph& graph, VertexId root, BfsTree* tree) {
  const uint32_t n = graph.NumVertices();
  SGQ_CHECK_LT(root, n);
  tree->root = root;
  tree->parent.assign(n, kInvalidVertex);
  // UINT32_MAX marks "not yet visited" until BFS assigns the real level.
  tree->level.assign(n, UINT32_MAX);
  // resize keeps the surviving lists' buffers; clear keeps their capacity.
  tree->children.resize(n);
  for (auto& list : tree->children) list.clear();

  // The visit order doubles as the BFS queue: order[head] is dequeued.
  std::vector<VertexId>& order = tree->order;
  order.clear();
  order.reserve(n);
  order.push_back(root);
  tree->level[root] = 0;
  for (size_t head = 0; head < order.size(); ++head) {
    const VertexId u = order[head];
    for (VertexId w : graph.Neighbors(u)) {
      if (tree->level[w] == UINT32_MAX) {
        tree->level[w] = tree->level[u] + 1;
        tree->parent[w] = u;
        tree->children[u].push_back(w);
        order.push_back(w);
      }
    }
  }
  SGQ_CHECK_EQ(order.size(), n) << "BuildBfsTree requires connectivity";
  tree->num_levels = n == 0 ? 0 : tree->level[order.back()] + 1;
}

bool IsConnected(const Graph& graph) {
  const uint32_t n = graph.NumVertices();
  if (n == 0) return true;
  std::vector<bool> visited(n, false);
  std::vector<VertexId> stack = {0};
  visited[0] = true;
  uint32_t seen = 1;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (VertexId w : graph.Neighbors(u)) {
      if (!visited[w]) {
        visited[w] = true;
        ++seen;
        stack.push_back(w);
      }
    }
  }
  return seen == n;
}

std::vector<uint32_t> ConnectedComponents(const Graph& graph) {
  const uint32_t n = graph.NumVertices();
  std::vector<uint32_t> component(n, UINT32_MAX);
  uint32_t next = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (component[s] != UINT32_MAX) continue;
    component[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (VertexId w : graph.Neighbors(u)) {
        if (component[w] == UINT32_MAX) {
          component[w] = next;
          stack.push_back(w);
        }
      }
    }
    ++next;
  }
  return component;
}

std::vector<bool> TwoCoreMembership(const Graph& graph) {
  std::vector<bool> in_core;
  std::vector<uint32_t> degree;
  std::vector<VertexId> stack;
  TwoCoreMembership(graph, &in_core, &degree, &stack);
  return in_core;
}

void TwoCoreMembership(const Graph& graph, std::vector<bool>* in_core,
                       std::vector<uint32_t>* degree,
                       std::vector<VertexId>* stack) {
  const uint32_t n = graph.NumVertices();
  degree->resize(n);
  stack->clear();
  for (VertexId v = 0; v < n; ++v) {
    (*degree)[v] = graph.degree(v);
    if ((*degree)[v] < 2) stack->push_back(v);
  }
  // Peeling clears a vertex's membership; whatever is left is the 2-core.
  in_core->assign(n, true);
  while (!stack->empty()) {
    const VertexId v = stack->back();
    stack->pop_back();
    if (!(*in_core)[v]) continue;
    (*in_core)[v] = false;
    for (VertexId w : graph.Neighbors(v)) {
      if ((*in_core)[w] && (*degree)[w]-- == 2) stack->push_back(w);
    }
  }
}

bool IsAcyclic(const Graph& graph) {
  // A forest has exactly |V| - #components edges.
  const auto component = ConnectedComponents(graph);
  uint32_t num_components = 0;
  for (uint32_t c : component) {
    num_components = std::max(num_components, c + 1);
  }
  return graph.NumEdges() + num_components == graph.NumVertices();
}

bool SortedMultisetContains(std::span<const Label> haystack,
                            std::span<const Label> needle) {
  if (needle.size() > haystack.size()) return false;
  size_t i = 0;
  for (Label x : needle) {
    // Advance in haystack until >= x.
    while (i < haystack.size() && haystack[i] < x) ++i;
    if (i == haystack.size() || haystack[i] != x) return false;
    ++i;
  }
  return true;
}

}  // namespace sgq
