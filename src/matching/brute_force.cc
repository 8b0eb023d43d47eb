#include "matching/brute_force.h"

#include "graph/graph_utils.h"
#include "util/logging.h"

namespace sgq {

namespace {

// The oracle's own search, sharing no code with the matchers it checks:
// query vertices in BFS order from vertex 0, each tried against its label
// bucket in ascending order, keeping a candidate iff it is unused and
// adjacent (HasEdge) to the image of every already-mapped query neighbor.
struct BruteForceSearch {
  const Graph& query;
  const Graph& data;
  const std::vector<VertexId>& order;
  uint64_t limit;
  const EmbeddingCallback& callback;
  std::vector<VertexId> mapping;
  std::vector<char> used;
  uint64_t found = 0;

  // Returns false once the search should stop.
  bool Extend(size_t depth) {
    if (depth == order.size()) {
      ++found;
      if (callback && !callback(mapping)) return false;
      return found < limit;
    }
    const VertexId u = order[depth];
    for (VertexId v : data.VerticesWithLabel(query.label(u))) {
      if (used[v] || !AdjacentToMappedNeighbors(u, v)) continue;
      mapping[u] = v;
      used[v] = 1;
      const bool keep_going = Extend(depth + 1);
      used[v] = 0;
      mapping[u] = kInvalidVertex;
      if (!keep_going) return false;
    }
    return true;
  }

  bool AdjacentToMappedNeighbors(VertexId u, VertexId v) const {
    for (VertexId w : query.Neighbors(u)) {
      if (mapping[w] != kInvalidVertex && !data.HasEdge(mapping[w], v)) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

uint64_t BruteForceEnumerate(const Graph& query, const Graph& data,
                             uint64_t limit,
                             const EmbeddingCallback& callback) {
  SGQ_CHECK_GT(query.NumVertices(), 0u);
  if (data.NumVertices() == 0 || limit == 0) return 0;
  const BfsTree tree = BuildBfsTree(query, 0);
  SGQ_CHECK_EQ(tree.order.size(), query.NumVertices())
      << "query must be connected";
  BruteForceSearch search{query,
                          data,
                          tree.order,
                          limit,
                          callback,
                          std::vector<VertexId>(query.NumVertices(),
                                                kInvalidVertex),
                          std::vector<char>(data.NumVertices(), 0)};
  search.Extend(0);
  return search.found;
}

bool BruteForceContains(const Graph& query, const Graph& data) {
  return BruteForceEnumerate(query, data, /*limit=*/1) > 0;
}

std::vector<std::vector<VertexId>> BruteForceAllEmbeddings(
    const Graph& query, const Graph& data) {
  std::vector<std::vector<VertexId>> embeddings;
  BruteForceEnumerate(query, data, UINT64_MAX,
                      [&](const std::vector<VertexId>& mapping) {
                        embeddings.push_back(mapping);
                        return true;
                      });
  return embeddings;
}

}  // namespace sgq
