// Maximum bipartite matching, used by GraphQL's pseudo subgraph isomorphism
// refinement: a candidate v survives for query vertex u only if the bigraph
// B between N(u) and N(v) (edge (u', v') iff v' ∈ Φ(u')) admits a
// semi-perfect matching — every vertex of N(u) is matched.
//
// Following the paper's implementation note, this is the breadth-first
// search based augmenting-path algorithm from Duff, Kaya and Uçar [8].
#ifndef SGQ_MATCHING_BIGRAPH_MATCHING_H_
#define SGQ_MATCHING_BIGRAPH_MATCHING_H_

#include <cstdint>
#include <vector>

namespace sgq {

// Adjacency of the bipartite graph: adj[l] lists right-side vertex indices
// reachable from left vertex l. Right-side indices must be < num_right.
using BigraphAdjacency = std::vector<std::vector<uint32_t>>;

// Size of a maximum matching of the bipartite graph.
uint32_t MaxBipartiteMatching(const BigraphAdjacency& adj, uint32_t num_right);

// True iff a matching exists that covers every left vertex
// (a "semi-perfect matching" in the paper's terms).
bool HasSemiPerfectMatching(const BigraphAdjacency& adj, uint32_t num_right);

}  // namespace sgq

#endif  // SGQ_MATCHING_BIGRAPH_MATCHING_H_
