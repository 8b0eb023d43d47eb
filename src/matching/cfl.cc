#include "matching/cfl.h"

#include <algorithm>
#include <cmath>

#include "index/vertex_candidate_index.h"
#include "matching/workspace.h"
#include "util/logging.h"

namespace sgq {

size_t CpiData::MemoryBytes() const {
  size_t bytes = phi.MemoryBytes();
  bytes += tree.parent.capacity() * sizeof(VertexId) +
           tree.level.capacity() * sizeof(uint32_t) +
           tree.order.capacity() * sizeof(VertexId);
  for (const auto& per_parent : children) {
    bytes += per_parent.capacity() * sizeof(std::vector<uint32_t>);
    for (const auto& list : per_parent) {
      bytes += list.capacity() * sizeof(uint32_t);
    }
  }
  bytes += matching_order.capacity() * sizeof(VertexId);
  return bytes;
}

namespace {

// Vertex maps (see MatchWorkspace::reach_map): MapWords(|V(G)|) words, v in
// the set iff bit v % 64 of word v / 64 is set. Not util/bitset.h's Bitset:
// its Set/Test are out of line and bounds-checked per bit, and these run
// in the filter's innermost loops over ids already below |V(G)|.
size_t MapWords(uint32_t num_vertices) { return (num_vertices + 63) / 64; }
bool MapHas(const uint64_t* map, VertexId v) {
  return (map[v / 64] >> (v % 64) & 1) != 0;
}
void MapAdd(uint64_t* map, VertexId v) {
  map[v / 64] |= uint64_t{1} << (v % 64);
}

// Root selection: the (core, if any exists) query vertex minimizing
// |LDF candidates| / degree. `in_core` is the query's 2-core membership.
VertexId SelectRoot(const Graph& query, const Graph& data,
                    const std::vector<bool>& in_core) {
  const uint32_t n = query.NumVertices();
  if (n == 1) return 0;
  bool has_core = false;
  for (bool b : in_core) has_core |= b;

  const auto* index = data.candidate_index();
  VertexId best = kInvalidVertex;
  double best_score = 0;
  for (VertexId u = 0; u < n; ++u) {
    if (has_core && !in_core[u]) continue;
    uint32_t count = 0;
    if (index != nullptr) {
      // O(log bucket) exact LDF count from the degree-sorted index instead
      // of scanning the whole label bucket per query vertex.
      count = index->CountWithLabelDegree(query.label(u), query.degree(u));
    } else {
      for (VertexId v : data.VerticesWithLabel(query.label(u))) {
        if (data.degree(v) >= query.degree(u)) ++count;
      }
    }
    const double score =
        static_cast<double>(count) / static_cast<double>(query.degree(u));
    if (best == kInvalidVertex || score < best_score) {
      best = u;
      best_score = score;
    }
  }
  return best;
}

// Path-based matching order: starting from the root, repeatedly emit the
// available vertex (tree parent already emitted) with the best
// (core-membership, estimated path cardinality, |Φ|) priority. Guarantees
// parents precede children, which the CPI-driven enumeration requires.
// Writes into out->matching_order (recycled capacity). `in_core` is the
// query's 2-core membership.
void BuildMatchingOrder(const Graph& query, const std::vector<bool>& in_core,
                        CpiData* cpi) {
  const uint32_t n = query.NumVertices();

  // Estimated cardinality of the cheapest root-to-leaf path through each
  // vertex: est(u) = est(parent) * avg CPI fanout of the tree edge; leaves
  // propagate their est to ancestors via min.
  std::vector<double> down_est(n, 0);
  for (VertexId u : cpi->tree.order) {
    if (u == cpi->tree.root) {
      down_est[u] = static_cast<double>(cpi->phi.set(u).size());
      continue;
    }
    const VertexId p = cpi->tree.parent[u];
    uint64_t edge_count = 0;
    for (const auto& list : cpi->children[u]) edge_count += list.size();
    const double fanout =
        cpi->phi.set(p).empty()
            ? 1.0
            : static_cast<double>(edge_count) / cpi->phi.set(p).size();
    down_est[u] = down_est[p] * std::max(fanout, 1e-3);
  }
  std::vector<double> path_est = down_est;
  // Reverse BFS order: fold the cheapest descendant path into each vertex.
  for (auto it = cpi->tree.order.rbegin(); it != cpi->tree.order.rend();
       ++it) {
    const VertexId u = *it;
    for (VertexId c : cpi->tree.children[u]) {
      path_est[u] = std::min(path_est[u], path_est[c]);
    }
  }

  // Rank: core vertices first, then internal forest vertices, leaves last
  // ("postponing cartesian products").
  auto rank = [&](VertexId u) -> int {
    if (in_core[u]) return 0;
    return query.degree(u) <= 1 ? 2 : 1;
  };

  std::vector<VertexId>& order = cpi->matching_order;
  order.clear();
  order.reserve(n);
  std::vector<VertexId> available = {cpi->tree.root};
  while (!available.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < available.size(); ++i) {
      const VertexId a = available[i];
      const VertexId b = available[best];
      const int ra = rank(a), rb = rank(b);
      if (ra != rb) {
        if (ra < rb) best = i;
        continue;
      }
      if (path_est[a] != path_est[b]) {
        if (path_est[a] < path_est[b]) best = i;
        continue;
      }
      if (cpi->phi.set(a).size() < cpi->phi.set(b).size()) best = i;
    }
    const VertexId u = available[best];
    available.erase(available.begin() + static_cast<long>(best));
    order.push_back(u);
    for (VertexId c : cpi->tree.children[u]) available.push_back(c);
  }
  SGQ_CHECK_EQ(order.size(), n);
}

struct CflEnumContext {
  const Graph& query;
  const Graph& data;
  const CpiData& cpi;
  uint64_t limit;
  DeadlineChecker* checker;
  const EmbeddingCallback& callback;

  // Backward neighbors per depth, split into the tree parent (candidate
  // source) and the rest (adjacency checks). All borrowed from a workspace
  // (or a call-local one) so capacity survives across calls.
  std::vector<std::vector<VertexId>>& check_neighbors;
  std::vector<VertexId>& mapping;
  std::vector<uint32_t>& phi_index;  // index of mapping[u] in phi.set(u)
  // Epoch-stamped "already matched" marker (see MatchWorkspace): v is used
  // iff used_stamp[v] == epoch, so no per-call O(|V(G)|) clear.
  std::vector<uint32_t>& used_stamp;
  const uint32_t epoch;
  EnumerateResult result;

  bool TryVertex(uint32_t depth, VertexId u, uint32_t candidate_index) {
    const VertexId v = cpi.phi.set(u)[candidate_index];
    if (used_stamp[v] == epoch) return true;
    for (VertexId w : check_neighbors[depth]) {
      if (!data.HasEdge(mapping[w], v)) return true;
    }
    mapping[u] = v;
    phi_index[u] = candidate_index;
    used_stamp[v] = epoch;
    const bool keep_going = Recurse(depth + 1);
    used_stamp[v] = 0;
    mapping[u] = kInvalidVertex;
    return keep_going;
  }

  bool Recurse(uint32_t depth) {
    if (checker != nullptr && checker->Tick()) {
      result.aborted = true;
      return false;
    }
    ++result.recursion_calls;
    if (depth == cpi.matching_order.size()) {
      ++result.embeddings;
      if (callback && !callback(mapping)) {
        result.sink_stopped = true;
        return false;
      }
      return result.embeddings < limit;
    }
    const VertexId u = cpi.matching_order[depth];
    if (u == cpi.tree.root) {
      for (uint32_t i = 0; i < cpi.phi.set(u).size(); ++i) {
        if (!TryVertex(depth, u, i)) return false;
      }
    } else {
      const VertexId p = cpi.tree.parent[u];
      // Candidates adjacent (in the CPI) to the parent's current image.
      for (uint32_t i : cpi.children[u][phi_index[p]]) {
        if (!TryVertex(depth, u, i)) return false;
      }
    }
    return true;
  }
};

EnumerateResult CflEnumerate(const Graph& query, const Graph& data,
                             const CpiData& cpi, uint64_t limit,
                             DeadlineChecker* checker,
                             const EmbeddingCallback& callback,
                             MatchWorkspace& w) {
  const uint32_t n = query.NumVertices();
  SGQ_CHECK_EQ(cpi.matching_order.size(), n)
      << "CFL enumeration needs the full CPI, not FilterCandidateSets()";
  if (w.backward_neighbors.size() != n) w.backward_neighbors.resize(n);
  for (auto& l : w.backward_neighbors) l.clear();
  w.placed.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = cpi.matching_order[i];
    const VertexId parent =
        u == cpi.tree.root ? kInvalidVertex : cpi.tree.parent[u];
    for (VertexId v : query.Neighbors(u)) {
      // The tree parent's adjacency is implied by the CPI edge; check only
      // the other backward neighbors.
      if (w.placed[v] && v != parent) w.backward_neighbors[i].push_back(v);
    }
    w.placed[u] = 1;
  }
  w.mapping.assign(n, kInvalidVertex);
  w.phi_index.assign(n, UINT32_MAX);
  const uint32_t epoch = w.BeginUsedEpoch(data.NumVertices());

  CflEnumContext ctx{query,    data,      cpi,         limit, checker,
                     callback, w.backward_neighbors, w.mapping,
                     w.phi_index, w.used_stamp, epoch, {}};
  ctx.Recurse(0);
  return ctx.result;
}

}  // namespace

bool CflMatcher::FilterPhi(const Graph& query, const Graph& data,
                           MatchWorkspace* ws, CpiData* out) const {
  SGQ_CHECK_GT(query.NumVertices(), 0u);
  const uint32_t n = query.NumVertices();
  out->phi.ResetForReuse(n);
  if (data.NumVertices() == 0) return false;
  MatchWorkspace& w = *ws;

  TwoCoreMembership(query, &w.in_core, &w.core_degree, &w.query_vertices);
  const VertexId root = SelectRoot(query, data, w.in_core);
  BuildBfsTree(query, root, &out->tree);
  const BfsTree& tree = out->tree;

  // Position of each query vertex in BFS visit order; backward neighbors of
  // u are its query-graph neighbors visited before u.
  std::vector<uint32_t>& order_pos = w.order_pos;
  order_pos.resize(n);
  for (uint32_t i = 0; i < n; ++i) order_pos[tree.order[i]] = i;

  // --- Top-down generation with backward pruning ------------------------
  // A candidate v of u must be adjacent to some candidate of every backward
  // neighbor u'. On a data graph that fits in a word that is one AND of
  // reach words (the OR of adj_rows over Φ(u')), recorded once Φ(u') is
  // non-empty. Rows are built late, for each new candidate only: most
  // graphs of a sparse database fail at the root or soon after, and rows
  // of every vertex would be pure overhead for them. Larger graphs build
  // one reach map per query vertex instead: the first backward neighbor
  // sets the bit of every neighbor of its candidates, and each further
  // one keeps only the bits its own candidates reach. Either way the
  // reach test is one bit test.
  const bool words = FitsInWord(data);
  const uint64_t* rows = nullptr;
  uint64_t rows_built = 0;  // word path: candidates whose row is filled
  auto record_words = [&](VertexId u) {
    const auto& set = out->phi.set(u);
    const uint64_t bits = VertexWord(set);
    rows = w.BuildAdjacencyRows(data, bits & ~rows_built);
    rows_built |= bits;
    uint64_t reach = 0;
    for (VertexId v : set) reach |= rows[v];
    w.reach_bits[u] = reach;
    w.phi_bits[u] = bits;
  };
  const size_t map_words = words ? 0 : MapWords(data.NumVertices());
  if (w.reach_map.size() < map_words) {
    w.reach_map.resize(map_words);
    w.reach_next.resize(map_words);
  }
  uint64_t* reach_map = w.reach_map.data();
  uint64_t* reach_next = w.reach_next.data();
  std::vector<VertexId>& backward = w.query_vertices;
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = tree.order[i];
    auto& set = out->phi.mutable_set(u);
    if (u == root) {
      LdfNlfCandidatesInto(query, data, u, options_.use_nlf, &set);
      if (set.empty()) return false;
      if (words) {
        w.phi_bits.resize(n);
        w.reach_bits.resize(n);
        record_words(u);
      }
      continue;
    }
    backward.clear();
    for (VertexId v : query.Neighbors(u)) {
      if (order_pos[v] < i) backward.push_back(v);
    }
    SGQ_CHECK(!backward.empty());
    uint64_t reach = ~uint64_t{0};
    if (words) {
      for (VertexId uprime : backward) reach &= w.reach_bits[uprime];
    } else {
      for (size_t k = 0; k < backward.size(); ++k) {
        std::fill_n(reach_next, map_words, 0);
        for (VertexId vprime : out->phi.set(backward[k])) {
          for (VertexId v : data.Neighbors(vprime)) {
            if (k == 0 || MapHas(reach_map, v)) MapAdd(reach_next, v);
          }
        }
        std::swap(reach_map, reach_next);
      }
    }
    auto reached = [&](VertexId v) {
      return words ? (reach >> v & 1) != 0 : MapHas(reach_map, v);
    };
    if (const auto* index = data.candidate_index()) {
      // Indexed path: the degree slice + signature filter shrink the label
      // bucket, then the reach and exact NLF tests run before the index
      // sorts its survivors back into ascending id order, matching the
      // full-scan path bit for bit.
      const uint64_t sig =
          options_.use_nlf
              ? VertexCandidateIndex::SignatureOf(query.NeighborLabels(u))
              : 0;
      index->CollectCandidates(
          query.label(u), query.degree(u), sig, &set, [&](VertexId v) {
            return reached(v) &&
                   (!options_.use_nlf ||
                    SortedMultisetContains(data.NeighborLabels(v),
                                           query.NeighborLabels(u)));
          });
    } else {
      for (VertexId v : data.VerticesWithLabel(query.label(u))) {
        if (reached(v) &&
            PassesDegreeNlf(query, data, u, v, options_.use_nlf)) {
          set.push_back(v);
        }
      }
    }
    if (set.empty()) return false;
    if (words) record_words(u);
  }

  // --- Bottom-up refinement ---------------------------------------------
  if (options_.refine_bottom_up) {
    // Keep v in Φ(u) only if every forward neighbor u' has a candidate
    // adjacent to v, i.e. N(v) ∩ Φ(u') ≠ ∅: one AND against Φbits(u') on
    // the word path, else a walk of N(v) that stops at the first bit set
    // in the map of Φ(u'). Forward vertices are processed earlier in this
    // reverse sweep, so Φ(u') is final: in-place erasure (and refreshing
    // Φbits(u) after it) keeps the membership view exact, and the map of
    // Φ(u) is built once, after its own refinement, for every backward
    // neighbor that reads it.
    if (w.phi_maps.size() < n * map_words) w.phi_maps.resize(n * map_words);
    auto phi_map = [&](VertexId u) {
      return w.phi_maps.data() + static_cast<size_t>(u) * map_words;
    };
    auto adjacent_to = [&](VertexId v, VertexId uprime) {
      if (words) return (rows[v] & w.phi_bits[uprime]) != 0;
      const uint64_t* map = phi_map(uprime);
      for (VertexId x : data.Neighbors(v)) {
        if (MapHas(map, x)) return true;
      }
      return false;
    };
    std::vector<VertexId>& forward = w.query_vertices;
    for (uint32_t i = n; i-- > 0;) {
      const VertexId u = tree.order[i];
      forward.clear();
      for (VertexId v : query.Neighbors(u)) {
        if (order_pos[v] > i) forward.push_back(v);
      }
      auto& set = out->phi.mutable_set(u);
      if (!forward.empty()) {
        auto keep_end =
            std::remove_if(set.begin(), set.end(), [&](VertexId v) {
              for (VertexId uprime : forward) {
                if (!adjacent_to(v, uprime)) return true;
              }
              return false;
            });
        set.erase(keep_end, set.end());
        if (set.empty()) return false;
        if (words) w.phi_bits[u] = VertexWord(set);
      }
      if (!words && u != root) {
        uint64_t* map = phi_map(u);
        std::fill_n(map, map_words, 0);
        for (VertexId v : set) MapAdd(map, v);
      }
    }
  }
  return true;
}

void CflMatcher::FilterInto(const Graph& query, const Graph& data,
                            MatchWorkspace* ws, CpiData* out) const {
  if (!FilterPhi(query, data, ws, out)) return;
  const uint32_t n = query.NumVertices();
  const BfsTree& tree = out->tree;

  // --- CPI edges along tree edges ----------------------------------------
  // For each non-root u and each candidate of parent(u), record the indices
  // (into Φ(u)) of adjacent candidates. The nested lists are resized, not
  // reassigned, so a recycled CpiData keeps their heap buffers.
  if (out->children.size() != n) out->children.resize(n);
  // Grow-only, all UINT32_MAX between tree edges (see MatchWorkspace).
  std::vector<uint32_t>& index_of = ws->index_of;
  if (index_of.size() < data.NumVertices()) {
    index_of.resize(data.NumVertices(), UINT32_MAX);
  }
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = tree.order[i];
    auto& per_parent = out->children[u];
    if (u == tree.root) {
      per_parent.clear();
      continue;
    }
    const VertexId p = tree.parent[u];
    const auto& pu_set = out->phi.set(p);
    const auto& u_set = out->phi.set(u);
    for (uint32_t j = 0; j < u_set.size(); ++j) index_of[u_set[j]] = j;
    per_parent.resize(pu_set.size());
    for (uint32_t pj = 0; pj < pu_set.size(); ++pj) {
      per_parent[pj].clear();
      for (VertexId v : data.Neighbors(pu_set[pj])) {
        if (index_of[v] != UINT32_MAX) per_parent[pj].push_back(index_of[v]);
      }
    }
    for (uint32_t j = 0; j < u_set.size(); ++j) index_of[u_set[j]] = UINT32_MAX;
  }

  BuildMatchingOrder(query, ws->in_core, out);
}

std::unique_ptr<FilterData> CflMatcher::Filter(const Graph& query,
                                               const Graph& data) const {
  auto out = std::make_unique<CpiData>();
  MatchWorkspace local;
  FilterInto(query, data, &local, out.get());
  return out;
}

FilterData* CflMatcher::Filter(const Graph& query, const Graph& data,
                               MatchWorkspace* ws) const {
  SGQ_CHECK(ws != nullptr);
  CpiData* out = ws->AcquireFilterData<CpiData>();
  FilterInto(query, data, ws, out);
  return out;
}

std::unique_ptr<FilterData> CflMatcher::FilterCandidateSets(
    const Graph& query, const Graph& data) const {
  auto out = std::make_unique<CpiData>();
  MatchWorkspace local;
  FilterPhi(query, data, &local, out.get());
  return out;
}

FilterData* CflMatcher::FilterCandidateSets(const Graph& query,
                                            const Graph& data,
                                            MatchWorkspace* ws) const {
  SGQ_CHECK(ws != nullptr);
  CpiData* out = ws->AcquireFilterData<CpiData>();
  // A CpiData this workspace recycled from a full Filter() would otherwise
  // keep that graph's CPI edges and order.
  out->children.clear();
  out->matching_order.clear();
  FilterPhi(query, data, ws, out);
  return out;
}

EnumerateResult CflMatcher::Enumerate(const Graph& query, const Graph& data,
                                      const FilterData& data_aux,
                                      uint64_t limit, DeadlineChecker* checker,
                                      const EmbeddingCallback& callback) const {
  const auto* cpi = dynamic_cast<const CpiData*>(&data_aux);
  SGQ_CHECK(cpi != nullptr) << "CflMatcher::Enumerate requires CpiData";
  if (!cpi->Passed() || limit == 0) return {};
  MatchWorkspace local;
  return CflEnumerate(query, data, *cpi, limit, checker, callback, local);
}

EnumerateResult CflMatcher::Enumerate(const Graph& query, const Graph& data,
                                      const FilterData& data_aux,
                                      uint64_t limit, DeadlineChecker* checker,
                                      MatchWorkspace* ws,
                                      const EmbeddingCallback& callback) const {
  const auto* cpi = dynamic_cast<const CpiData*>(&data_aux);
  SGQ_CHECK(cpi != nullptr) << "CflMatcher::Enumerate requires CpiData";
  SGQ_CHECK(ws != nullptr);
  if (!cpi->Passed() || limit == 0) return {};
  return CflEnumerate(query, data, *cpi, limit, checker, callback, *ws);
}

}  // namespace sgq
