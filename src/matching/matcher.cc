#include "matching/matcher.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "matching/workspace.h"
#include "util/intersect.h"
#include "util/logging.h"

namespace sgq {

FilterData* Matcher::Filter(const Graph& query, const Graph& data,
                            MatchWorkspace* ws) const {
  SGQ_CHECK(ws != nullptr);
  return ws->ParkFilterData(Filter(query, data));
}

EnumerateResult Matcher::Enumerate(const Graph& query, const Graph& data,
                                   const FilterData& data_aux, uint64_t limit,
                                   DeadlineChecker* checker, MatchWorkspace* ws,
                                   const EmbeddingCallback& callback) const {
  (void)ws;
  return Enumerate(query, data, data_aux, limit, checker, callback);
}

int Matcher::Contains(const Graph& query, const Graph& data,
                      DeadlineChecker* checker) const {
  const auto filter_data = Filter(query, data);
  if (!filter_data->Passed()) return 0;
  const EnumerateResult result =
      Enumerate(query, data, *filter_data, /*limit=*/1, checker);
  if (result.aborted) return -1;
  return result.embeddings > 0 ? 1 : 0;
}

int Matcher::Contains(const Graph& query, const Graph& data,
                      DeadlineChecker* checker, MatchWorkspace* ws) const {
  const FilterData* filter_data = Filter(query, data, ws);
  if (!filter_data->Passed()) return 0;
  const EnumerateResult result =
      Enumerate(query, data, *filter_data, /*limit=*/1, checker, ws);
  if (result.aborted) return -1;
  return result.embeddings > 0 ? 1 : 0;
}

namespace {

// Φ(u) sizes at or below which the list kernel keeps the probe scan: the
// whole candidate list is scanned for less than the cost of one
// adjacency-list walk, so setting up intersections cannot pay off.
constexpr size_t kProbeFallbackSize = 8;

// Recursive backtracking; query sizes are tiny (tens of vertices) so
// recursion depth is not a concern. All vectors are borrowed from a
// MatchWorkspace (or a call-local one) so repeated calls reuse their
// capacity.
//
// kWords selects the extension kernel (see BacktrackOverCandidates):
//   * word kernel (data graph fits in a word): the frontier of query vertex
//     u is Φbits(u) & ~used & adj_rows[M(u')] over every mapped backward
//     neighbor u', walked lowest bit first; `used` is one word.
//   * list kernel: the mapped backward neighbors' adjacency lists are
//     intersected smallest-first with the adaptive kernels of
//     util/intersect.h, short-circuiting on empty, and the result is
//     filtered through a lazily built, epoch-stamped Φ(u) membership row —
//     unless Φ(u) itself is the smallest operand, in which case it joins
//     the list intersection directly and the row is never built. Tiny Φ(u)
//     is scanned with HasEdge probes instead.
// Every kernel produces candidates in ascending vertex order, so they all
// visit the same search tree.
template <bool kWords>
struct BacktrackContext {
  const Graph& query;
  const Graph& data;
  const CandidateSets& phi;
  const std::vector<VertexId>& order;
  // For each depth i, the already-ordered neighbors of order[i].
  std::vector<std::vector<VertexId>>& backward_neighbors;
  uint64_t limit;
  DeadlineChecker* checker;
  const EmbeddingCallback& callback;
  MatchWorkspace& w;
  const uint32_t epoch;  // list kernel: current used/Φ-membership epoch
  // Depth-0 candidate subrange (a steal task's share of phi.set(order[0]);
  // the whole set for a serial call) and the task's cooperative stop flag.
  const VertexId* roots_begin;
  const VertexId* roots_end;
  const std::atomic<bool>* stop;

  std::vector<VertexId>& mapping;  // query vertex -> data vertex
  uint64_t used = 0;               // word kernel: matched data vertices
  EnumerateResult result;
  IntersectCounters counters;

  bool IsUsed(VertexId v) const {
    if constexpr (kWords) {
      return (used >> v & 1) != 0;
    } else {
      return w.used_stamp[v] == epoch;
    }
  }

  // Maps u -> v, recurses, and undoes the mapping. Returns false when the
  // search should stop entirely.
  bool Descend(uint32_t depth, VertexId u, VertexId v) {
    mapping[u] = v;
    if constexpr (kWords) {
      used |= uint64_t{1} << v;
    } else {
      w.used_stamp[v] = epoch;
    }
    const bool keep_going = Recurse(depth + 1);
    if constexpr (kWords) {
      used &= ~(uint64_t{1} << v);
    } else {
      w.used_stamp[v] = 0;
    }
    mapping[u] = kInvalidVertex;
    return keep_going;
  }

  bool TryCandidate(uint32_t depth, VertexId u, VertexId v) {
    return IsUsed(v) || Descend(depth, u, v);
  }

  // Word kernel: one AND per mapped backward neighbor.
  bool ExtendByWords(uint32_t depth, VertexId u) {
    uint64_t frontier = w.phi_bits[u] & ~used;
    for (VertexId prev_u : backward_neighbors[depth]) {
      frontier &= w.adj_rows[mapping[prev_u]];
    }
    result.local_candidates += std::popcount(frontier);
    for (; frontier != 0; frontier &= frontier - 1) {
      const auto v = static_cast<VertexId>(std::countr_zero(frontier));
      if (!Descend(depth, u, v)) return false;
    }
    return true;
  }

  // List kernel, small Φ(u): scan all of Φ(u), probing HasEdge per backward
  // neighbor per candidate.
  bool ExtendByProbe(uint32_t depth, VertexId u) {
    for (VertexId v : phi.set(u)) {
      if (IsUsed(v)) continue;
      bool ok = true;
      for (VertexId prev_u : backward_neighbors[depth]) {
        if (!data.HasEdge(mapping[prev_u], v)) {
          ok = false;
          break;
        }
      }
      if (ok && !Descend(depth, u, v)) return false;
    }
    return true;
  }

  // Lazily builds (once per depth per call) the Φ(order[depth]) membership
  // row: row[v] == epoch iff v ∈ Φ(order[depth]).
  const std::vector<uint32_t>& PhiRow(uint32_t depth, VertexId u) {
    std::vector<uint32_t>& row = w.phi_stamp[depth];
    if (w.phi_stamp_epoch[depth] != epoch) {
      if (row.size() < data.NumVertices()) row.resize(data.NumVertices(), 0);
      for (VertexId v : phi.set(u)) row[v] = epoch;
      w.phi_stamp_epoch[depth] = epoch;
    }
    return row;
  }

  // List kernel: intersection-based extension; requires at least one
  // backward neighbor.
  bool ExtendByIntersect(uint32_t depth, VertexId u) {
    const std::vector<VertexId>& phi_u = phi.set(u);
    const std::vector<VertexId>& bn = backward_neighbors[depth];

    if (bn.size() == 1) {
      const VertexId anchor = mapping[bn[0]];
      const auto nbrs = data.Neighbors(anchor);
      if (phi_u.size() <= nbrs.size()) {
        // Φ(u) is the smaller operand: one adaptive list intersection.
        std::vector<VertexId>& buf = w.local_a[depth];
        IntersectInto(phi_u, nbrs, &buf, &counters);
        result.local_candidates += buf.size();
        for (VertexId v : buf) {
          if (!TryCandidate(depth, u, v)) return false;
        }
      } else {
        // Φ(u) is the denser operand: stream the adjacency list through the
        // Φ membership row, no materialization at all. (The adjacency span
        // points into graph storage, so it is stable across the recursion.)
        const std::vector<uint32_t>& row = PhiRow(depth, u);
        for (VertexId v : nbrs) {
          if (row[v] != epoch) continue;
          ++result.local_candidates;
          if (!TryCandidate(depth, u, v)) return false;
        }
      }
      return true;
    }

    // Two or more backward neighbors: order their adjacency lists by size.
    // w.adj_by_size is shared across depths; it is fully consumed before
    // any recursion, so that is safe.
    auto& by_size = w.adj_by_size;
    by_size.clear();
    for (VertexId prev_u : bn) {
      const VertexId v = mapping[prev_u];
      by_size.emplace_back(data.degree(v), v);
    }
    std::sort(by_size.begin(), by_size.end());
    if (by_size.front().first == 0) return true;  // empty operand

    std::vector<VertexId>& buf_a = w.local_a[depth];
    std::vector<VertexId>& buf_b = w.local_b[depth];
    const bool phi_joins = phi_u.size() <= by_size.front().first;
    // Seed: Φ(u) vs the smallest adjacency list when Φ is smallest, else
    // the two smallest adjacency lists.
    if (phi_joins) {
      IntersectInto(phi_u, data.Neighbors(by_size[0].second), &buf_a,
                    &counters);
    } else {
      IntersectInto(data.Neighbors(by_size[0].second),
                    data.Neighbors(by_size[1].second), &buf_a, &counters);
    }
    std::vector<VertexId>* current = &buf_a;
    std::vector<VertexId>* scratch = &buf_b;
    for (size_t i = phi_joins ? 1 : 2; i < by_size.size(); ++i) {
      if (current->empty()) return true;  // short-circuit: no extension
      IntersectInto(*current, data.Neighbors(by_size[i].second), scratch,
                    &counters);
      std::swap(current, scratch);
    }
    if (current->empty()) return true;

    if (phi_joins) {
      result.local_candidates += current->size();
      for (VertexId v : *current) {
        if (!TryCandidate(depth, u, v)) return false;
      }
    } else {
      const std::vector<uint32_t>& row = PhiRow(depth, u);
      for (VertexId v : *current) {
        if (row[v] != epoch) continue;
        ++result.local_candidates;
        if (!TryCandidate(depth, u, v)) return false;
      }
    }
    return true;
  }

  // Depth-0 extension over the task's root range: with no backward
  // neighbors every kernel degenerates to the injectivity check.
  bool ExtendRoots() {
    for (const VertexId* p = roots_begin; p != roots_end; ++p) {
      if (!TryCandidate(0, order[0], *p)) return false;
    }
    return true;
  }

  bool Recurse(uint32_t depth) {
    if (checker != nullptr && checker->Tick()) {
      result.aborted = true;
      return false;
    }
    ++result.recursion_calls;
    // Steal-safe cancellation: another executor satisfied the global limit
    // (or aborted the job); unwind without finishing this subtree.
    if (stop != nullptr &&
        result.recursion_calls % BacktrackTask::kStopCheckInterval == 0 &&
        stop->load(std::memory_order_relaxed)) {
      result.cancelled = true;
      return false;
    }
    if (depth == order.size()) {
      ++result.embeddings;
      if (callback && !callback(mapping)) {
        result.sink_stopped = true;
        return false;
      }
      return result.embeddings < limit;
    }
    if (depth == 0) return ExtendRoots();
    const VertexId u = order[depth];
    if constexpr (kWords) {
      return ExtendByWords(depth, u);
    } else {
      if (backward_neighbors[depth].empty() ||
          phi.set(u).size() <= kProbeFallbackSize) {
        return ExtendByProbe(depth, u);
      }
      return ExtendByIntersect(depth, u);
    }
  }
};

template <bool kWords>
EnumerateResult RunBacktrack(const Graph& query, const Graph& data,
                             const CandidateSets& phi,
                             const std::vector<VertexId>& order,
                             uint64_t limit, DeadlineChecker* checker,
                             const EmbeddingCallback& callback,
                             MatchWorkspace& w, uint32_t epoch,
                             const BacktrackTask& task) {
  const std::vector<VertexId>& roots = phi.set(order[0]);
  const uint32_t root_begin =
      std::min<uint32_t>(task.root_begin,
                         static_cast<uint32_t>(roots.size()));
  const uint32_t root_end = std::max(
      root_begin, std::min<uint32_t>(task.root_end,
                                     static_cast<uint32_t>(roots.size())));

  BacktrackContext<kWords> ctx{query,    data,    phi,      order,
                               w.backward_neighbors,
                               limit,    checker, callback, w,
                               epoch,
                               roots.data() + root_begin,
                               roots.data() + root_end,
                               task.stop,
                               w.mapping, /*used=*/0, {}, {}};
  ctx.Recurse(0);
  ctx.result.intersect_calls = ctx.counters.calls;
  ctx.result.intersect_merge = ctx.counters.merge_calls;
  ctx.result.intersect_gallop = ctx.counters.gallop_calls;
  ctx.result.intersect_simd = ctx.counters.simd_calls;
  return ctx.result;
}

// Resizes the per-depth neighbor lists without freeing inner capacity.
void ResetBackwardNeighbors(std::vector<std::vector<VertexId>>* lists,
                            size_t depths) {
  if (lists->size() != depths) lists->resize(depths);
  for (auto& l : *lists) l.clear();
}

// Grows per-depth scratch pools without freeing inner capacity.
void EnsureDepthScratch(MatchWorkspace* w, size_t depths) {
  if (w->phi_stamp.size() < depths) w->phi_stamp.resize(depths);
  if (w->phi_stamp_epoch.size() < depths) {
    w->phi_stamp_epoch.resize(depths, 0);
  }
  if (w->local_a.size() < depths) w->local_a.resize(depths);
  if (w->local_b.size() < depths) w->local_b.resize(depths);
}

}  // namespace

EnumerateResult BacktrackOverCandidates(const Graph& query, const Graph& data,
                                        const CandidateSets& phi,
                                        const std::vector<VertexId>& order,
                                        uint64_t limit,
                                        DeadlineChecker* checker,
                                        const EmbeddingCallback& callback,
                                        MatchWorkspace* ws,
                                        const BacktrackTask& task) {
  SGQ_CHECK_EQ(order.size(), query.NumVertices());
  if (limit == 0) return {};
  MatchWorkspace local;
  MatchWorkspace& w = ws != nullptr ? *ws : local;

  ResetBackwardNeighbors(&w.backward_neighbors, order.size());
  w.placed.assign(query.NumVertices(), 0);
  for (uint32_t i = 0; i < order.size(); ++i) {
    const VertexId u = order[i];
    for (VertexId v : query.Neighbors(u)) {
      if (w.placed[v]) w.backward_neighbors[i].push_back(v);
    }
    w.placed[u] = 1;
  }
  w.mapping.assign(query.NumVertices(), kInvalidVertex);

  if (FitsInWord(data)) {
    // Only candidates are ever mapped, so only their rows are read.
    w.phi_bits.resize(query.NumVertices());
    uint64_t candidates = 0;
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      w.phi_bits[u] = VertexWord(phi.set(u));
      candidates |= w.phi_bits[u];
    }
    w.BuildAdjacencyRows(data, candidates);
    return RunBacktrack<true>(query, data, phi, order, limit, checker,
                              callback, w, /*epoch=*/0, task);
  }
  EnsureDepthScratch(&w, order.size());
  const uint32_t epoch = w.BeginUsedEpoch(data.NumVertices());
  return RunBacktrack<false>(query, data, phi, order, limit, checker,
                             callback, w, epoch, task);
}

namespace {

void JoinBasedOrderInto(const Graph& query, const CandidateSets& phi,
                        std::vector<VertexId>* order,
                        std::vector<char>* selected) {
  const uint32_t n = query.NumVertices();
  SGQ_CHECK_GT(n, 0u);
  order->clear();
  order->reserve(n);
  selected->assign(n, 0);

  // Start vertex: globally fewest candidates (ties -> smaller id).
  VertexId start = 0;
  for (VertexId u = 1; u < n; ++u) {
    if (phi.set(u).size() < phi.set(start).size()) start = u;
  }
  order->push_back(start);
  (*selected)[start] = 1;

  for (uint32_t step = 1; step < n; ++step) {
    VertexId best = kInvalidVertex;
    for (VertexId u = 0; u < n; ++u) {
      if ((*selected)[u]) continue;
      // u must neighbor a selected vertex (query is connected, so one
      // always exists among unselected-with-selected-neighbor vertices).
      bool frontier = false;
      for (VertexId w : query.Neighbors(u)) {
        if ((*selected)[w]) {
          frontier = true;
          break;
        }
      }
      if (!frontier) continue;
      if (best == kInvalidVertex ||
          phi.set(u).size() < phi.set(best).size()) {
        best = u;
      }
    }
    SGQ_CHECK_NE(best, kInvalidVertex) << "query must be connected";
    order->push_back(best);
    (*selected)[best] = 1;
  }
}

}  // namespace

std::vector<VertexId> JoinBasedOrder(const Graph& query,
                                     const CandidateSets& phi) {
  std::vector<VertexId> order;
  std::vector<char> selected;
  JoinBasedOrderInto(query, phi, &order, &selected);
  return order;
}

const std::vector<VertexId>& JoinBasedOrder(const Graph& query,
                                            const CandidateSets& phi,
                                            MatchWorkspace* ws) {
  SGQ_CHECK(ws != nullptr);
  JoinBasedOrderInto(query, phi, &ws->order, &ws->placed);
  return ws->order;
}

}  // namespace sgq
