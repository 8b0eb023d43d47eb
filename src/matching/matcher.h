// The common interface of preprocessing-enumeration subgraph matching
// algorithms (Section II-B2), split exactly the way the paper's vcFV
// framework needs it (Algorithm 2):
//   Filter()    — the preprocessing phase: build candidate vertex sets Φ
//                 (plus any algorithm-specific auxiliary structure, e.g.
//                 CFL's CPI);
//   Enumerate() — the enumeration phase: backtracking search; with
//                 limit == 1 this is the paper's Verify().
#ifndef SGQ_MATCHING_MATCHER_H_
#define SGQ_MATCHING_MATCHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "matching/candidate_space.h"
#include "util/deadline.h"

namespace sgq {

class MatchWorkspace;

// Called for every embedding found: mapping[u] is the data vertex matched to
// query vertex u. Returns whether to keep enumerating: false unwinds the
// search immediately (result.sink_stopped set) — the hook result sinks use
// to stop the matcher itself once a downstream LIMIT is satisfied, instead
// of truncating a fully-materialized batch afterwards.
using EmbeddingCallback = std::function<bool(const std::vector<VertexId>&)>;

// Result of the preprocessing phase. Concrete matchers subclass this to
// attach auxiliary structures (CFL's CPI); the candidate sets are always
// exposed for metrics and property tests.
struct FilterData {
  virtual ~FilterData() = default;

  CandidateSets phi;

  // True iff all Φ(u) are non-empty; a false value filters the data graph
  // out without verification (Proposition III.1).
  bool Passed() const { return phi.AllNonEmpty(); }

  // Footprint of the auxiliary structures (paper's memory-cost metric).
  virtual size_t MemoryBytes() const { return phi.MemoryBytes(); }
};

// Counters reported by one Enumerate() call. The intersect_* fields account
// the adaptive set-intersection kernels of the local-candidate extension
// step (util/intersect.h): calls = adaptive dispatches, and the
// merge/gallop/simd split records which kernel each dispatch resolved to.
// The word kernel of data graphs with <= 64 vertices intersects no lists,
// so they stay 0 there. local_candidates sums the per-search-node extension
// frontiers: the intersections' outputs on the list kernel, the unused
// candidate bits on the word kernel.
struct EnumerateResult {
  uint64_t embeddings = 0;       // found (up to the limit)
  uint64_t recursion_calls = 0;  // search-tree nodes visited
  bool aborted = false;          // deadline expired mid-search
  bool cancelled = false;        // a BacktrackTask stop flag ended the search
  bool sink_stopped = false;     // the embedding callback returned false
  uint64_t intersect_calls = 0;
  uint64_t intersect_merge = 0;
  uint64_t intersect_gallop = 0;
  uint64_t intersect_simd = 0;
  uint64_t local_candidates = 0;

  void AddCounters(const EnumerateResult& other) {
    recursion_calls += other.recursion_calls;
    intersect_calls += other.intersect_calls;
    intersect_merge += other.intersect_merge;
    intersect_gallop += other.intersect_gallop;
    intersect_simd += other.intersect_simd;
    local_candidates += other.local_candidates;
  }
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  virtual const char* name() const = 0;

  // Preprocessing phase. The query must be connected and non-empty.
  virtual std::unique_ptr<FilterData> Filter(const Graph& query,
                                             const Graph& data) const = 0;

  // Workspace variant of the preprocessing phase: the FilterData is owned by
  // `ws` (valid until the next Filter() on the same workspace) and its
  // buffers are recycled across calls, so a thread scanning many data graphs
  // pays the candidate-set allocations once. The base implementation falls
  // back to the allocating Filter() and parks the result in the workspace;
  // GraphQL/CFL/CFQL override it with true reuse.
  virtual FilterData* Filter(const Graph& query, const Graph& data,
                             MatchWorkspace* ws) const;

  // Enumeration phase over a FilterData produced by this matcher's Filter()
  // (CFQL is the deliberate exception: it enumerates over CFL's output).
  // Stops after `limit` embeddings or when the deadline expires.
  virtual EnumerateResult Enumerate(const Graph& query, const Graph& data,
                                    const FilterData& data_aux, uint64_t limit,
                                    DeadlineChecker* checker,
                                    const EmbeddingCallback& callback =
                                        nullptr) const = 0;

  // Workspace variant of the enumeration phase: visited/mapping/order
  // scratch comes from `ws` instead of per-call allocations. The base
  // implementation ignores the workspace.
  virtual EnumerateResult Enumerate(const Graph& query, const Graph& data,
                                    const FilterData& data_aux, uint64_t limit,
                                    DeadlineChecker* checker,
                                    MatchWorkspace* ws,
                                    const EmbeddingCallback& callback =
                                        nullptr) const;

  // The subgraph isomorphism test: filter + first-match enumeration.
  // Returns 1 if q ⊆ g, 0 if not, -1 on deadline expiry. The workspace
  // overload reuses `ws` for both phases.
  int Contains(const Graph& query, const Graph& data,
               DeadlineChecker* checker) const;
  int Contains(const Graph& query, const Graph& data, DeadlineChecker* checker,
               MatchWorkspace* ws) const;
};

// One steal-able unit of the intra-query parallel search: the subtree(s) of
// the backtracking rooted at a contiguous range of first-level candidates
// (indices into phi.set(order[0])), plus a cooperative stop flag. The stop
// flag is polled at kStopCheckInterval-recursion-call granularity; when it
// fires the search unwinds immediately with result.cancelled set (partial
// counters, embeddings found so far kept). Used by the work-stealing
// scheduler in matching/parallel_backtrack.h; the default task is the whole
// serial search.
struct BacktrackTask {
  uint32_t root_begin = 0;
  uint32_t root_end = UINT32_MAX;  // clamped to |phi.set(order[0])|
  const std::atomic<bool>* stop = nullptr;

  // Recursion calls between stop-flag polls: coarse enough that the load is
  // invisible in the hot loop, fine enough that cancellation latency stays
  // in the microseconds.
  static constexpr uint64_t kStopCheckInterval = 256;
};

// Generic connectivity-aware backtracking over candidate sets: at depth i
// the query vertex order[i] is matched against its candidates, checking
// injectivity and all edges to already-matched query vertices. This is the
// enumeration procedure of GraphQL (and of CFQL); CFL uses its own CPI-aware
// variant.
//
// `order` must start at an arbitrary vertex and keep the prefix connected
// (every later vertex has an earlier neighbor).
//
// The extension kernel follows |V(G)|: a data graph that fits in a machine
// word (FitsInWord, workspace.h) is searched on 64-bit adjacency rows, one
// AND per mapped backward neighbor; a larger one on adaptive sorted-list
// intersections (util/intersect.h) with a probe scan for tiny Φ(u). Both
// produce each node's candidates in ascending order, so embeddings, their
// order and recursion_calls do not depend on the kernel.
//
// With a workspace the mapping/visited/backward-neighbor scratch is drawn
// from `ws` (everything except ws->order, which may hold `order` itself);
// without one it is allocated per call. `task` restricts the search to the
// subtrees whose depth-0 candidate lies in [task.root_begin,
// task.root_end) (the intra-query parallel scheduler's unit of work).
EnumerateResult BacktrackOverCandidates(const Graph& query, const Graph& data,
                                        const CandidateSets& phi,
                                        const std::vector<VertexId>& order,
                                        uint64_t limit,
                                        DeadlineChecker* checker,
                                        const EmbeddingCallback& callback,
                                        MatchWorkspace* ws = nullptr,
                                        const BacktrackTask& task = {});

// The join-based ordering of GraphQL: start from the query vertex with the
// fewest candidates; repeatedly append the neighbor of the selected set with
// the fewest candidates.
std::vector<VertexId> JoinBasedOrder(const Graph& query,
                                     const CandidateSets& phi);

// Workspace variant: writes the order into ws->order (returned by
// reference; valid until the next call on the same workspace).
const std::vector<VertexId>& JoinBasedOrder(const Graph& query,
                                            const CandidateSets& phi,
                                            MatchWorkspace* ws);

}  // namespace sgq

#endif  // SGQ_MATCHING_MATCHER_H_
