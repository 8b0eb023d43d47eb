// Per-query and per-query-set metrics, mirroring Section IV-A:
// query/filtering/verification time, filtering precision (Equation 1),
// |C(q)|, and per-SI-test time (Equation 3).
#ifndef SGQ_QUERY_STATS_H_
#define SGQ_QUERY_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace sgq {

// Phase-time convention. IFV engines (and VF2-scan) time their two steps
// directly: filtering_ms is the index lookup, verification_ms the
// verification loop. The vcFV/IvcFV scans (and MatchEngine) time only the
// per-graph verifications, because one clock read costs about as much as
// screening out one graph: verification_ms is summed wall-clock over the
// SI tests, and filtering_ms is the scan's wall time minus verification_ms
// — the index lookup (IvcFV), the label-count screen, every Filter() call
// and the loop's own overhead, including handing answers to a streaming
// sink. The parallel engine times its parallel region once: QueryMs() is
// that wall time, not the aggregate CPU time, and it is split between the
// two phases in the ratio of the summed per-slot nanos (verification,
// including stolen tasks, and each slot's scan wall time minus its
// verification). So QueryMs() stays comparable with the serial engines at
// any thread count and under any load imbalance; only the split is an
// estimate.
struct QueryStats {
  double filtering_ms = 0;     // scan wall time minus verification_ms
  double verification_ms = 0;  // SI tests over C(q)  (Equation 2)
  uint64_t num_candidates = 0; // |C(q)|
  uint64_t num_answers = 0;    // |A(q)|
  uint64_t si_tests = 0;       // verifications actually executed
  bool timed_out = false;      // per-query time limit expired
  size_t aux_memory_bytes = 0; // peak auxiliary-structure footprint
  // MatchWorkspace reuse counters for this query (vcFV-family engines): a
  // hit is a Filter() call served from recycled workspace memory, a miss an
  // actual FilterData allocation. hits + misses == number of Filter() calls,
  // so misses is the per-query allocation count the reuse is eliminating.
  uint64_t ws_filter_hits = 0;
  uint64_t ws_filter_misses = 0;
  // Intersection-kernel counters summed over this query's Enumerate() calls
  // (see EnumerateResult): adaptive dispatches, the merge/gallop/SIMD split
  // of how each dispatch resolved, and the total local candidate-set sizes
  // the extension step produced.
  uint64_t intersect_calls = 0;
  uint64_t intersect_merge = 0;
  uint64_t intersect_gallop = 0;
  uint64_t intersect_simd = 0;
  uint64_t local_candidates = 0;
  // Intra-query work-stealing counters (zero unless the parallel engine
  // split an enumeration): tasks seeded from first-level candidate chunks,
  // tasks executed by a non-owner executor, and tasks cancelled by the
  // stop flag or the deadline.
  uint64_t tasks_spawned = 0;
  uint64_t tasks_stolen = 0;
  uint64_t tasks_aborted = 0;

  double QueryMs() const { return filtering_ms + verification_ms; }
};

struct QueryResult {
  std::vector<GraphId> answers;  // A(q), sorted ascending
  QueryStats stats;
};

// Folds one Enumerate() call's kernel counters into the query's stats.
// Templated so this header need not depend on matching/matcher.h; any type
// exposing the intersect_*/local_candidates fields (EnumerateResult) works.
template <typename Counters>
void AddIntersectCounters(QueryStats* stats, const Counters& er) {
  stats->intersect_calls += er.intersect_calls;
  stats->intersect_merge += er.intersect_merge;
  stats->intersect_gallop += er.intersect_gallop;
  stats->intersect_simd += er.intersect_simd;
  stats->local_candidates += er.local_candidates;
}

// Aggregates over a query set, as reported in the paper's figures. Queries
// that timed out contribute `timeout_ms` as their query time (the paper
// records the 10-minute limit for incomplete queries).
struct QuerySetSummary {
  uint32_t num_queries = 0;
  uint32_t num_timeouts = 0;
  double avg_filtering_ms = 0;
  double avg_verification_ms = 0;
  double avg_query_ms = 0;
  double filtering_precision = 0;  // Equation 1 (|C|=0 counts as 1)
  double avg_candidates = 0;       // average |C(q)|
  double per_si_test_ms = 0;       // Equation 3
};

QuerySetSummary Summarize(std::span<const QueryResult> results,
                          double timeout_ms);

// Machine-readable serialization shared by `sgq_cli query --format json`
// and the query service's STATS reply: a single-line JSON object, keys in
// declaration order, doubles printed with enough precision to round-trip.
std::string ToJson(const QueryStats& stats);
std::string ToJson(const QuerySetSummary& summary);

}  // namespace sgq

#endif  // SGQ_QUERY_STATS_H_
