// The subgraph-query processor interface: every competing algorithm of
// Table III (IFV, vcFV, IvcFV) is one of these.
#ifndef SGQ_QUERY_QUERY_ENGINE_H_
#define SGQ_QUERY_QUERY_ENGINE_H_

#include <cstddef>
#include <span>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "index/graph_index.h"
#include "query/result_sink.h"
#include "query/stats.h"
#include "util/deadline.h"

namespace sgq {

// The vcFV/IvcFV scan loops screen every data graph with
// Graph::MayContain(query) before the matcher's Filter(). Screening one
// graph out costs about as much as one clock read, so the loops read the
// deadline after every graph that reached Filter() but only once per this
// many screened-out graphs.
inline constexpr uint64_t kScreenedGraphsPerDeadlinePoll = 64;

class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  virtual const char* name() const = 0;

  // One-time preparation over the database (index construction for IFV and
  // IvcFV; a no-op for vcFV beyond remembering the database). Returns false
  // when the deadline expires — the paper's OOT condition — after which
  // Query() must not be called.
  virtual bool Prepare(const GraphDatabase& db, Deadline deadline) = 0;

  // Answers one subgraph query (Definition II.2). `deadline` is the
  // per-query time limit; on expiry the result is marked timed_out and the
  // answer set is whatever was confirmed so far.
  virtual QueryResult Query(const Graph& query,
                            Deadline deadline = Deadline::Infinite()) const
      = 0;

  // Streaming variant: every confirmed answer id is pushed into `sink` (in
  // ascending id order) the moment verification confirms it, and a sink
  // returning false stops the scan — result.answers then holds exactly the
  // emitted prefix, so a streamed response is always a bit-identical prefix
  // of the batch response. The base implementation replays the batch
  // answers (correct for any engine, streams nothing early); the concrete
  // engines override it with true incremental emission. `sink == nullptr`
  // degrades to the batch Query().
  virtual QueryResult Query(const Graph& query, Deadline deadline,
                            ResultSink* sink) const;

  // Incrementally re-prepares the engine after database mutations: `db` is
  // the post-mutation database and `deltas` the ordered chain of changes
  // that produced it from the database this engine was last prepared (or
  // updated) against. The base implementation falls back to a full
  // Prepare(db, deadline) — O(1) for the index-free vcFV engines, which
  // only re-point at the database — while the IFV/IvcFV engines override
  // it with true incremental index maintenance (AppendGraph /
  // OnOrderedRemove per delta). Returns false on deadline expiry, after
  // which the engine must be fully re-prepared before use.
  virtual bool ApplyUpdate(const GraphDatabase& db,
                           std::span<const DbDelta> deltas,
                           Deadline deadline) {
    (void)deltas;
    return Prepare(db, deadline);
  }

  // Footprint of persistent index structures (0 for vcFV algorithms).
  virtual size_t IndexMemoryBytes() const = 0;

  // Why the last Prepare() returned false (OOT vs OOM); kNone for engines
  // without an index.
  virtual GraphIndex::BuildFailure prepare_failure() const {
    return GraphIndex::BuildFailure::kNone;
  }
};

}  // namespace sgq

#endif  // SGQ_QUERY_QUERY_ENGINE_H_
