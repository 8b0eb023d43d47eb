// Parallel vcFV: Algorithm 2 with the data graphs partitioned across worker
// threads. Each data graph is filtered and verified independently, so the
// loop parallelizes embarrassingly — the index-free counterpart of Grapes'
// parallel index construction (the paper's related work, [19]/[31], notes
// single-machine parallel subgraph matching as the natural extension).
//
// Concurrency substrate: the engine owns a persistent ThreadPool (created
// once, reused by every Query) plus one worker slot per executor — the pool
// threads and the calling thread, which scans too instead of sleeping. Each
// slot holds a CfqlMatcher and a MatchWorkspace; the workspace recycles
// candidate-set/CPI/enumeration buffers across all graphs a slot processes.
// Executors claim `chunk_size` consecutive graphs per atomic operation.
//
// Work stealing is built in: a graph whose first-level candidate set
// reaches StealConfig::heavy_threshold (auto 32) is enumerated through the
// engine's StealScheduler, so one heavy graph does not pin its executor
// while the rest of the pool idles. An executor whose share of the scan is
// done steals those tasks, and blocks when there is nothing to steal. The
// split reproduces CFQL's own Enumerate() (JoinBasedOrder +
// BacktrackOverCandidates) task by task, which is why the engine holds
// CfqlMatcher by type: answers, num_candidates and si_tests equal serial
// CFQL at any thread count, chunk size and threshold.
//
// Time accounting: the parallel region is timed once; QueryMs() is that
// wall time, split between filtering_ms and verification_ms in the ratio of
// the summed per-slot phase nanos (see the convention in query/stats.h).
//
// Query() is not reentrant: one Query at a time per engine (the worker
// slots, the pool and the scheduler are shared state).
#ifndef SGQ_QUERY_PARALLEL_VCFV_ENGINE_H_
#define SGQ_QUERY_PARALLEL_VCFV_ENGINE_H_

#include <memory>
#include <vector>

#include "matching/cfql.h"
#include "matching/parallel_backtrack.h"
#include "matching/workspace.h"
#include "query/query_engine.h"
#include "util/thread_pool.h"

namespace sgq {

class ParallelVcfvEngine : public QueryEngine {
 public:
  // `num_threads` pool threads (0 = hardware concurrency) plus the caller;
  // `chunk_size` graphs per scheduling step (0 = pick automatically from
  // the database size); `steal` tunes the split of heavy enumerations.
  explicit ParallelVcfvEngine(uint32_t num_threads = 0,
                              uint32_t chunk_size = 0,
                              StealConfig steal = {});

  const char* name() const override { return "CFQL-parallel"; }

  bool Prepare(const GraphDatabase& db, Deadline deadline) override;

  QueryResult Query(const Graph& query, Deadline deadline) const override;

  // Streaming scan: a chunk-order reassembly buffer emits each chunk's
  // answers the moment every earlier chunk has been emitted, so the sink
  // sees ascending ids identical to the (sorted) batch answers at any
  // thread count. A sink stop cancels the remaining scan; result.answers
  // is the emitted prefix.
  QueryResult Query(const Graph& query, Deadline deadline,
                    ResultSink* sink) const override;

  size_t IndexMemoryBytes() const override { return 0; }

  uint32_t num_threads() const { return pool_.num_threads(); }

 private:
  struct WorkerSlot {
    CfqlMatcher matcher;
    MatchWorkspace workspace;
  };

  uint32_t chunk_size_;
  mutable ThreadPool pool_;
  // Sized to the executor count (pool threads + caller).
  mutable StealScheduler scheduler_;
  // One slot per executor; executor i only ever drives slot i, so slots
  // need no locks. Mutable because the workspaces accumulate reusable
  // buffers across const Query() calls. unique_ptr because MatchWorkspace
  // is neither copyable nor movable.
  mutable std::vector<std::unique_ptr<WorkerSlot>> slots_;
  const GraphDatabase* db_ = nullptr;
};

}  // namespace sgq

#endif  // SGQ_QUERY_PARALLEL_VCFV_ENGINE_H_
