// Intra-query parallel backtracking: split one enumeration's search tree
// across executors with work-stealing deques.
//
// The database-scan engines already parallelize *across* graphs; this module
// parallelizes *within* one (query, data graph) enumeration — the regime
// where a single dense query on a single large graph would otherwise pin one
// core while the rest of the pool idles (ROADMAP item 3, the STwig/GraphMini
// decomposition).
//
// Task model
//   * Seeding: the first-level candidate set phi.set(order[0]) is cut into
//     contiguous chunks of `chunk` root candidates; each chunk is one task —
//     the whole backtracking subtree(s) rooted at those candidates.
//   * Scheduling: the owner pushes its tasks onto its own Chase-Lev deque
//     (util/work_stealing.h) and pops them LIFO; idle executors steal from
//     the top of a randomized victim's deque. An owner whose deque drains
//     before its job finishes steals too.
//   * Idling: an executor with nothing to steal blocks on a wake counter
//     (std::atomic::wait) that is bumped when a job is seeded, when a job's
//     last task retires and when the last scanner leaves the scan; it never
//     spins.
//   * Determinism: each task buffers its results per seed; the owner merges
//     them in seed order once the job completes, truncating at `limit`.
//     Because a seed's subtree is enumerated exactly as the serial search
//     would enumerate it, the merged embedding sequence is bit-identical to
//     the serial BacktrackOverCandidates call for every thread count and
//     chunk size.
//   * Cancellation: a per-job atomic stop flag is set when the completed
//     seed *prefix* already covers `limit` (or when a task hits the
//     deadline). Queued tasks observe it at pop time and are dropped;
//     running tasks poll it every BacktrackTask::kStopCheckInterval
//     recursion calls. Seeds cancelled this way lie strictly after the
//     prefix that satisfied the limit, so dropping them never changes the
//     merged result.
//
// Concurrency contract: one StealScheduler per engine; executor ids are
// dense in [0, num_executors). At most one job per owner id at a time (an
// owner seeds a job, works/steals until it completes, then may seed the
// next). Enumerate and FinishScan may run concurrently on distinct ids;
// BeginScan and DrainCounters require quiescence (no job in flight).
#ifndef SGQ_MATCHING_PARALLEL_BACKTRACK_H_
#define SGQ_MATCHING_PARALLEL_BACKTRACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "matching/matcher.h"
#include "util/deadline.h"

namespace sgq {

class MatchWorkspace;

struct StealConfig {
  // Root candidates per task. 0 = auto: ~4 tasks per executor, clamped to
  // [1, 64] — small enough to balance skewed subtree costs, large enough
  // that per-task setup (backward-neighbor rebuild) stays negligible.
  uint32_t chunk = 0;
  // Minimum first-level candidate count before a job is split into tasks
  // at all; below it the serial path is cheaper. 0 = auto (32).
  uint32_t heavy_threshold = 0;
};

// Per-query scheduler counters, reported through QueryStats.
struct StealCounters {
  uint64_t tasks_spawned = 0;  // tasks seeded across all jobs
  uint64_t tasks_stolen = 0;   // tasks executed by a non-owner executor
  uint64_t tasks_aborted = 0;  // tasks cancelled by stop flag or deadline

  void Add(const StealCounters& other) {
    tasks_spawned += other.tasks_spawned;
    tasks_stolen += other.tasks_stolen;
    tasks_aborted += other.tasks_aborted;
  }
};

class StealScheduler {
 public:
  StealScheduler(uint32_t num_executors, StealConfig config);
  ~StealScheduler();

  StealScheduler(const StealScheduler&) = delete;
  StealScheduler& operator=(const StealScheduler&) = delete;

  uint32_t num_executors() const {
    return static_cast<uint32_t>(executors_.size());
  }

  // True when a job with `num_roots` first-level candidates is worth
  // splitting (more than one executor, enough roots to make >1 task).
  bool ShouldSplit(size_t num_roots) const;

  // Owner entry point for executor `id`: enumerate with the first-level
  // candidates split into steal-able tasks. Blocks — executing its own and
  // stolen tasks — until every task of this job retires, then merges the
  // per-seed results in seed order. Bit-identical to the serial
  //   BacktrackOverCandidates(query, data, phi, order, limit, ...)
  // call. `ws` is the owner's workspace; thieves use their own. `callback`
  // (when set) is replayed by the owner in the deterministic merged order.
  EnumerateResult Enumerate(uint32_t id, const Graph& query,
                            const Graph& data, const CandidateSets& phi,
                            const std::vector<VertexId>& order,
                            uint64_t limit, Deadline deadline,
                            const EmbeddingCallback& callback,
                            MatchWorkspace* ws);

  // The scan protocol of a parallel database scan whose executors may each
  // own jobs. BeginScan() marks every executor as scanning; it runs before
  // any executor starts. An executor whose share of the scan is done calls
  // FinishScan(), which runs stolen tasks until every executor has finished
  // scanning (no job can be seeded after that, and every seeded job has
  // retired), blocking whenever there is nothing to steal. Returns the
  // nanoseconds spent running stolen tasks.
  void BeginScan();
  int64_t FinishScan(uint32_t id, MatchWorkspace* ws);

  // Sums and clears the per-executor counters. Quiescent only (between
  // queries).
  StealCounters DrainCounters();

 private:
  struct ExecutorState;
  struct GraphJob;
  struct TaskDesc;

  uint32_t EffectiveChunk(size_t num_roots) const;

  // Steals and executes one task from any other executor's deque, using
  // `ws` as the enumeration scratch. Returns false when no task was found.
  bool TryHelp(uint32_t id, MatchWorkspace* ws);

  // Executes one task (skipping the enumeration if the job is already
  // stopped), publishes its seed result, and retires it from the job.
  void ExecuteTask(TaskDesc* task, MatchWorkspace* ws, StealCounters* acc);

  // Bumps wake_ and wakes every executor blocked on it.
  void Wake();

  StealConfig config_;
  std::vector<std::unique_ptr<ExecutorState>> executors_;
  // Executors that have not yet called FinishScan() since BeginScan().
  std::atomic<uint32_t> scanning_{0};
  // Wake counter for idle executors; its value means nothing, only change.
  std::atomic<uint32_t> wake_{0};
};

}  // namespace sgq

#endif  // SGQ_MATCHING_PARALLEL_BACKTRACK_H_
