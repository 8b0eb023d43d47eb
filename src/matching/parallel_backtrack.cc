#include "matching/parallel_backtrack.h"

#include <algorithm>
#include <mutex>

#include "matching/workspace.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/work_stealing.h"

namespace sgq {

// One steal-able task: the backtracking subtrees rooted at first-level
// candidates [root_begin, root_end) of `job`. Lives in the job's task
// vector (sized once at seeding, never reallocated while tasks are live),
// so the deques can traffic in raw pointers.
struct StealScheduler::TaskDesc {
  GraphJob* job = nullptr;
  uint32_t seed_index = 0;
  uint32_t root_begin = 0;
  uint32_t root_end = 0;
};

// Per-(owner, data graph) job state. Reused across queries by the same
// owner id so the vectors keep their capacity (the workspace-recycling
// idiom); safe because a job is only reset after pending reached zero and
// the owner merged — no thief holds a reference past its pending decrement.
struct StealScheduler::GraphJob {
  const Graph* query = nullptr;
  const Graph* data = nullptr;
  const CandidateSets* phi = nullptr;
  const std::vector<VertexId>* order = nullptr;
  uint64_t limit = 0;
  Deadline deadline;
  bool buffer_embeddings = false;

  // Set when the completed seed prefix covers `limit`, or a task hit the
  // deadline: queued tasks are dropped at pop, running ones unwind at their
  // next stop-flag poll.
  std::atomic<bool> stop{false};
  // Tasks not yet retired. The owner's completion condition; the release
  // decrement in ExecuteTask pairs with the owner's acquire load so the
  // merge sees every seed's writes.
  std::atomic<uint32_t> pending{0};

  std::mutex mu;  // guards done/prefix_* (task-retirement granularity)
  uint32_t prefix_done = 0;        // seeds 0..prefix_done-1 all complete
  uint64_t prefix_embeddings = 0;  // their summed embedding count

  struct SeedResult {
    EnumerateResult er;
    // Buffered embeddings, |V(q)| vertices each, in discovery order —
    // which for one seed equals serial order.
    std::vector<VertexId> flat;
  };
  std::vector<TaskDesc> tasks;
  std::vector<SeedResult> seeds;
  std::vector<char> done;
};

// Cache-line separation: each executor's deque bottom and counters are
// written on that executor's hot path.
struct alignas(64) StealScheduler::ExecutorState {
  explicit ExecutorState(uint64_t seed) : rng(seed) {}

  WorkStealingDeque<TaskDesc*> deque;
  uint64_t rng;  // xorshift64 state for victim selection
  StealCounters counters;
  std::unique_ptr<GraphJob> job;
};

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

StealScheduler::StealScheduler(uint32_t num_executors, StealConfig config)
    : config_(config) {
  SGQ_CHECK_GT(num_executors, 0u);
  executors_.reserve(num_executors);
  for (uint32_t i = 0; i < num_executors; ++i) {
    executors_.push_back(
        std::make_unique<ExecutorState>(SplitMix64(i + 1)));
    executors_.back()->job = std::make_unique<GraphJob>();
  }
}

StealScheduler::~StealScheduler() = default;

uint32_t StealScheduler::EffectiveChunk(size_t num_roots) const {
  if (config_.chunk != 0) return config_.chunk;
  const size_t per =
      num_roots / (static_cast<size_t>(num_executors()) * 4);
  return static_cast<uint32_t>(std::clamp<size_t>(per, 1, 64));
}

bool StealScheduler::ShouldSplit(size_t num_roots) const {
  if (num_executors() <= 1) return false;
  const uint32_t threshold =
      config_.heavy_threshold != 0 ? config_.heavy_threshold : 32;
  if (num_roots < threshold) return false;
  // Needs at least two tasks for stealing to exist.
  return num_roots > EffectiveChunk(num_roots);
}

void StealScheduler::Wake() {
  wake_.fetch_add(1);
  wake_.notify_all();
}

void StealScheduler::ExecuteTask(TaskDesc* task, MatchWorkspace* ws,
                                 StealCounters* acc) {
  GraphJob* job = task->job;
  GraphJob::SeedResult& seed = job->seeds[task->seed_index];
  bool skipped = true;
  // Cooperative cancellation of queued tasks: a task popped after the job
  // stopped is retired without touching the search at all.
  if (!job->stop.load(std::memory_order_acquire)) {
    skipped = false;
    DeadlineChecker checker(job->deadline);
    BacktrackTask bt;
    bt.root_begin = task->root_begin;
    bt.root_end = task->root_end;
    bt.stop = &job->stop;
    EmbeddingCallback cb;
    if (job->buffer_embeddings) {
      // Buffering never stops the task: how many embeddings the consumer
      // wants is decided at the owner's merge replay, where seed order (==
      // serial order) is known.
      cb = [&seed](const std::vector<VertexId>& mapping) {
        seed.flat.insert(seed.flat.end(), mapping.begin(), mapping.end());
        return true;
      };
    }
    seed.er = BacktrackOverCandidates(*job->query, *job->data, *job->phi,
                                      *job->order, job->limit, &checker, cb,
                                      ws, bt);
  }
  if (skipped || seed.er.cancelled || seed.er.aborted) ++acc->tasks_aborted;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->done[task->seed_index] = 1;
    while (job->prefix_done < job->done.size() &&
           job->done[job->prefix_done] != 0) {
      job->prefix_embeddings += job->seeds[job->prefix_done].er.embeddings;
      ++job->prefix_done;
    }
    // Stop once the contiguous completed prefix covers the limit — every
    // still-running seed lies after the cutoff, so cancelling it cannot
    // change the merged result. A deadline abort stops siblings too.
    if (job->prefix_embeddings >= job->limit || seed.er.aborted) {
      job->stop.store(true, std::memory_order_release);
    }
  }
  // The job is not touched after its last pending decrement: the owner may
  // reset it for the next graph as soon as it reads zero.
  if (job->pending.fetch_sub(1, std::memory_order_release) == 1) Wake();
}

bool StealScheduler::TryHelp(uint32_t id, MatchWorkspace* ws) {
  const uint32_t n = num_executors();
  if (n <= 1) return false;
  ExecutorState& self = *executors_[id];
  uint64_t& s = self.rng;
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  const uint32_t start = static_cast<uint32_t>(s % n);
  // Two sweeps over randomized victims: a kAbort is contention on a
  // non-empty deque, worth one more pass before reporting empty-handed.
  for (int sweep = 0; sweep < 2; ++sweep) {
    bool saw_abort = false;
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t victim = (start + k) % n;
      if (victim == id) continue;
      TaskDesc* task = nullptr;
      switch (executors_[victim]->deque.Steal(&task)) {
        case StealOutcome::kSuccess:
          ++self.counters.tasks_stolen;
          ExecuteTask(task, ws, &self.counters);
          return true;
        case StealOutcome::kAbort:
          saw_abort = true;
          break;
        case StealOutcome::kEmpty:
          break;
      }
    }
    if (!saw_abort) break;
  }
  return false;
}

EnumerateResult StealScheduler::Enumerate(
    uint32_t id, const Graph& query, const Graph& data,
    const CandidateSets& phi, const std::vector<VertexId>& order,
    uint64_t limit, Deadline deadline, const EmbeddingCallback& callback,
    MatchWorkspace* ws) {
  SGQ_CHECK_LT(id, executors_.size());
  if (limit == 0) return {};
  // Already-expired deadlines are the OOT outcome with zero work — and a
  // deterministic DeadlineAbort regardless of executor count.
  if (deadline.Expired()) {
    EnumerateResult r;
    r.aborted = true;
    return r;
  }

  const std::vector<VertexId>& roots = phi.set(order[0]);
  const uint32_t chunk = EffectiveChunk(roots.size());
  const uint32_t num_tasks =
      static_cast<uint32_t>((roots.size() + chunk - 1) / chunk);
  if (num_tasks <= 1) {
    DeadlineChecker checker(deadline);
    return BacktrackOverCandidates(query, data, phi, order, limit, &checker,
                                   callback, ws);
  }

  ExecutorState& self = *executors_[id];
  GraphJob& job = *self.job;
  job.query = &query;
  job.data = &data;
  job.phi = &phi;
  job.order = &order;
  job.limit = limit;
  job.deadline = deadline;
  job.buffer_embeddings = static_cast<bool>(callback);
  job.stop.store(false, std::memory_order_relaxed);
  job.prefix_done = 0;
  job.prefix_embeddings = 0;
  job.tasks.resize(num_tasks);
  job.seeds.resize(num_tasks);
  for (uint32_t i = 0; i < num_tasks; ++i) {
    job.tasks[i] = TaskDesc{&job, i, i * chunk,
                            std::min<uint32_t>((i + 1) * chunk,
                                               static_cast<uint32_t>(
                                                   roots.size()))};
    job.seeds[i].er = {};
    job.seeds[i].flat.clear();
  }
  job.done.assign(num_tasks, 0);
  job.pending.store(num_tasks, std::memory_order_relaxed);
  self.counters.tasks_spawned += num_tasks;

  // Push in reverse so the owner's LIFO pop starts at seed 0 — the head of
  // the deterministic merge order (and, with limit=1, the seed the serial
  // search would satisfy first) — while thieves steal from the tail.
  for (uint32_t i = num_tasks; i-- > 0;) {
    self.deque.PushBottom(&job.tasks[i]);
  }
  Wake();

  // Work until the job retires: own tasks LIFO, then steal — the owner
  // helps other in-flight jobs — and block while thieves finish the tasks
  // they took from us. The wake counter is read before looking for work,
  // so a wake between the look and the wait is never lost.
  TaskDesc* task = nullptr;
  while (job.pending.load(std::memory_order_acquire) != 0) {
    const uint32_t seen = wake_.load();
    if (self.deque.PopBottom(&task)) {
      ExecuteTask(task, ws, &self.counters);
    } else if (!TryHelp(id, ws) &&
               job.pending.load(std::memory_order_acquire) != 0) {
      wake_.wait(seen);
    }
  }

  // Deterministic merge: seed order, truncated at the limit. Counters sum
  // over everything each task actually did.
  EnumerateResult total;
  uint64_t taken = 0;
  uint64_t executed = 0;
  bool any_aborted = false;
  bool sink_stopped = false;
  std::vector<VertexId> replay;
  const size_t width = order.size();
  for (uint32_t i = 0; i < num_tasks; ++i) {
    const GraphJob::SeedResult& seed = job.seeds[i];
    total.AddCounters(seed.er);
    if (seed.er.recursion_calls > 0) ++executed;
    any_aborted |= seed.er.aborted;
    if (sink_stopped || taken >= limit) continue;
    const uint64_t take = std::min(seed.er.embeddings, limit - taken);
    if (job.buffer_embeddings) {
      // Replay in seed order == serial discovery order; a sink that stops
      // mid-replay sees the exact prefix serial enumeration would have
      // produced (the stopping embedding counts, as in the serial leaf).
      for (uint64_t e = 0; e < take; ++e) {
        replay.assign(seed.flat.begin() + e * width,
                      seed.flat.begin() + (e + 1) * width);
        ++taken;
        if (!callback(replay)) {
          sink_stopped = true;
          break;
        }
      }
    } else {
      taken += take;
    }
  }
  total.embeddings = taken;
  total.sink_stopped = sink_stopped;
  // Every executed task pays one depth-0 dispatch call where the serial
  // search pays exactly one in total; collapse the duplicates so
  // recursion_calls is bit-identical to serial whenever nothing was
  // cancelled.
  if (executed > 0) total.recursion_calls -= executed - 1;
  // A deadline abort only surfaces when the limit was not already covered —
  // the serial search would have returned complete before reaching the
  // aborted subtree.
  total.aborted = any_aborted && taken < limit && !sink_stopped;
  return total;
}

void StealScheduler::BeginScan() {
  scanning_.store(num_executors());
}

int64_t StealScheduler::FinishScan(uint32_t id, MatchWorkspace* ws) {
  if (scanning_.fetch_sub(1) == 1) Wake();
  // Only scanners seed jobs, and an owner leaves the scan only after its
  // job retired, so once no executor is scanning no task is left anywhere.
  int64_t nanos = 0;
  for (;;) {
    const uint32_t seen = wake_.load();
    const WallTimer timer;
    if (TryHelp(id, ws)) {
      nanos += timer.ElapsedNanos();
      continue;
    }
    if (scanning_.load() == 0) return nanos;
    wake_.wait(seen);
  }
}

StealCounters StealScheduler::DrainCounters() {
  StealCounters sum;
  for (auto& ex : executors_) {
    sum.Add(ex->counters);
    ex->counters = StealCounters{};
  }
  return sum;
}

}  // namespace sgq
