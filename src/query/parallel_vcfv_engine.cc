#include "query/parallel_vcfv_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>

#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

namespace {

struct SlotAccumulator {
  std::vector<GraphId> answers;
  uint64_t candidates = 0;
  uint64_t si_tests = 0;
  uint64_t screened = 0;  // graphs the screen rejected (deadline cadence)
  size_t max_aux = 0;
  // Only verification is timed per graph; filter_nanos is the slot's scan
  // wall time minus its verification time.
  int64_t filter_nanos = 0;
  int64_t verify_nanos = 0;
  EnumerateResult counters;  // intersect_*/local_candidates sums
};

// Merges the per-slot accumulators into the result, sorts the answers, and
// converts the summed phase nanos to the parallel wall-clock estimate (see
// the convention in query/stats.h).
void FoldAccumulators(const std::vector<SlotAccumulator>& accumulators,
                      uint32_t executors, QueryResult* result) {
  int64_t filter_nanos = 0, verify_nanos = 0;
  for (const SlotAccumulator& acc : accumulators) {
    result->answers.insert(result->answers.end(), acc.answers.begin(),
                           acc.answers.end());
    result->stats.num_candidates += acc.candidates;
    result->stats.si_tests += acc.si_tests;
    AddIntersectCounters(&result->stats, acc.counters);
    result->stats.aux_memory_bytes =
        std::max(result->stats.aux_memory_bytes, acc.max_aux);
    filter_nanos += acc.filter_nanos;
    verify_nanos += acc.verify_nanos;
  }
  std::sort(result->answers.begin(), result->answers.end());
  result->stats.num_answers = result->answers.size();
  result->stats.filtering_ms =
      static_cast<double>(filter_nanos) / executors / 1e6;
  result->stats.verification_ms =
      static_cast<double>(verify_nanos) / executors / 1e6;
}

}  // namespace

ParallelVcfvEngine::ParallelVcfvEngine(
    std::string name, std::function<std::unique_ptr<Matcher>()> matcher_factory,
    uint32_t num_threads, uint32_t chunk_size, IntraQueryConfig intra)
    : name_(std::move(name)),
      chunk_size_(chunk_size),
      intra_(intra),
      pool_(std::make_unique<ThreadPool>(num_threads)) {
  // SGQ_INTRA_STEAL overrides the configuration, mirroring SGQ_CACHE: "on"
  // forces stealing with heavy_threshold=1 so even small enumerations run
  // through the scheduler (the CI determinism-stress leg), "off" disables.
  if (const char* env = std::getenv("SGQ_INTRA_STEAL")) {
    const std::string_view v(env);
    if (v == "on") {
      intra_.enabled = true;
      intra_.heavy_threshold = 1;
    } else if (v == "off") {
      intra_.enabled = false;
    }
  }
  // One slot per ParallelFor executor: every pool thread plus the calling
  // thread, which participates in the chunk loop under the last slot id.
  const uint32_t num_slots = pool_->num_threads() + 1;
  slots_.reserve(num_slots);
  for (uint32_t i = 0; i < num_slots; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
    slots_.back()->matcher = matcher_factory();
  }
  if (intra_.enabled) {
    scheduler_ = std::make_unique<StealScheduler>(
        num_slots, StealConfig{intra_.steal_chunk, intra_.intra_threads,
                               intra_.heavy_threshold});
  }
}

bool ParallelVcfvEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  (void)deadline;
  db_ = &db;
  return true;
}

QueryResult ParallelVcfvEngine::Query(const Graph& query,
                                      Deadline deadline) const {
  SGQ_CHECK(db_ != nullptr) << name_ << ": call Prepare() first";
  if (scheduler_ != nullptr) return QueryIntra(query, deadline);
  QueryResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  const size_t num_graphs = db_->size();
  const uint32_t executors = pool_->num_threads() + 1;

  std::vector<SlotAccumulator> accumulators(executors);
  std::atomic<bool> timed_out{false};

  uint64_t ws_hits_before = 0, ws_misses_before = 0;
  for (const auto& slot : slots_) {
    ws_hits_before += slot->workspace.filter_hits();
    ws_misses_before += slot->workspace.filter_misses();
  }

  const size_t chunk = chunk_size_ != 0
                           ? chunk_size_
                           : ThreadPool::DefaultChunk(num_graphs, executors);
  pool_->ParallelFor(
      num_graphs, chunk, [&](size_t begin, size_t end, uint32_t slot_id) {
        if (timed_out.load(std::memory_order_relaxed)) return;
        WorkerSlot& slot = *slots_[slot_id];
        SlotAccumulator& acc = accumulators[slot_id];
        DeadlineChecker checker(deadline);
        const WallTimer chunk_timer;
        const int64_t verify_before = acc.verify_nanos;
        WallTimer timer;
        for (size_t g = begin; g < end; ++g) {
          if (timed_out.load(std::memory_order_relaxed)) break;
          const Graph& data = db_->graph(static_cast<GraphId>(g));
          if (!data.MayContain(query)) {
            if (++acc.screened % kScreenedGraphsPerDeadlinePoll == 0 &&
                deadline.Expired()) {
              timed_out.store(true, std::memory_order_relaxed);
              break;
            }
            continue;
          }

          const FilterData* filter_data =
              slot.matcher->Filter(query, data, &slot.workspace);
          acc.max_aux = std::max(acc.max_aux, filter_data->MemoryBytes());

          if (filter_data->Passed()) {
            ++acc.candidates;
            timer.Restart();
            const EnumerateResult er =
                slot.matcher->Enumerate(query, data, *filter_data,
                                        /*limit=*/1, &checker,
                                        &slot.workspace);
            acc.verify_nanos += timer.ElapsedNanos();
            ++acc.si_tests;
            acc.counters.AddCounters(er);
            if (er.embeddings > 0) {
              acc.answers.push_back(static_cast<GraphId>(g));
            }
            if (er.aborted) {
              timed_out.store(true, std::memory_order_relaxed);
              break;
            }
          }
          if (deadline.Expired()) {
            timed_out.store(true, std::memory_order_relaxed);
            break;
          }
        }
        acc.filter_nanos +=
            chunk_timer.ElapsedNanos() - (acc.verify_nanos - verify_before);
      });

  FoldAccumulators(accumulators, executors, &result);
  result.stats.timed_out = timed_out.load();

  uint64_t ws_hits_after = 0, ws_misses_after = 0;
  for (const auto& slot : slots_) {
    ws_hits_after += slot->workspace.filter_hits();
    ws_misses_after += slot->workspace.filter_misses();
  }
  result.stats.ws_filter_hits = ws_hits_after - ws_hits_before;
  result.stats.ws_filter_misses = ws_misses_after - ws_misses_before;
  return result;
}

QueryResult ParallelVcfvEngine::Query(const Graph& query, Deadline deadline,
                                      ResultSink* sink) const {
  SGQ_CHECK(db_ != nullptr) << name_ << ": call Prepare() first";
  if (sink == nullptr) return Query(query, deadline);
  return QueryStreaming(query, deadline, sink);
}

QueryResult ParallelVcfvEngine::QueryStreaming(const Graph& query,
                                               Deadline deadline,
                                               ResultSink* sink) const {
  QueryResult result;
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  const size_t num_graphs = db_->size();
  const uint32_t executors = pool_->num_threads() + 1;

  std::vector<SlotAccumulator> accumulators(executors);
  std::atomic<bool> timed_out{false};
  std::atomic<bool> stop{false};  // the sink asked to stop
  std::atomic<size_t> next{0};
  std::atomic<uint32_t> scanning{executors};

  uint64_t ws_hits_before = 0, ws_misses_before = 0;
  for (const auto& slot : slots_) {
    ws_hits_before += slot->workspace.filter_hits();
    ws_misses_before += slot->workspace.filter_misses();
  }

  const size_t chunk = chunk_size_ != 0
                           ? chunk_size_
                           : ThreadPool::DefaultChunk(num_graphs, executors);

  // Ordered chunk reassembly: chunks are the contiguous ranges
  // [k*chunk, (k+1)*chunk); a finished chunk parks its answers until every
  // earlier chunk has emitted, so the sink sees exactly the ascending-id
  // sequence the sorted batch answers would hold — at any executor count.
  std::mutex emit_mu;
  std::map<size_t, std::vector<GraphId>> parked;
  size_t frontier = 0;
  std::vector<GraphId> emitted;

  auto emit_chunk = [&](size_t begin, std::vector<GraphId>&& answers) {
    std::lock_guard<std::mutex> lock(emit_mu);
    parked.emplace(begin, std::move(answers));
    bool delivered = false;
    while (!parked.empty() && parked.begin()->first == frontier) {
      auto node = parked.extract(parked.begin());
      for (GraphId id : node.mapped()) {
        if (stop.load(std::memory_order_relaxed)) break;
        emitted.push_back(id);
        delivered = true;
        if (!sink->OnAnswer(id)) {
          stop.store(true, std::memory_order_relaxed);
          break;
        }
      }
      frontier = std::min(frontier + chunk, num_graphs);
    }
    if (delivered) sink->FlushHint();
  };

  auto worker = [&](uint32_t slot_id) {
    WorkerSlot& slot = *slots_[slot_id];
    SlotAccumulator& acc = accumulators[slot_id];
    DeadlineChecker checker(deadline);
    const WallTimer scan_timer;
    WallTimer timer;
    bool bail = false;
    while (!bail) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= num_graphs) break;
      const size_t end = std::min(begin + chunk, num_graphs);
      std::vector<GraphId> chunk_answers;
      for (size_t g = begin; g < end && !bail; ++g) {
        if (timed_out.load(std::memory_order_relaxed) ||
            stop.load(std::memory_order_relaxed)) {
          bail = true;
          break;
        }
        const Graph& data = db_->graph(static_cast<GraphId>(g));
        if (!data.MayContain(query)) {
          if (++acc.screened % kScreenedGraphsPerDeadlinePoll == 0 &&
              deadline.Expired()) {
            timed_out.store(true, std::memory_order_relaxed);
            bail = true;
          }
          continue;
        }

        const FilterData* filter_data =
            slot.matcher->Filter(query, data, &slot.workspace);
        acc.max_aux = std::max(acc.max_aux, filter_data->MemoryBytes());

        if (filter_data->Passed()) {
          ++acc.candidates;
          timer.Restart();
          EnumerateResult er;
          if (scheduler_ != nullptr) {
            const std::vector<VertexId>& order =
                JoinBasedOrder(query, filter_data->phi, &slot.workspace);
            if (scheduler_->ShouldSplit(
                    filter_data->phi.set(order[0]).size())) {
              er = scheduler_->Enumerate(slot_id, query, data,
                                         filter_data->phi, order,
                                         /*limit=*/1, deadline, nullptr,
                                         &slot.workspace);
            } else {
              er = BacktrackOverCandidates(query, data, filter_data->phi,
                                           order, /*limit=*/1, &checker,
                                           nullptr, &slot.workspace);
            }
          } else {
            er = slot.matcher->Enumerate(query, data, *filter_data,
                                         /*limit=*/1, &checker,
                                         &slot.workspace);
          }
          acc.verify_nanos += timer.ElapsedNanos();
          ++acc.si_tests;
          acc.counters.AddCounters(er);
          if (er.embeddings > 0) {
            chunk_answers.push_back(static_cast<GraphId>(g));
          }
          if (er.aborted) {
            timed_out.store(true, std::memory_order_relaxed);
            bail = true;
            break;
          }
        }
        if (deadline.Expired()) {
          timed_out.store(true, std::memory_order_relaxed);
          bail = true;
        }
      }
      // Partial chunks (timeout bail) register too: the frontier can then
      // pass them, matching the batch path's keep-what-was-confirmed
      // behavior on TIMEOUT.
      emit_chunk(begin, std::move(chunk_answers));
    }
    acc.filter_nanos += scan_timer.ElapsedNanos() - acc.verify_nanos;
    scanning.fetch_sub(1, std::memory_order_release);
    if (scheduler_ == nullptr || !scheduler_->CanHelp(slot_id)) return;
    timer.Restart();
    bool helped = false;
    while (scanning.load(std::memory_order_acquire) > 0 ||
           scheduler_->HasPendingTasks()) {
      if (scheduler_->TryHelp(slot_id, &slot.workspace)) {
        helped = true;
      } else {
        std::this_thread::yield();
      }
    }
    if (helped) acc.verify_nanos += timer.ElapsedNanos();
  };

  for (uint32_t i = 0; i < pool_->num_threads(); ++i) {
    pool_->Submit([&worker, i] { worker(i); });
  }
  worker(executors - 1);
  pool_->Wait();

  // Counters fold as in the batch path; the answers are the emitted prefix
  // (already ascending), not the per-slot union.
  FoldAccumulators(accumulators, executors, &result);
  result.answers = std::move(emitted);
  result.stats.num_answers = result.answers.size();
  result.stats.timed_out = timed_out.load();

  if (scheduler_ != nullptr) {
    const StealCounters sc = scheduler_->DrainCounters();
    result.stats.tasks_spawned = sc.tasks_spawned;
    result.stats.tasks_stolen = sc.tasks_stolen;
    result.stats.tasks_aborted = sc.tasks_aborted;
  }

  uint64_t ws_hits_after = 0, ws_misses_after = 0;
  for (const auto& slot : slots_) {
    ws_hits_after += slot->workspace.filter_hits();
    ws_misses_after += slot->workspace.filter_misses();
  }
  result.stats.ws_filter_hits = ws_hits_after - ws_hits_before;
  result.stats.ws_filter_misses = ws_misses_after - ws_misses_before;
  return result;
}

QueryResult ParallelVcfvEngine::QueryIntra(const Graph& query,
                                           Deadline deadline) const {
  QueryResult result;
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  const size_t num_graphs = db_->size();
  const uint32_t executors = pool_->num_threads() + 1;

  std::vector<SlotAccumulator> accumulators(executors);
  std::atomic<bool> timed_out{false};
  // Graph hand-out counter — the ParallelFor loop, inlined so an executor
  // that drains the range can fall through into the help phase below
  // instead of exiting the parallel region.
  std::atomic<size_t> next{0};
  // Executors still in the scan loop. Owners block inside
  // StealScheduler::Enumerate until their job's last task retires, so once
  // this reaches zero no job is in flight and helpers may leave.
  std::atomic<uint32_t> scanning{executors};

  uint64_t ws_hits_before = 0, ws_misses_before = 0;
  for (const auto& slot : slots_) {
    ws_hits_before += slot->workspace.filter_hits();
    ws_misses_before += slot->workspace.filter_misses();
  }

  const size_t chunk = chunk_size_ != 0
                           ? chunk_size_
                           : ThreadPool::DefaultChunk(num_graphs, executors);

  auto worker = [&](uint32_t slot_id) {
    WorkerSlot& slot = *slots_[slot_id];
    SlotAccumulator& acc = accumulators[slot_id];
    DeadlineChecker checker(deadline);
    const WallTimer scan_timer;
    WallTimer timer;
    bool bail = false;
    while (!bail) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= num_graphs) break;
      const size_t end = std::min(begin + chunk, num_graphs);
      for (size_t g = begin; g < end && !bail; ++g) {
        if (timed_out.load(std::memory_order_relaxed)) {
          bail = true;
          break;
        }
        const Graph& data = db_->graph(static_cast<GraphId>(g));
        if (!data.MayContain(query)) {
          if (++acc.screened % kScreenedGraphsPerDeadlinePoll == 0 &&
              deadline.Expired()) {
            timed_out.store(true, std::memory_order_relaxed);
            bail = true;
          }
          continue;
        }

        const FilterData* filter_data =
            slot.matcher->Filter(query, data, &slot.workspace);
        acc.max_aux = std::max(acc.max_aux, filter_data->MemoryBytes());

        if (filter_data->Passed()) {
          ++acc.candidates;
          timer.Restart();
          // The matcher contract for intra engines: Enumerate() is
          // JoinBasedOrder + BacktrackOverCandidates (GraphQL/CFQL family),
          // so splitting the same order across the scheduler is
          // bit-identical to the matcher's own call.
          const std::vector<VertexId>& order =
              JoinBasedOrder(query, filter_data->phi, &slot.workspace);
          EnumerateResult er;
          if (scheduler_->ShouldSplit(
                  filter_data->phi.set(order[0]).size())) {
            er = scheduler_->Enumerate(slot_id, query, data,
                                       filter_data->phi, order,
                                       /*limit=*/1, deadline, nullptr,
                                       &slot.workspace);
          } else {
            er = BacktrackOverCandidates(query, data, filter_data->phi,
                                         order, /*limit=*/1, &checker,
                                         nullptr, &slot.workspace);
          }
          acc.verify_nanos += timer.ElapsedNanos();
          ++acc.si_tests;
          acc.counters.AddCounters(er);
          if (er.embeddings > 0) {
            acc.answers.push_back(static_cast<GraphId>(g));
          }
          if (er.aborted) {
            timed_out.store(true, std::memory_order_relaxed);
            bail = true;
            break;
          }
        }
        if (deadline.Expired()) {
          timed_out.store(true, std::memory_order_relaxed);
          bail = true;
        }
      }
    }
    acc.filter_nanos += scan_timer.ElapsedNanos() - acc.verify_nanos;
    // Scan share drained (or timed out): help the executors still working
    // on heavy graphs instead of idling out of the parallel region. The
    // release decrement pairs with the acquire loads below.
    scanning.fetch_sub(1, std::memory_order_release);
    if (!scheduler_->CanHelp(slot_id)) return;
    timer.Restart();
    bool helped = false;
    while (scanning.load(std::memory_order_acquire) > 0 ||
           scheduler_->HasPendingTasks()) {
      if (scheduler_->TryHelp(slot_id, &slot.workspace)) {
        helped = true;
      } else {
        std::this_thread::yield();
      }
    }
    // Help time lands in verification: that is the phase the stolen tasks
    // belong to. Only charged when a task was actually run, so pure
    // yield-spinning does not inflate the estimate (see DESIGN.md on the
    // residual fuzziness).
    if (helped) acc.verify_nanos += timer.ElapsedNanos();
  };

  for (uint32_t i = 0; i < pool_->num_threads(); ++i) {
    pool_->Submit([&worker, i] { worker(i); });
  }
  worker(executors - 1);  // the caller participates under the last slot id
  pool_->Wait();

  FoldAccumulators(accumulators, executors, &result);
  result.stats.timed_out = timed_out.load();

  const StealCounters sc = scheduler_->DrainCounters();
  result.stats.tasks_spawned = sc.tasks_spawned;
  result.stats.tasks_stolen = sc.tasks_stolen;
  result.stats.tasks_aborted = sc.tasks_aborted;

  uint64_t ws_hits_after = 0, ws_misses_after = 0;
  for (const auto& slot : slots_) {
    ws_hits_after += slot->workspace.filter_hits();
    ws_misses_after += slot->workspace.filter_misses();
  }
  result.stats.ws_filter_hits = ws_hits_after - ws_hits_before;
  result.stats.ws_filter_misses = ws_misses_after - ws_misses_before;
  return result;
}

}  // namespace sgq
