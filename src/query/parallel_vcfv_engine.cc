#include "query/parallel_vcfv_engine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

namespace {

struct SlotAccumulator {
  std::vector<GraphId> answers;  // batch only; a sink gets them per chunk
  uint64_t candidates = 0;
  uint64_t si_tests = 0;
  uint64_t screened = 0;  // graphs the screen rejected (deadline cadence)
  size_t max_aux = 0;
  // Only verification is timed per graph; filter_nanos is the slot's scan
  // wall time minus its verification time. Stolen tasks count as
  // verification.
  int64_t filter_nanos = 0;
  int64_t verify_nanos = 0;
  EnumerateResult counters;  // intersect_*/local_candidates sums
};

}  // namespace

ParallelVcfvEngine::ParallelVcfvEngine(uint32_t num_threads,
                                       uint32_t chunk_size, StealConfig steal)
    : chunk_size_(chunk_size),
      pool_(num_threads),
      scheduler_(pool_.num_threads() + 1, steal) {
  slots_.reserve(scheduler_.num_executors());
  for (uint32_t i = 0; i < scheduler_.num_executors(); ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
}

bool ParallelVcfvEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  (void)deadline;
  db_ = &db;
  return true;
}

QueryResult ParallelVcfvEngine::Query(const Graph& query,
                                      Deadline deadline) const {
  return Query(query, deadline, /*sink=*/nullptr);
}

QueryResult ParallelVcfvEngine::Query(const Graph& query, Deadline deadline,
                                      ResultSink* sink) const {
  SGQ_CHECK(db_ != nullptr) << name() << ": call Prepare() first";
  QueryResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  const size_t num_graphs = db_->size();
  const uint32_t executors = scheduler_.num_executors();
  const size_t chunk = chunk_size_ != 0
                           ? chunk_size_
                           : ThreadPool::DefaultChunk(num_graphs, executors);

  std::vector<SlotAccumulator> accumulators(executors);
  std::atomic<size_t> next{0};
  std::atomic<bool> timed_out{false};
  std::atomic<bool> stop{false};  // the sink asked to stop

  uint64_t ws_hits_before = 0, ws_misses_before = 0;
  for (const auto& slot : slots_) {
    ws_hits_before += slot->workspace.filter_hits();
    ws_misses_before += slot->workspace.filter_misses();
  }

  // Ordered chunk reassembly for a sink: chunks are the contiguous ranges
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
      std::vector<GraphId>& found = sink != nullptr ? chunk_answers
                                                    : acc.answers;
      for (size_t g = begin; g < end; ++g) {
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
            break;
          }
          continue;
        }

        const FilterData* filter_data =
            slot.matcher.Filter(query, data, &slot.workspace);
        acc.max_aux = std::max(acc.max_aux, filter_data->MemoryBytes());

        if (filter_data->Passed()) {
          ++acc.candidates;
          timer.Restart();
          // CfqlMatcher::Enumerate, with the first level split across the
          // scheduler when it is large enough.
          const CandidateSets& phi = filter_data->phi;
          const std::vector<VertexId>& order =
              JoinBasedOrder(query, phi, &slot.workspace);
          const EnumerateResult er =
              scheduler_.ShouldSplit(phi.set(order[0]).size())
                  ? scheduler_.Enumerate(slot_id, query, data, phi, order,
                                         /*limit=*/1, deadline, nullptr,
                                         &slot.workspace)
                  : BacktrackOverCandidates(query, data, phi, order,
                                            /*limit=*/1, &checker, nullptr,
                                            &slot.workspace);
          acc.verify_nanos += timer.ElapsedNanos();
          ++acc.si_tests;
          acc.counters.AddCounters(er);
          if (er.embeddings > 0) found.push_back(static_cast<GraphId>(g));
          if (er.aborted) {
            timed_out.store(true, std::memory_order_relaxed);
            bail = true;
            break;
          }
        }
        if (deadline.Expired()) {
          timed_out.store(true, std::memory_order_relaxed);
          bail = true;
          break;
        }
      }
      // Partial chunks (timeout bail) register too: the frontier can then
      // pass them, keeping what was confirmed before the TIMEOUT.
      if (sink != nullptr) emit_chunk(begin, std::move(chunk_answers));
    }
    acc.filter_nanos = scan_timer.ElapsedNanos() - acc.verify_nanos;
    acc.verify_nanos += scheduler_.FinishScan(slot_id, &slot.workspace);
  };

  const WallTimer region_timer;
  scheduler_.BeginScan();
  for (uint32_t i = 0; i < pool_.num_threads(); ++i) {
    pool_.Submit([&worker, i] { worker(i); });
  }
  worker(executors - 1);  // the caller scans under the last slot id
  pool_.Wait();
  const double region_ms = region_timer.ElapsedMillis();

  int64_t filter_nanos = 0, verify_nanos = 0;
  for (const SlotAccumulator& acc : accumulators) {
    result.answers.insert(result.answers.end(), acc.answers.begin(),
                          acc.answers.end());
    result.stats.num_candidates += acc.candidates;
    result.stats.si_tests += acc.si_tests;
    AddIntersectCounters(&result.stats, acc.counters);
    result.stats.aux_memory_bytes =
        std::max(result.stats.aux_memory_bytes, acc.max_aux);
    filter_nanos += acc.filter_nanos;
    verify_nanos += acc.verify_nanos;
  }
  if (sink != nullptr) {
    result.answers = std::move(emitted);  // the emitted prefix, ascending
  } else {
    std::sort(result.answers.begin(), result.answers.end());
  }
  result.stats.num_answers = result.answers.size();
  result.stats.timed_out = timed_out.load();
  // QueryMs() is the region's wall time; the per-slot nanos only decide
  // how it splits between the two phases.
  const int64_t slot_nanos = filter_nanos + verify_nanos;
  result.stats.verification_ms =
      slot_nanos > 0 ? region_ms * static_cast<double>(verify_nanos) /
                           static_cast<double>(slot_nanos)
                     : 0;
  result.stats.filtering_ms = region_ms - result.stats.verification_ms;

  const StealCounters sc = scheduler_.DrainCounters();
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
