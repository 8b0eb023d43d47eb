#include "query/vcfv_engine.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

bool VcfvEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  (void)deadline;  // nothing to build
  db_ = &db;
  return true;
}

QueryResult VcfvEngine::Query(const Graph& query, Deadline deadline) const {
  return Query(query, deadline, /*sink=*/nullptr);
}

QueryResult VcfvEngine::Query(const Graph& query, Deadline deadline,
                              ResultSink* sink) const {
  SGQ_CHECK(db_ != nullptr) << name_ << ": call Prepare() first";
  QueryResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  DeadlineChecker checker(deadline);
  // Only verification is timed per graph; filtering_ms is the rest of the
  // scan's wall time (screen, Filter() and loop overhead).
  WallTimer scan_timer;
  IntervalTimer verify_timer;
  uint64_t screened = 0;
  const uint64_t ws_hits_before = workspace_.filter_hits();
  const uint64_t ws_misses_before = workspace_.filter_misses();

  for (GraphId g = 0; g < db_->size(); ++g) {
    if (sink != nullptr && g != 0 && g % kSinkFlushIntervalGraphs == 0) {
      sink->FlushHint();
    }
    const Graph& data = db_->graph(g);
    if (!data.MayContain(query)) {
      if (++screened % kScreenedGraphsPerDeadlinePoll == 0 &&
          deadline.Expired()) {
        result.stats.timed_out = true;
        break;
      }
      continue;
    }

    // Filtering: the matcher's preprocessing phase (Algorithm 2, line 4),
    // into the engine's recycled workspace.
    const FilterData* filter_data =
        matcher_->Filter(query, data, &workspace_);
    result.stats.aux_memory_bytes =
        std::max(result.stats.aux_memory_bytes, filter_data->MemoryBytes());

    if (filter_data->Passed()) {
      ++result.stats.num_candidates;
      // Verification: first-match enumeration (Algorithm 2, line 6).
      verify_timer.Start();
      const EnumerateResult er =
          matcher_->Enumerate(query, data, *filter_data,
                              /*limit=*/1, &checker, &workspace_);
      verify_timer.Stop();
      ++result.stats.si_tests;
      AddIntersectCounters(&result.stats, er);
      bool sink_stopped = false;
      if (er.embeddings > 0) {
        result.answers.push_back(g);
        if (sink != nullptr) sink_stopped = !sink->OnAnswer(g);
      }
      if (er.aborted) {
        result.stats.timed_out = true;
        break;
      }
      if (sink_stopped) break;
    }
    // The enumeration polls the deadline internally; between graphs we poll
    // it directly so a slow filter-only stretch cannot overrun the limit.
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      break;
    }
  }
  if (sink != nullptr) sink->FlushHint();
  result.stats.verification_ms = verify_timer.TotalMillis();
  result.stats.filtering_ms =
      std::max(0.0, scan_timer.ElapsedMillis() - result.stats.verification_ms);
  result.stats.num_answers = result.answers.size();
  result.stats.ws_filter_hits = workspace_.filter_hits() - ws_hits_before;
  result.stats.ws_filter_misses =
      workspace_.filter_misses() - ws_misses_before;
  return result;
}

}  // namespace sgq
