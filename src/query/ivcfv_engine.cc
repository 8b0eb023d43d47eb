#include "query/ivcfv_engine.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

bool IvcfvEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  db_ = &db;
  return index_->Build(db, deadline);
}

bool IvcfvEngine::NotifyAdded(GraphId id, Deadline deadline) {
  SGQ_CHECK(db_ != nullptr);
  SGQ_CHECK_LT(id, db_->size());
  return index_->AppendGraph(db_->graph(id), deadline);
}

bool IvcfvEngine::ApplyUpdate(const GraphDatabase& db,
                              std::span<const DbDelta> deltas,
                              Deadline deadline) {
  if (!index_->built()) return Prepare(db, deadline);
  db_ = &db;
  for (const DbDelta& d : deltas) {
    if (d.kind == DbDelta::Kind::kAdd) {
      if (d.local_id != index_->NumLogicalGraphs()) {
        return Prepare(db, deadline);
      }
      if (!index_->AppendGraph(d.added, deadline)) return false;
    } else {
      if (d.local_id >= index_->NumLogicalGraphs()) {
        return Prepare(db, deadline);
      }
      index_->OnOrderedRemove(d.local_id);
    }
  }
  if (index_->NumLogicalGraphs() != db.size()) return Prepare(db, deadline);
  return true;
}

QueryResult IvcfvEngine::Query(const Graph& query, Deadline deadline) const {
  return Query(query, deadline, /*sink=*/nullptr);
}

QueryResult IvcfvEngine::Query(const Graph& query, Deadline deadline,
                               ResultSink* sink) const {
  SGQ_CHECK(db_ != nullptr && index_->built())
      << name_ << ": Prepare() must succeed before Query()";
  QueryResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  DeadlineChecker checker(deadline);
  // Only verification is timed per graph; filtering_ms is the rest of the
  // query's wall time (index lookup, screen, Filter() and loop overhead).
  WallTimer scan_timer;
  IntervalTimer verify_timer;

  // Level-1 filtering: the index. C'(q) in Section IV-B2.
  const std::vector<GraphId> index_candidates =
      index_->FilterCandidates(query);

  const uint64_t ws_hits_before = workspace_.filter_hits();
  const uint64_t ws_misses_before = workspace_.filter_misses();
  GraphId walked = 0;
  uint64_t screened = 0;
  for (GraphId g : index_candidates) {
    if (sink != nullptr && walked != 0 &&
        walked % kSinkFlushIntervalGraphs == 0) {
      sink->FlushHint();
    }
    ++walked;
    const Graph& data = db_->graph(g);
    if (!data.MayContain(query)) {
      if (++screened % kScreenedGraphsPerDeadlinePoll == 0 &&
          deadline.Expired()) {
        result.stats.timed_out = true;
        break;
      }
      continue;
    }

    // Level-2 filtering: the matcher's preprocessing (vertex connectivity),
    // into the engine's recycled workspace.
    const FilterData* filter_data =
        matcher_->Filter(query, data, &workspace_);
    result.stats.aux_memory_bytes =
        std::max(result.stats.aux_memory_bytes, filter_data->MemoryBytes());

    if (filter_data->Passed()) {
      ++result.stats.num_candidates;
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
