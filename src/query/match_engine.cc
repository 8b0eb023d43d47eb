#include "query/match_engine.h"

#include <algorithm>
#include <numeric>

#include "query/query_engine.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

bool MatchEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  db_ = &db;
  if (index_ != nullptr) return index_->Build(db, deadline);
  return true;
}

MatchResult MatchEngine::Match(const Graph& query, const MatchOptions& options,
                               Deadline deadline) const {
  SGQ_CHECK(db_ != nullptr) << "call Prepare() first";
  MatchResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  DeadlineChecker checker(deadline);
  // Only verification is timed per graph; filtering_ms is the rest of the
  // call's wall time (index lookup, screen, Filter() and loop overhead).
  WallTimer scan_timer;
  IntervalTimer verify_timer;
  const uint64_t ws_hits_before = workspace_.filter_hits();
  const uint64_t ws_misses_before = workspace_.filter_misses();

  // Level-1 filtering (hybrid mode only).
  std::vector<GraphId> candidates;
  if (index_ != nullptr) {
    candidates = index_->FilterCandidates(query);
  } else {
    candidates.resize(db_->size());
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  uint64_t screened = 0;
  for (GraphId g : candidates) {
    const Graph& data = db_->graph(g);
    if (!data.MayContain(query)) {
      if (++screened % kScreenedGraphsPerDeadlinePoll == 0 &&
          deadline.Expired()) {
        result.stats.timed_out = true;
        break;
      }
      continue;
    }

    const FilterData* filter_data =
        matcher_->Filter(query, data, &workspace_);
    result.stats.aux_memory_bytes =
        std::max(result.stats.aux_memory_bytes, filter_data->MemoryBytes());

    if (filter_data->Passed()) {
      ++result.stats.num_candidates;
      GraphMatches matches;
      matches.graph = g;
      EmbeddingCallback callback = nullptr;
      if (options.collect_embeddings) {
        callback = [&matches](const std::vector<VertexId>& mapping) {
          matches.embeddings.push_back(mapping);
          return true;
        };
      }
      verify_timer.Start();
      const EnumerateResult er =
          matcher_->Enumerate(query, data, *filter_data,
                              options.per_graph_limit, &checker, &workspace_,
                              callback);
      verify_timer.Stop();
      ++result.stats.si_tests;
      AddIntersectCounters(&result.stats, er);
      matches.num_embeddings = er.embeddings;
      result.total_embeddings += er.embeddings;
      if (er.embeddings > 0) result.matches.push_back(std::move(matches));
      if (er.aborted) {
        result.stats.timed_out = true;
        break;
      }
    }
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      break;
    }
  }
  result.stats.verification_ms = verify_timer.TotalMillis();
  result.stats.filtering_ms =
      std::max(0.0, scan_timer.ElapsedMillis() - result.stats.verification_ms);
  result.stats.num_answers = result.matches.size();
  result.stats.ws_filter_hits = workspace_.filter_hits() - ws_hits_before;
  result.stats.ws_filter_misses =
      workspace_.filter_misses() - ws_misses_before;
  return result;
}

}  // namespace sgq
