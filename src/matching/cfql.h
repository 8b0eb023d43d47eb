// CFQL (Section III-B): the paper's hybrid vcFV algorithm — the Filter of
// CFL (fast CPI-based candidate construction) combined with the Verify of
// GraphQL (join-based ordering + backtracking over Φ), taking advantage of
// CFL's cheaper filtering and GraphQL's more robust ordering.
#ifndef SGQ_MATCHING_CFQL_H_
#define SGQ_MATCHING_CFQL_H_

#include <memory>

#include "matching/cfl.h"
#include "matching/matcher.h"

namespace sgq {

class CfqlMatcher : public Matcher {
 public:
  explicit CfqlMatcher(CflOptions filter_options = {})
      : cfl_(filter_options) {}

  const char* name() const override { return "CFQL"; }

  // CFL's preprocessing phase up to Φ: the GraphQL-style enumeration reads
  // only Φ, so the CPI edges and CFL's matching order are never built.
  std::unique_ptr<FilterData> Filter(const Graph& query,
                                     const Graph& data) const override {
    return cfl_.FilterCandidateSets(query, data);
  }
  FilterData* Filter(const Graph& query, const Graph& data,
                     MatchWorkspace* ws) const override {
    return cfl_.FilterCandidateSets(query, data, ws);
  }

  EnumerateResult Enumerate(const Graph& query, const Graph& data,
                            const FilterData& data_aux, uint64_t limit,
                            DeadlineChecker* checker,
                            const EmbeddingCallback& callback =
                                nullptr) const override;
  EnumerateResult Enumerate(const Graph& query, const Graph& data,
                            const FilterData& data_aux, uint64_t limit,
                            DeadlineChecker* checker, MatchWorkspace* ws,
                            const EmbeddingCallback& callback =
                                nullptr) const override;

 private:
  CflMatcher cfl_;
};

}  // namespace sgq

#endif  // SGQ_MATCHING_CFQL_H_
