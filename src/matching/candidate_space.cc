#include "matching/candidate_space.h"

#include <algorithm>

#include "graph/graph_utils.h"
#include "index/vertex_candidate_index.h"

namespace sgq {

void CandidateSets::ResetForReuse(uint32_t num_query_vertices) {
  // resize() keeps the capacity of surviving inner vectors; only a shrink
  // releases the trailing ones (queries in one workload rarely shrink).
  sets_.resize(num_query_vertices);
  for (auto& s : sets_) s.clear();
}

bool CandidateSets::Contains(VertexId u, VertexId v) const {
  const auto& s = sets_[u];
  return std::binary_search(s.begin(), s.end(), v);
}

bool CandidateSets::AllNonEmpty() const {
  for (const auto& s : sets_) {
    if (s.empty()) return false;
  }
  return !sets_.empty();
}

uint64_t CandidateSets::TotalCandidates() const {
  uint64_t total = 0;
  for (const auto& s : sets_) total += s.size();
  return total;
}

size_t CandidateSets::MemoryBytes() const {
  size_t bytes = sets_.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& s : sets_) bytes += s.capacity() * sizeof(VertexId);
  return bytes;
}

bool PassesDegreeNlf(const Graph& query, const Graph& data, VertexId u,
                     VertexId v, bool use_nlf) {
  if (data.degree(v) < query.degree(u)) return false;
  if (use_nlf &&
      !SortedMultisetContains(data.NeighborLabels(v),
                              query.NeighborLabels(u))) {
    return false;
  }
  return true;
}

bool PassesLdfNlf(const Graph& query, const Graph& data, VertexId u,
                  VertexId v, bool use_nlf) {
  if (data.label(v) != query.label(u)) return false;
  return PassesDegreeNlf(query, data, u, v, use_nlf);
}

void LdfNlfCandidatesInto(const Graph& query, const Graph& data, VertexId u,
                          bool use_nlf, std::vector<VertexId>* out) {
  out->clear();
  if (const auto* index = data.candidate_index()) {
    // Fast path for indexed (massive) data graphs: the degree slice is a
    // binary search and the signature AND kills most NLF failures before the
    // multiset walk. Both filters are conservative and the exact NLF
    // predicate runs on their survivors, so the result is bit-identical to
    // the full-scan path.
    const uint64_t sig =
        use_nlf ? VertexCandidateIndex::SignatureOf(query.NeighborLabels(u))
                : 0;
    index->CollectCandidates(
        query.label(u), query.degree(u), sig, out, [&](VertexId v) {
          return !use_nlf || SortedMultisetContains(data.NeighborLabels(v),
                                                    query.NeighborLabels(u));
        });
    return;  // CollectCandidates appends in ascending id order.
  }
  // Everything VerticesWithLabel yields already carries the label, so the
  // scan checks only degree + neighbor profile.
  const auto with_label = data.VerticesWithLabel(query.label(u));
  out->reserve(with_label.size());
  for (VertexId v : with_label) {
    if (PassesDegreeNlf(query, data, u, v, use_nlf)) out->push_back(v);
  }
  // VerticesWithLabel is sorted, so out is sorted.
}

std::vector<VertexId> LdfNlfCandidates(const Graph& query, const Graph& data,
                                       VertexId u, bool use_nlf) {
  std::vector<VertexId> result;
  LdfNlfCandidatesInto(query, data, u, use_nlf, &result);
  return result;
}

}  // namespace sgq
