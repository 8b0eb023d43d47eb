#include "matching/bigraph_matching.h"

#include <deque>

namespace sgq {

namespace {

constexpr uint32_t kUnmatched = UINT32_MAX;

// Finds an augmenting path from left vertex `source` with BFS; flips the
// path if found. Returns true on success.
bool Augment(const BigraphAdjacency& adj, uint32_t source,
             std::vector<uint32_t>* match_left,
             std::vector<uint32_t>* match_right,
             std::vector<uint32_t>* parent_right,
             std::vector<uint32_t>* visit_stamp, uint32_t stamp) {
  std::deque<uint32_t> queue;
  queue.push_back(source);
  uint32_t end_right = kUnmatched;
  while (!queue.empty() && end_right == kUnmatched) {
    const uint32_t l = queue.front();
    queue.pop_front();
    for (uint32_t r : adj[l]) {
      if ((*visit_stamp)[r] == stamp) continue;
      (*visit_stamp)[r] = stamp;
      (*parent_right)[r] = l;
      if ((*match_right)[r] == kUnmatched) {
        end_right = r;
        break;
      }
      queue.push_back((*match_right)[r]);
    }
  }
  if (end_right == kUnmatched) return false;
  // Flip along the alternating path.
  uint32_t r = end_right;
  while (true) {
    const uint32_t l = (*parent_right)[r];
    const uint32_t prev_r = (*match_left)[l];
    (*match_left)[l] = r;
    (*match_right)[r] = l;
    if (prev_r == kUnmatched) break;
    r = prev_r;
  }
  return true;
}

uint32_t Solve(const BigraphAdjacency& adj, uint32_t num_right,
               bool require_all_left) {
  const uint32_t num_left = static_cast<uint32_t>(adj.size());
  std::vector<uint32_t> match_left(num_left, kUnmatched);
  std::vector<uint32_t> match_right(num_right, kUnmatched);
  std::vector<uint32_t> parent_right(num_right, kUnmatched);
  std::vector<uint32_t> visit_stamp(num_right, 0);
  uint32_t matched = 0;
  for (uint32_t l = 0; l < num_left; ++l) {
    // Cheap greedy first.
    bool advanced = false;
    for (uint32_t r : adj[l]) {
      if (match_right[r] == kUnmatched) {
        match_right[r] = l;
        match_left[l] = r;
        ++matched;
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      if (Augment(adj, l, &match_left, &match_right, &parent_right,
                  &visit_stamp, l + 1)) {
        ++matched;
      } else if (require_all_left) {
        return matched;  // early exit: left vertex l cannot be covered
      }
    }
  }
  return matched;
}

}  // namespace

uint32_t MaxBipartiteMatching(const BigraphAdjacency& adj,
                              uint32_t num_right) {
  return Solve(adj, num_right, /*require_all_left=*/false);
}

bool HasSemiPerfectMatching(const BigraphAdjacency& adj, uint32_t num_right) {
  const uint32_t matched = Solve(adj, num_right, /*require_all_left=*/true);
  return matched == adj.size();
}

}  // namespace sgq
