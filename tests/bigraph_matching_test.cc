#include "matching/bigraph_matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "util/rng.h"

namespace sgq {
namespace {

// Exponential-time reference: maximum matching by trying all assignments of
// left vertices to distinct right vertices.
uint32_t BruteForceMatching(const BigraphAdjacency& adj, uint32_t num_right) {
  const uint32_t num_left = static_cast<uint32_t>(adj.size());
  uint32_t best = 0;
  std::vector<bool> used(num_right, false);
  // Recursive lambda over left index.
  std::function<void(uint32_t, uint32_t)> go = [&](uint32_t l,
                                                   uint32_t matched) {
    best = std::max(best, matched);
    if (l == num_left) return;
    go(l + 1, matched);  // leave l unmatched
    for (uint32_t r : adj[l]) {
      if (!used[r]) {
        used[r] = true;
        go(l + 1, matched + 1);
        used[r] = false;
      }
    }
  };
  go(0, 0);
  return best;
}

TEST(BigraphMatchingTest, EmptyGraph) {
  EXPECT_EQ(MaxBipartiteMatching({}, 0), 0u);
  EXPECT_TRUE(HasSemiPerfectMatching({}, 0));
}

TEST(BigraphMatchingTest, PerfectMatchingExists) {
  // 0-{0,1}, 1-{0}: match 1->0, 0->1.
  BigraphAdjacency adj = {{0, 1}, {0}};
  EXPECT_EQ(MaxBipartiteMatching(adj, 2), 2u);
  EXPECT_TRUE(HasSemiPerfectMatching(adj, 2));
}

TEST(BigraphMatchingTest, NeedsAugmentingPath) {
  // Greedy matches 0->0; augmenting path needed for 1 and 2.
  BigraphAdjacency adj = {{0, 1}, {0}, {1, 2}};
  EXPECT_EQ(MaxBipartiteMatching(adj, 3), 3u);
  EXPECT_TRUE(HasSemiPerfectMatching(adj, 3));
}

TEST(BigraphMatchingTest, NoSemiPerfectWhenLeftVertexIsolated) {
  BigraphAdjacency adj = {{0}, {}};
  EXPECT_EQ(MaxBipartiteMatching(adj, 1), 1u);
  EXPECT_FALSE(HasSemiPerfectMatching(adj, 1));
}

TEST(BigraphMatchingTest, BottleneckRightVertex) {
  // Three left vertices all compete for one right vertex.
  BigraphAdjacency adj = {{0}, {0}, {0}};
  EXPECT_EQ(MaxBipartiteMatching(adj, 1), 1u);
  EXPECT_FALSE(HasSemiPerfectMatching(adj, 1));
}

TEST(BigraphMatchingTest, RandomizedAgainstBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t num_left = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    const uint32_t num_right = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    BigraphAdjacency adj(num_left);
    for (uint32_t l = 0; l < num_left; ++l) {
      for (uint32_t r = 0; r < num_right; ++r) {
        if (rng.NextBool(0.4)) adj[l].push_back(r);
      }
    }
    const uint32_t expected = BruteForceMatching(adj, num_right);
    EXPECT_EQ(MaxBipartiteMatching(adj, num_right), expected)
        << "trial " << trial;
    EXPECT_EQ(HasSemiPerfectMatching(adj, num_right), expected == num_left)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace sgq
