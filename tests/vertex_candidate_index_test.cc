// Tests for the degree/label-partitioned candidate index
// (index/vertex_candidate_index.h): exact equivalence with the full-scan
// LDF/NLF path, filter conservativeness, and the attach threshold.
#include "index/vertex_candidate_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "gen/biggraph_gen.h"
#include "gen/graph_gen.h"
#include "graph/graph_utils.h"
#include "matching/candidate_space.h"
#include "util/rng.h"

namespace sgq {
namespace {

// Full-scan reference: the pre-index LdfNlfCandidatesInto body.
std::vector<VertexId> FullScanCandidates(const Graph& query,
                                         const Graph& data, VertexId u,
                                         bool use_nlf) {
  std::vector<VertexId> out;
  for (VertexId v : data.VerticesWithLabel(query.label(u))) {
    if (PassesDegreeNlf(query, data, u, v, use_nlf)) out.push_back(v);
  }
  return out;
}

Graph RandomQuery(uint32_t vertices, double degree, uint32_t labels,
                  uint64_t seed) {
  std::vector<Label> pool(labels);
  for (uint32_t l = 0; l < labels; ++l) pool[l] = l;
  Rng rng(seed);
  return GenerateRandomGraph(vertices, degree, pool, &rng);
}

TEST(VertexCandidateIndexTest, MatchesFullScanOnRandomGraphs) {
  PowerLawParams params;
  params.num_vertices = 3000;
  params.avg_degree = 10.0;
  params.num_labels = 12;
  params.seed = 7;
  const Graph data = GeneratePowerLawGraph(params);
  Graph indexed = data;
  indexed.SetCandidateIndex(VertexCandidateIndex::Build(indexed));

  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph query = RandomQuery(6, 2.5, params.num_labels, seed);
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      for (bool use_nlf : {false, true}) {
        const std::vector<VertexId> expected =
            FullScanCandidates(query, data, u, use_nlf);
        std::vector<VertexId> actual;
        LdfNlfCandidatesInto(query, indexed, u, use_nlf, &actual);
        EXPECT_EQ(expected, actual)
            << "seed " << seed << " u " << u << " nlf " << use_nlf;
      }
    }
  }
}

TEST(VertexCandidateIndexTest, CollectCandidatesIsConservativeAndSorted) {
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 8.0;
  params.num_labels = 6;
  params.seed = 5;
  const Graph g = GeneratePowerLawGraph(params);
  const auto index = VertexCandidateIndex::Build(g);

  for (Label l = 0; l < params.num_labels; ++l) {
    for (uint32_t min_degree : {0u, 1u, 3u, 8u, 50u}) {
      std::vector<VertexId> got;
      index->CollectCandidates(l, min_degree, /*sig=*/0, &got);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      // sig = 0 means no signature constraint: the result must be exactly
      // the label+degree slice.
      std::vector<VertexId> expected;
      for (VertexId v : g.VerticesWithLabel(l)) {
        if (g.degree(v) >= min_degree) expected.push_back(v);
      }
      EXPECT_EQ(expected, got) << "label " << l << " deg " << min_degree;

      // With a predicate: the sorted subset of the slice it keeps.
      auto keep = [&](VertexId v) { return (v + min_degree) % 3 != 0; };
      std::vector<VertexId> kept;
      index->CollectCandidates(l, min_degree, /*sig=*/0, &kept, keep);
      std::vector<VertexId> expected_kept;
      std::copy_if(expected.begin(), expected.end(),
                   std::back_inserter(expected_kept), keep);
      EXPECT_EQ(expected_kept, kept) << "label " << l << " deg " << min_degree;
    }
  }
}

TEST(VertexCandidateIndexTest, SignatureNeverRejectsTrueCandidate) {
  PowerLawParams params;
  params.num_vertices = 1500;
  params.avg_degree = 8.0;
  params.num_labels = 100;  // force hashed signature bits (labels >= 64)
  params.label_skew = 0.5;
  params.seed = 9;
  const Graph data = GeneratePowerLawGraph(params);
  const auto index = VertexCandidateIndex::Build(data);

  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph query = RandomQuery(5, 2.0, params.num_labels, seed);
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      const uint64_t sig =
          VertexCandidateIndex::SignatureOf(query.NeighborLabels(u));
      std::vector<VertexId> got;
      index->CollectCandidates(query.label(u), query.degree(u), sig, &got);
      // Every exact-NLF survivor of the full scan must be in the
      // signature-filtered set (superset property).
      for (VertexId v : FullScanCandidates(query, data, u, true)) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), v))
            << "signature dropped true candidate " << v;
      }
    }
  }
}

TEST(VertexCandidateIndexTest, CountWithLabelDegreeIsExact) {
  PowerLawParams params;
  params.num_vertices = 1200;
  params.avg_degree = 6.0;
  params.num_labels = 5;
  params.seed = 13;
  const Graph g = GeneratePowerLawGraph(params);
  const auto index = VertexCandidateIndex::Build(g);
  for (Label l = 0; l < params.num_labels + 1; ++l) {
    for (uint32_t min_degree : {0u, 1u, 2u, 5u, 9u, 1000u}) {
      uint32_t expected = 0;
      for (VertexId v : g.VerticesWithLabel(l)) {
        if (g.degree(v) >= min_degree) ++expected;
      }
      EXPECT_EQ(expected, index->CountWithLabelDegree(l, min_degree));
    }
    EXPECT_EQ(g.VerticesWithLabel(l).size(), index->BucketSize(l));
  }
}

TEST(VertexCandidateIndexTest, UnknownLabelYieldsNothing) {
  GraphBuilder b;
  b.AddVertex(2);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  const auto index = VertexCandidateIndex::Build(g);
  std::vector<VertexId> out;
  EXPECT_EQ(0u, index->CollectCandidates(7, 0, 0, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(0u, index->CountWithLabelDegree(7, 0));
  EXPECT_EQ(0u, index->BucketSize(7));
}

TEST(VertexCandidateIndexTest, AttachThresholdAndEnvOverride) {
  // The env override beats the explicit threshold by design (that is what
  // the SGQ_CANDIDATE_INDEX=on CI leg relies on), so the threshold
  // sub-cases must run without an ambient value.
  const char* ambient = ::getenv("SGQ_CANDIDATE_INDEX");
  const std::string saved = ambient != nullptr ? ambient : "";
  ::unsetenv("SGQ_CANDIDATE_INDEX");

  GraphDatabase db;
  db.Add(GeneratePowerLawGraph({.num_vertices = 64,
                                .avg_degree = 4.0,
                                .num_labels = 4,
                                .label_skew = 1.0,
                                .seed = 1}));
  db.Add(GeneratePowerLawGraph({.num_vertices = 512,
                                .avg_degree = 4.0,
                                .num_labels = 4,
                                .label_skew = 1.0,
                                .seed = 2}));

  // Threshold selects only the larger graph.
  EXPECT_EQ(1u, AttachCandidateIndexes(&db, 100));
  EXPECT_EQ(nullptr, db.graph(0).candidate_index());
  EXPECT_NE(nullptr, db.graph(1).candidate_index());

  // UINT32_MAX disables.
  GraphDatabase db2;
  db2.Add(db.graph(1));
  db2.mutable_graph(0).SetCandidateIndex(nullptr);
  EXPECT_EQ(0u, AttachCandidateIndexes(&db2, UINT32_MAX));
  EXPECT_EQ(nullptr, db2.graph(0).candidate_index());

  // SGQ_CANDIDATE_INDEX=on indexes everything, =off nothing.
  ::setenv("SGQ_CANDIDATE_INDEX", "on", 1);
  EXPECT_EQ(1u, AttachCandidateIndexes(&db2, UINT32_MAX));
  EXPECT_NE(nullptr, db2.graph(0).candidate_index());
  db2.mutable_graph(0).SetCandidateIndex(nullptr);
  ::setenv("SGQ_CANDIDATE_INDEX", "off", 1);
  EXPECT_EQ(0u, AttachCandidateIndexes(&db2, 0));
  EXPECT_EQ(nullptr, db2.graph(0).candidate_index());
  if (ambient != nullptr) {
    ::setenv("SGQ_CANDIDATE_INDEX", saved.c_str(), 1);
  } else {
    ::unsetenv("SGQ_CANDIDATE_INDEX");
  }
}

TEST(VertexCandidateIndexTest, MemoryBytesScalesWithVertices) {
  const Graph g = GeneratePowerLawGraph({.num_vertices = 1000,
                                         .avg_degree = 6.0,
                                         .num_labels = 8,
                                         .label_skew = 1.0,
                                         .seed = 4});
  const auto index = VertexCandidateIndex::Build(g);
  EXPECT_EQ(1000u, index->NumVertices());
  // ids + degrees + signatures = 16 bytes/vertex plus small bucket tables.
  EXPECT_GE(index->MemoryBytes(), 16000u);
  EXPECT_LT(index->MemoryBytes(), 32000u);
}

}  // namespace
}  // namespace sgq
