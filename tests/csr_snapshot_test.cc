// Tests for the binary mmap CSR snapshot format (graph/csr_snapshot.h):
// golden header bytes, round-trip equality, rejection of corrupt /
// truncated / mismatched files, and zero-copy view semantics.
#include "graph/csr_snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gen/biggraph_gen.h"
#include "gen/graph_gen.h"
#include "graph/graph_io.h"

namespace sgq {
namespace {

// Unique-ish temp path per test; files are small and /tmp is disposable.
std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "csr_snapshot_" + tag + ".bin";
}

GraphDatabase SmallDatabase() {
  SyntheticParams params;
  params.num_graphs = 7;
  params.vertices_per_graph = 40;
  params.degree = 4.0;
  params.num_labels = 6;
  params.seed = 42;
  return GenerateSyntheticDatabase(params);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(CsrSnapshotTest, GoldenHeaderBytes) {
  const std::string path = TempPath("golden");
  GraphDatabase db;
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddEdge(0, 1);
  db.Add(b.Build());
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;

  const std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 64u);
  // Magic: "SGQCSR1\n" at offset 0.
  EXPECT_EQ(0, std::memcmp(bytes.data(), "SGQCSR1\n", 8));
  // Version 1 (u32 LE) at offset 8.
  EXPECT_EQ(1, bytes[8]);
  EXPECT_EQ(0, bytes[9]);
  EXPECT_EQ(0, bytes[10]);
  EXPECT_EQ(0, bytes[11]);
  // Endian tag 0x01020304 written in host order: on the little-endian hosts
  // the format supports, byte 12 is 0x04.
  EXPECT_EQ(0x04, bytes[12]);
  EXPECT_EQ(0x03, bytes[13]);
  EXPECT_EQ(0x02, bytes[14]);
  EXPECT_EQ(0x01, bytes[15]);
  // Graph count (u64 LE) at offset 16.
  EXPECT_EQ(1, bytes[16]);
  EXPECT_EQ(0, bytes[17]);
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, RoundTripEquality) {
  const std::string path = TempPath("roundtrip");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;

  GraphDatabase loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error, /*verify_checksum=*/true))
      << error;
  EXPECT_TRUE(DatabasesEqual(db, loaded));
  ASSERT_EQ(db.size(), loaded.size());
  for (GraphId i = 0; i < loaded.size(); ++i) {
    EXPECT_FALSE(db.graph(i).IsMapped());
    EXPECT_TRUE(loaded.graph(i).IsMapped());
  }
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, AutoDetectedByLoadDatabase) {
  const std::string path = TempPath("autodetect");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  EXPECT_TRUE(IsSnapshotFile(path));

  GraphDatabase loaded;
  ASSERT_TRUE(LoadDatabase(path, &loaded, &error)) << error;
  EXPECT_TRUE(DatabasesEqual(db, loaded));
  EXPECT_TRUE(loaded.graph(0).IsMapped());
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, EmptyAndDegenerateGraphs) {
  const std::string path = TempPath("degenerate");
  GraphDatabase db;
  db.Add(Graph());  // never-built empty graph
  GraphBuilder lone;
  lone.AddVertex(3);
  db.Add(lone.Build());  // one vertex, no edges
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  GraphDatabase loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error, /*verify_checksum=*/true))
      << error;
  EXPECT_TRUE(DatabasesEqual(db, loaded));
  EXPECT_EQ(0u, loaded.graph(0).NumVertices());
  EXPECT_EQ(1u, loaded.graph(1).NumVertices());
  EXPECT_EQ(3u, loaded.graph(1).label(0));
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  EXPECT_FALSE(IsSnapshotFile(path));
  GraphDatabase loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, RejectsVersionMismatch) {
  const std::string path = TempPath("badversion");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  std::string bytes = ReadFile(path);
  bytes[8] = 99;  // version field
  WriteFile(path, bytes);
  GraphDatabase loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, RejectsEndianMismatch) {
  const std::string path = TempPath("badendian");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  std::string bytes = ReadFile(path);
  // Byte-swap the endian tag: what a big-endian writer would have produced.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  WriteFile(path, bytes);
  GraphDatabase loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  EXPECT_NE(error.find("endian"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, RejectsTruncation) {
  const std::string path = TempPath("truncated");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  std::string bytes = ReadFile(path);
  // Structural load (no checksum) already catches truncation through the
  // exact-file-size check.
  WriteFile(path, bytes.substr(0, bytes.size() - 16));
  GraphDatabase loaded;
  EXPECT_FALSE(LoadSnapshot(path, &loaded, &error));
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, ChecksumCatchesPayloadCorruption) {
  const std::string path = TempPath("corrupt");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  std::string bytes = ReadFile(path);
  // Flip one payload byte near the end: structurally plausible, so only the
  // checksum can catch it.
  bytes[bytes.size() - 1] ^= 0x40;
  WriteFile(path, bytes);
  EXPECT_FALSE(VerifySnapshot(path, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  GraphDatabase loaded;
  EXPECT_FALSE(
      LoadSnapshot(path, &loaded, &error, /*verify_checksum=*/true));
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, VerifySnapshotAcceptsIntactFile) {
  const std::string path = TempPath("verifyok");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  EXPECT_TRUE(VerifySnapshot(path, &error)) << error;
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, ReadSnapshotInfo) {
  const std::string path = TempPath("info");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  SnapshotInfo info;
  ASSERT_TRUE(ReadSnapshotInfo(path, &info, &error)) << error;
  EXPECT_EQ(kSnapshotVersion, info.version);
  EXPECT_EQ(db.size(), info.num_graphs);
  uint64_t vertices = 0, edges = 0;
  for (GraphId i = 0; i < db.size(); ++i) {
    vertices += db.graph(i).NumVertices();
    edges += db.graph(i).NumEdges();
  }
  EXPECT_EQ(vertices, info.total_vertices);
  EXPECT_EQ(edges, info.total_edges);
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, MappedGraphCopiesShareTheMapping) {
  const std::string path = TempPath("copies");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  GraphDatabase loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;

  // A copy of a mapped graph stays a view (no materialization) and keeps
  // the mapping alive even after the database that loaded it is gone.
  Graph copy = loaded.graph(0);
  EXPECT_TRUE(copy.IsMapped());
  const Graph original = loaded.graph(0);
  loaded = GraphDatabase();
  std::remove(path.c_str());  // mapping survives unlink
  EXPECT_TRUE(GraphsEqual(copy, original));
  EXPECT_GT(copy.NumVertices(), 0u);
}

TEST(CsrSnapshotTest, MappedGraphMemoryBytesCountsViewedArrays) {
  const std::string path = TempPath("membytes");
  GraphDatabase db;
  db.Add(GeneratePowerLawGraph({.num_vertices = 2048,
                                .avg_degree = 8.0,
                                .num_labels = 8,
                                .label_skew = 1.0,
                                .seed = 3}));
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  GraphDatabase loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  // Same arrays, so the mapped footprint matches the owned footprint's
  // element bytes (owned counts capacities, which Build keeps tight).
  EXPECT_GT(loaded.graph(0).MemoryBytes(), 0u);
  EXPECT_LE(loaded.graph(0).MemoryBytes(), db.graph(0).MemoryBytes());
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, MayContainReadsTheMappedLabelIndex) {
  const std::string path = TempPath("maycontain");
  const GraphDatabase db = SmallDatabase();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  GraphDatabase loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), db.size());
  // Every (query, data) pair of the database, with queries and data graphs
  // taken from either storage mode: the screen reads the same label index.
  uint64_t rejected = 0;
  for (GraphId q = 0; q < db.size(); ++q) {
    for (GraphId g = 0; g < db.size(); ++g) {
      SCOPED_TRACE(::testing::Message() << "query " << q << " data " << g);
      ASSERT_TRUE(loaded.graph(g).IsMapped());
      const bool owned = db.graph(g).MayContain(db.graph(q));
      EXPECT_EQ(loaded.graph(g).MayContain(db.graph(q)), owned);
      EXPECT_EQ(loaded.graph(g).MayContain(loaded.graph(q)), owned);
      EXPECT_EQ(db.graph(g).MayContain(loaded.graph(q)), owned);
      rejected += owned ? 0 : 1;
    }
    EXPECT_TRUE(loaded.graph(q).MayContain(loaded.graph(q)));
  }
  // The graphs differ in size and label counts, so some pairs are screened.
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

TEST(CsrSnapshotTest, PowerLawRoundTrip) {
  const std::string path = TempPath("powerlaw");
  PowerLawParams params;
  params.num_vertices = 5000;
  params.avg_degree = 12.0;
  params.num_labels = 16;
  params.seed = 11;
  GraphDatabase db;
  db.Add(GeneratePowerLawGraph(params));
  std::string error;
  ASSERT_TRUE(WriteSnapshot(db, path, &error)) << error;
  GraphDatabase loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error, /*verify_checksum=*/true))
      << error;
  EXPECT_TRUE(DatabasesEqual(db, loaded));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgq
