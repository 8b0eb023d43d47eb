// Vertex-labeled undirected graph in CSR form.
//
// This is the storage the paper uses for data graphs (Section IV-B5: "a label
// array, an offset array and an edge array"). On top of the raw CSR we keep
// two derived structures that the matching algorithms rely on:
//   * a label index (vertices grouped by label) for candidate generation, and
//   * per-vertex sorted neighbor-label arrays, which serve both GraphQL's
//     neighborhood profiles and the neighbor-label-frequency (NLF) filter.
//
// Storage modes: a Graph either OWNS its arrays (vectors filled by
// GraphBuilder, the historical mode) or VIEWS them inside a memory-mapped
// CSR snapshot (graph/csr_snapshot.h). Every accessor reads through spans
// that are valid in both modes, so the matchers and the intersection kernels
// (util/intersect.h) run directly on mapped adjacency arrays without any
// copy. View-mode graphs keep the mapping alive through a shared_ptr;
// copying one shares the mapping instead of duplicating the arrays.
//
// Owned storage is likewise held behind a shared_ptr<const Owned>: copying
// an owned-mode Graph shares the immutable CSR arrays instead of deep-
// copying them, which makes copying a whole GraphDatabase an O(#graphs)
// pointer-bump operation. This is the foundation of the copy-on-write
// versioned snapshots in src/update/ — a mutation clones the database
// cheaply and replaces only the affected Graph objects.
#ifndef SGQ_GRAPH_GRAPH_H_
#define SGQ_GRAPH_GRAPH_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "graph/types.h"

namespace sgq {

class GraphBuilder;
class MappedFile;
class VertexCandidateIndex;

class Graph {
 public:
  Graph() = default;

  Graph(const Graph& other) { CopyFrom(other); }
  Graph& operator=(const Graph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Graph(Graph&& other) noexcept { MoveFrom(std::move(other)); }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(labels_.size());
  }
  // Number of undirected edges.
  uint64_t NumEdges() const { return neighbors_.size() / 2; }

  Label label(VertexId v) const { return labels_[v]; }
  uint32_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  // Neighbors of v, sorted ascending by vertex id.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // Labels of the neighbors of v, sorted ascending by label value. This is
  // the "neighborhood profile" of GraphQL; multiset containment over two of
  // these arrays implements the NLF filter.
  std::span<const Label> NeighborLabels(VertexId v) const {
    return {neighbor_labels_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }

  // True iff the undirected edge (u, v) exists. O(log d(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  // One past the largest label value present (0 for the empty graph).
  // Arbitrary (sparse) label values are supported; the label index stores
  // only the distinct labels present.
  uint32_t LabelBound() const { return label_bound_; }
  // Number of distinct labels present.
  uint32_t NumDistinctLabels() const {
    return static_cast<uint32_t>(label_values_.size());
  }

  // All vertices with the given label, sorted ascending; empty span for
  // absent labels. O(log #distinct-labels).
  std::span<const VertexId> VerticesWithLabel(Label l) const;

  uint32_t NumVerticesWithLabel(Label l) const {
    return static_cast<uint32_t>(VerticesWithLabel(l).size());
  }

  // The graph-level screen the vcFV/IvcFV scans run ahead of a matcher's
  // Filter(): false iff `query` has more edges than this graph, or some
  // label occurs more often in `query` than here. Any monomorphism needs
  // both conditions, so false proves query ⊄ this graph. A merge over the
  // two label indexes: O(distinct labels), no allocation, owned and mapped
  // graphs alike.
  bool MayContain(const Graph& query) const;

  uint32_t MaxDegree() const { return max_degree_; }
  double AverageDegree() const {
    return NumVertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(NumEdges()) / NumVertices();
  }

  // True iff the CSR arrays live inside a memory-mapped snapshot rather
  // than heap vectors owned by this object.
  bool IsMapped() const { return mapping_ != nullptr; }

  // Optional per-graph candidate index (index/vertex_candidate_index.h).
  // Attached once at load time, immutable afterwards; shared by copies of
  // the graph. Null when no index was built (small graphs, tests).
  void SetCandidateIndex(std::shared_ptr<const VertexCandidateIndex> index) {
    candidate_index_ = std::move(index);
  }
  const VertexCandidateIndex* candidate_index() const {
    return candidate_index_.get();
  }

  // Footprint of all internal arrays in bytes (memory-cost metric). For
  // mapped graphs this is the size of the viewed arrays — bytes the mapping
  // makes resident when touched, shared with every other view of the file.
  size_t MemoryBytes() const;

 private:
  friend class GraphBuilder;
  friend class CsrSnapshotAccess;

  void CopyFrom(const Graph& other);
  void MoveFrom(Graph&& other) noexcept;
  // Points the view spans at the owned vectors (owned mode only).
  void RebindViews();

  // Owned storage; null in view mode and for the default-constructed
  // (empty) graph. Immutable once published, shared by copies.
  struct Owned {
    std::vector<Label> labels;
    std::vector<uint32_t> offsets;
    std::vector<VertexId> neighbors;
    std::vector<Label> neighbor_labels;
    std::vector<Label> label_values;
    std::vector<uint32_t> label_offsets;
    std::vector<VertexId> vertices_by_label;
  };
  std::shared_ptr<const Owned> owned_;

  // The views every accessor reads. In owned mode they alias owned_; in
  // view mode they point into *mapping_.
  std::span<const Label> labels_;
  std::span<const uint32_t> offsets_;        // size NumVertices() + 1
  std::span<const VertexId> neighbors_;      // sorted per vertex
  std::span<const Label> neighbor_labels_;   // sorted per vertex (by label)

  // Label index over the distinct labels present, sorted ascending:
  // vertices with label label_values_[i] occupy
  // vertices_by_label_[label_offsets_[i] .. label_offsets_[i+1]).
  std::span<const Label> label_values_;
  std::span<const uint32_t> label_offsets_;  // size label_values_.size() + 1
  std::span<const VertexId> vertices_by_label_;

  // Keeps the mapped bytes alive in view mode; null in owned mode.
  std::shared_ptr<const MappedFile> mapping_;
  std::shared_ptr<const VertexCandidateIndex> candidate_index_;

  uint32_t label_bound_ = 0;
  uint32_t max_degree_ = 0;
};

// Incremental construction of a Graph from vertices and edges. Duplicate
// edges and self-loops are rejected with a CHECK (callers such as the
// generators guarantee simple graphs; the IO layer pre-validates).
class GraphBuilder {
 public:
  GraphBuilder() = default;

  // Reserves space for an expected size (optional optimization).
  void Reserve(uint32_t num_vertices, uint64_t num_edges);

  // Adds a vertex with the given label; returns its id (dense, 0-based).
  VertexId AddVertex(Label label);

  // Adds the undirected edge (u, v). u and v must be existing distinct
  // vertices. Returns false (and adds nothing) if the edge already exists.
  bool AddEdge(VertexId u, VertexId v);

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(labels_.size());
  }
  uint64_t NumEdges() const { return edges_.size(); }

  bool HasEdge(VertexId u, VertexId v) const;

  // Neighbors accumulated so far (unsorted); used by generators that place
  // locality-aware edges while building.
  const std::vector<VertexId>& NeighborsDuringBuild(VertexId v) const {
    return adj_[v];
  }

  // Finalizes into a CSR Graph. The builder can keep being used afterwards
  // (Build copies).
  Graph Build() const;

 private:
  std::vector<Label> labels_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  // Adjacency during construction for O(d) duplicate detection.
  std::vector<std::vector<VertexId>> adj_;
};

}  // namespace sgq

#endif  // SGQ_GRAPH_GRAPH_H_
