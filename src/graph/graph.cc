#include "graph/graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/mmap_file.h"

namespace sgq {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::span<const VertexId> Graph::VerticesWithLabel(Label l) const {
  const auto it =
      std::lower_bound(label_values_.begin(), label_values_.end(), l);
  if (it == label_values_.end() || *it != l) return {};
  const size_t slot = static_cast<size_t>(it - label_values_.begin());
  return {vertices_by_label_.data() + label_offsets_[slot],
          label_offsets_[slot + 1] - label_offsets_[slot]};
}

bool Graph::MayContain(const Graph& query) const {
  if (query.NumEdges() > NumEdges()) return false;
  size_t j = 0;
  for (size_t i = 0; i < query.label_values_.size(); ++i) {
    const Label l = query.label_values_[i];
    while (j < label_values_.size() && label_values_[j] < l) ++j;
    if (j == label_values_.size() || label_values_[j] != l) return false;
    if (query.label_offsets_[i + 1] - query.label_offsets_[i] >
        label_offsets_[j + 1] - label_offsets_[j]) {
      return false;
    }
    ++j;
  }
  return true;
}

void Graph::RebindViews() {
  if (owned_ == nullptr) {
    labels_ = {};
    offsets_ = {};
    neighbors_ = {};
    neighbor_labels_ = {};
    label_values_ = {};
    label_offsets_ = {};
    vertices_by_label_ = {};
    return;
  }
  labels_ = owned_->labels;
  offsets_ = owned_->offsets;
  neighbors_ = owned_->neighbors;
  neighbor_labels_ = owned_->neighbor_labels;
  label_values_ = owned_->label_values;
  label_offsets_ = owned_->label_offsets;
  vertices_by_label_ = owned_->vertices_by_label;
}

void Graph::CopyFrom(const Graph& other) {
  // Both modes share immutable storage: owned mode bumps the refcount on
  // the Owned block, view mode on the file mapping. The spans stay valid
  // because the underlying bytes are never mutated after publication.
  owned_ = other.owned_;
  mapping_ = other.mapping_;
  labels_ = other.labels_;
  offsets_ = other.offsets_;
  neighbors_ = other.neighbors_;
  neighbor_labels_ = other.neighbor_labels_;
  label_values_ = other.label_values_;
  label_offsets_ = other.label_offsets_;
  vertices_by_label_ = other.vertices_by_label_;
  candidate_index_ = other.candidate_index_;
  label_bound_ = other.label_bound_;
  max_degree_ = other.max_degree_;
}

void Graph::MoveFrom(Graph&& other) noexcept {
  // Moving vectors transfers their heap buffers, so the source's spans stay
  // valid for the destination in both modes.
  owned_ = std::move(other.owned_);
  mapping_ = std::move(other.mapping_);
  labels_ = other.labels_;
  offsets_ = other.offsets_;
  neighbors_ = other.neighbors_;
  neighbor_labels_ = other.neighbor_labels_;
  label_values_ = other.label_values_;
  label_offsets_ = other.label_offsets_;
  vertices_by_label_ = other.vertices_by_label_;
  candidate_index_ = std::move(other.candidate_index_);
  label_bound_ = other.label_bound_;
  max_degree_ = other.max_degree_;
  // Leave the source empty rather than dangling.
  other.labels_ = {};
  other.offsets_ = {};
  other.neighbors_ = {};
  other.neighbor_labels_ = {};
  other.label_values_ = {};
  other.label_offsets_ = {};
  other.vertices_by_label_ = {};
  other.label_bound_ = 0;
  other.max_degree_ = 0;
}

size_t Graph::MemoryBytes() const {
  if (mapping_ != nullptr || owned_ == nullptr) {
    // View mode (bytes the mapping makes resident when touched) and the
    // empty default graph both report the viewed sizes.
    return labels_.size_bytes() + offsets_.size_bytes() +
           neighbors_.size_bytes() + neighbor_labels_.size_bytes() +
           label_values_.size_bytes() + label_offsets_.size_bytes() +
           vertices_by_label_.size_bytes();
  }
  return owned_->labels.capacity() * sizeof(Label) +
         owned_->offsets.capacity() * sizeof(uint32_t) +
         owned_->neighbors.capacity() * sizeof(VertexId) +
         owned_->neighbor_labels.capacity() * sizeof(Label) +
         owned_->label_values.capacity() * sizeof(Label) +
         owned_->label_offsets.capacity() * sizeof(uint32_t) +
         owned_->vertices_by_label.capacity() * sizeof(VertexId);
}

void GraphBuilder::Reserve(uint32_t num_vertices, uint64_t num_edges) {
  labels_.reserve(num_vertices);
  adj_.reserve(num_vertices);
  edges_.reserve(num_edges);
}

VertexId GraphBuilder::AddVertex(Label label) {
  SGQ_CHECK_LE(label, kMaxLabel);
  labels_.push_back(label);
  adj_.emplace_back();
  return static_cast<VertexId>(labels_.size() - 1);
}

bool GraphBuilder::HasEdge(VertexId u, VertexId v) const {
  SGQ_CHECK_LT(u, labels_.size());
  SGQ_CHECK_LT(v, labels_.size());
  // Scan the smaller adjacency list.
  const auto& a = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const VertexId target = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

bool GraphBuilder::AddEdge(VertexId u, VertexId v) {
  SGQ_CHECK_LT(u, labels_.size());
  SGQ_CHECK_LT(v, labels_.size());
  SGQ_CHECK_NE(u, v) << "self loops are not supported";
  if (HasEdge(u, v)) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  edges_.emplace_back(u, v);
  return true;
}

Graph GraphBuilder::Build() const {
  // Fill a private Owned block, then publish it behind a shared_ptr so the
  // arrays are immutable-and-shared from the Graph's first breath.
  Graph::Owned o;
  const uint32_t n = NumVertices();
  o.labels = labels_;
  o.offsets.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    o.offsets[v + 1] = o.offsets[v] + static_cast<uint32_t>(adj_[v].size());
  }
  o.neighbors.resize(o.offsets[n]);
  o.neighbor_labels.resize(o.offsets[n]);
  uint32_t max_degree = 0;
  for (uint32_t v = 0; v < n; ++v) {
    auto* out = o.neighbors.data() + o.offsets[v];
    std::copy(adj_[v].begin(), adj_[v].end(), out);
    std::sort(out, out + adj_[v].size());
    auto* lab = o.neighbor_labels.data() + o.offsets[v];
    for (size_t i = 0; i < adj_[v].size(); ++i) lab[i] = labels_[out[i]];
    std::sort(lab, lab + adj_[v].size());
    max_degree = std::max(max_degree, static_cast<uint32_t>(adj_[v].size()));
  }

  // Label index over the distinct labels present (labels may be sparse).
  o.label_values = labels_;
  std::sort(o.label_values.begin(), o.label_values.end());
  o.label_values.erase(
      std::unique(o.label_values.begin(), o.label_values.end()),
      o.label_values.end());
  const uint32_t label_bound =
      o.label_values.empty() ? 0 : o.label_values.back() + 1;
  const size_t num_slots = o.label_values.size();
  auto slot_of = [&](Label l) {
    return static_cast<size_t>(
        std::lower_bound(o.label_values.begin(), o.label_values.end(), l) -
        o.label_values.begin());
  };
  o.label_offsets.assign(num_slots + 1, 0);
  for (Label l : labels_) ++o.label_offsets[slot_of(l) + 1];
  for (size_t s = 0; s < num_slots; ++s) {
    o.label_offsets[s + 1] += o.label_offsets[s];
  }
  o.vertices_by_label.resize(n);
  std::vector<uint32_t> cursor(o.label_offsets.begin(),
                               o.label_offsets.end() - 1);
  for (uint32_t v = 0; v < n; ++v) {
    o.vertices_by_label[cursor[slot_of(labels_[v])]++] = v;
  }

  Graph g;
  g.max_degree_ = max_degree;
  g.label_bound_ = label_bound;
  g.owned_ = std::make_shared<const Graph::Owned>(std::move(o));
  g.RebindViews();
  return g;
}

}  // namespace sgq
