#include "matching/workspace.h"

#include <bit>

#include "util/logging.h"

namespace sgq {

const uint64_t* MatchWorkspace::BuildAdjacencyRows(const Graph& data,
                                                   uint64_t vertices) {
  SGQ_CHECK(FitsInWord(data));
  if (adj_rows.size() < data.NumVertices()) adj_rows.resize(data.NumVertices());
  for (; vertices != 0; vertices &= vertices - 1) {
    const auto v = static_cast<VertexId>(std::countr_zero(vertices));
    adj_rows[v] = VertexWord(data.Neighbors(v));
  }
  return adj_rows.data();
}

size_t MatchWorkspace::MemoryBytes() const {
  size_t bytes = 0;
  if (filter_data_ != nullptr) bytes += filter_data_->MemoryBytes();
  bytes += backward_neighbors.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& v : backward_neighbors) {
    bytes += v.capacity() * sizeof(VertexId);
  }
  bytes += mapping.capacity() * sizeof(VertexId);
  bytes += phi_index.capacity() * sizeof(uint32_t);
  bytes += used_stamp.capacity() * sizeof(uint32_t) + placed.capacity();
  bytes += order.capacity() * sizeof(VertexId);
  bytes += phi_stamp.capacity() * sizeof(std::vector<uint32_t>);
  for (const auto& row : phi_stamp) bytes += row.capacity() * sizeof(uint32_t);
  bytes += phi_stamp_epoch.capacity() * sizeof(uint32_t);
  bytes += local_a.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& v : local_a) bytes += v.capacity() * sizeof(VertexId);
  bytes += local_b.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& v : local_b) bytes += v.capacity() * sizeof(VertexId);
  bytes += adj_by_size.capacity() * sizeof(std::pair<uint32_t, VertexId>);
  bytes += (adj_rows.capacity() + phi_bits.capacity() +
            reach_bits.capacity() + reach_map.capacity() +
            reach_next.capacity() + phi_maps.capacity()) *
           sizeof(uint64_t);
  for (const auto& matrix : ullmann_pool) {
    bytes += matrix.capacity() * sizeof(std::vector<VertexId>);
    for (const auto& row : matrix) bytes += row.capacity() * sizeof(VertexId);
  }
  bytes += ullmann_pool.capacity() * sizeof(std::vector<std::vector<VertexId>>);
  bytes += reverse_mapping.capacity() * sizeof(VertexId);
  bytes += term_query.capacity() * sizeof(uint32_t);
  bytes += term_data.capacity() * sizeof(uint32_t);
  bytes += byte_matrix.capacity();
  bytes += order_pos.capacity() * sizeof(uint32_t);
  bytes += index_of.capacity() * sizeof(uint32_t);
  bytes += in_core.capacity() / 8;
  bytes += core_degree.capacity() * sizeof(uint32_t);
  bytes += query_vertices.capacity() * sizeof(VertexId);
  return bytes;
}

}  // namespace sgq
