// Construction of the paper's eight competing algorithms (Table III) by
// name, plus the naive VF2-scan baseline used in tests.
#ifndef SGQ_QUERY_ENGINE_FACTORY_H_
#define SGQ_QUERY_ENGINE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "query/query_engine.h"
#include "util/defaults.h"

namespace sgq {

struct EngineConfig {
  // Grapes / GGSX / vcGrapes / vcGGSX path length (edges).
  uint32_t max_path_edges = 4;
  // Grapes / vcGrapes build threads.
  uint32_t grapes_threads = 6;
  // Index build memory budget (0 = unlimited): exceeding it makes Prepare
  // fail with BuildFailure::kMemory (the paper's OOM rows).
  size_t index_memory_limit_bytes = 0;
  // CT-Index fingerprint width and feature sizes.
  uint32_t ct_fingerprint_bits = 4096;
  uint32_t ct_max_tree_edges = 4;
  uint32_t ct_max_cycle_length = 4;
  // CFQL-parallel pool threads (0 = hardware concurrency).
  uint32_t parallel_threads = 0;
  // Query-result cache budget in MiB (0 disables). Consumed by the front
  // ends that sit above the engines — the query service and `sgq_cli
  // query` — not by the engines themselves; it lives here so every front
  // end shares one knob (`--cache-mb` / `--cache off`).
  size_t cache_mb = 64;
  // Data graphs with at least this many vertices get a degree/label-
  // partitioned candidate index attached at load time
  // (index/vertex_candidate_index.h). UINT32_MAX disables indexing; like
  // cache_mb this is consumed by the front ends (service, CLI), not the
  // engines. Overridable via SGQ_CANDIDATE_INDEX=off|on.
  uint32_t candidate_index_min_vertices = kDefaultCandidateIndexMinVertices;
};

// Names: "CT-Index", "Grapes", "GGSX" (IFV);
//        "CFL", "GraphQL", "CFQL"     (vcFV);
//        "vcGrapes", "vcGGSX"         (IvcFV);
//        "VF2-scan"                   (naive baseline: VF2 on every graph);
//        "TurboIso", "Ullmann", "QuickSI", "SPath" (extensions, vcFV-style);
//        "GraphGrep"                  (extension: hash-table path IFV index);
//        "MinedPath"                  (extension: gIndex-style mining-based
//                                      path index);
//        "CFQL-parallel"              (extension: vcFV partitioned across
//                                      worker threads, heavy enumerations
//                                      split by work stealing).
// Aborts on unknown names.
std::unique_ptr<QueryEngine> MakeEngine(const std::string& name,
                                        const EngineConfig& config = {});

// The eight competing algorithms of Table III, in paper order.
const std::vector<std::string>& AllEngineNames();

// True iff MakeEngine(name) would succeed. Front ends (CLI, server) use
// this to reject bad --engine values with an error instead of the Fatal
// abort inside MakeEngine.
bool IsKnownEngine(const std::string& name);

}  // namespace sgq

#endif  // SGQ_QUERY_ENGINE_FACTORY_H_
