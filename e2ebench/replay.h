// The traced in-process replay: the first requests of the workload's
// stream, re-run through each module's public calls in pipeline order
// (parse, canonicalize, cache lookup, cost estimate, engine, format, cache
// insert), then decomposed into index filter / first-level candidates /
// matcher filter / ordering / enumeration. Writes replay through the
// cache, index and update layers. Every span wraps a public call made
// from this file; nothing inside src/ is instrumented.
#ifndef SGQ_E2EBENCH_REPLAY_H_
#define SGQ_E2EBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "graph/types.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {

// Requests the replay covers.
inline constexpr size_t kReplayRequests = 200;

struct ReplayInput {
  const WorkloadSpec* spec = nullptr;
  const Inputs* inputs = nullptr;
  const Oracle* oracle = nullptr;
  std::vector<Request> requests;  // the first kReplayRequests of the stream
  // Served answers by stream position (reads that completed OK).
  std::map<uint64_t, std::vector<sgq::GraphId>> served;
  std::string chrome_trace_path;
};

struct ReplayOutput {
  std::map<std::string, double> metrics;
  std::vector<Tracer::LayerSummary> summary;
  std::vector<std::string> mismatches;  // replay answers != served/oracle
};

bool RunReplay(const ReplayInput& input, ReplayOutput* output,
               std::string* error);

// Routed fleets only, against the live shards before shutdown: in-process
// ScatterGather::Query (router.scatter_ms), MergeShardResults on replies
// fetched from each shard (router.merge_us), and the same requests through
// the router (router.overhead_ms = router latency - scatter latency).
bool MeasureRouter(const ReplayInput& input,
                   const std::vector<std::string>& shard_sockets,
                   const std::string& router_socket, ReplayOutput* output,
                   std::string* error);

}  // namespace e2e

#endif  // SGQ_E2EBENCH_REPLAY_H_
