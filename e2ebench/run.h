// One benchmark run of one workload: generate the inputs and oracle from
// the seed, start the fleet five times (setup_s is their median), then
// warm-up, closed-loop and open-loop phases with every reply checked; a
// traced run adds the STATS/reply scrape and the in-process replay.
#ifndef SGQ_E2EBENCH_RUN_H_
#define SGQ_E2EBENCH_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;   // closed + open phase length
  bool trace = false;
  bool smoke = false;    // tiny inputs and phases (the ctest smoke run)
  std::string bin_dir;   // sgq_server / sgq_router
  std::string work_dir;  // inputs, oracle cache, traces; short relative path
};

// The generator is valid when its send lag p99 stays below this.
inline constexpr double kMaxSendLagP99Ms = 1.0;

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool correct = false;    // every reply matched the oracle
  uint64_t attempted = 0;  // operations sent (all phases)
  uint64_t failed = 0;     // error replies + wrong answers
  bool valid = false;      // load generator kept its schedule
  double gen_s = 0;        // input generation + oracle (outside metrics)
  bool oracle_cached = false;
  std::string loadgen;     // closed/open loop shape and rate, for the log
  std::vector<std::string> env_removed;
  // End-to-end metrics (value) and their sample counts.
  std::map<std::string, double> metrics;
  std::map<std::string, uint64_t> samples;
  // Per-layer metrics and span summary (traced runs only).
  std::map<std::string, double> layers;
  std::vector<Tracer::LayerSummary> trace_summary;
  std::vector<std::string> problems;  // first wrong answers / errors
};

// False (with *error) when the run could not be carried out at all — bad
// arguments, a fleet that would not start or hung. Wrong answers and error
// replies are not such failures: they land in result->correct/failed.
bool RunWorkload(const RunOptions& options,
                 const std::vector<std::string>& env_removed,
                 RunResult* result, std::string* error);

}  // namespace e2e

#endif  // SGQ_E2EBENCH_RUN_H_
