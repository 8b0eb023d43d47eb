// The metric contract as BENCHMARK.json declares it, the host record, the
// suite results file and compare mode.
#ifndef SGQ_E2EBENCH_REPORT_H_
#define SGQ_E2EBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "run.h"

namespace e2e {

// One declared metric. BENCHMARK.json is the only place names, units,
// directions and bounds are written down; the harness reads them from
// there wherever it prints or compares a metric.
struct MetricDecl {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;  // allowed worsening, share of the base median
                     // (end-to-end only)
};

struct Contract {
  std::vector<std::string> workloads;
  // What a user of the served system sees; measured with tracing off.
  std::vector<MetricDecl> end_to_end;
  // One layer each; measured by the traced run. 0 means the workload does
  // not exercise that layer (e.g. router.* outside routed_hot).
  std::vector<MetricDecl> per_layer;
};

bool LoadContract(const std::string& benchmark_json, Contract* contract,
                  std::string* error);

// Empty when `values` holds exactly the metrics `decls` declares; else
// names the first missing or undeclared one.
std::string NameMismatch(const std::map<std::string, double>& values,
                         const std::vector<MetricDecl>& decls);

// Host record: cores, CPU model, compiler, build type, git sha (+dirty),
// kernel. `git` comes from the caller (the checkout may not be a git
// repository).
std::string HostJson(const std::string& git,
                     const std::vector<std::string>& env_removed);

// The last stdout line of a single run: correct, attempted, failed and the
// metrics of its mode.
std::string ResultLine(const RunResult& result, bool trace,
                       const Contract& contract);

// Human-readable metric table (name, value, unit, n).
std::string MetricTable(const RunResult& result, bool trace,
                        const Contract& contract);

// Writes the suite file: per workload every run's metrics plus medians
// and quartiles, the per-layer summary of the traced run, and the host.
struct SuiteWorkload {
  std::string name;
  std::vector<RunResult> runs;     // untraced
  std::vector<RunResult> traced;   // at most one
};
bool WriteSuiteJson(const std::string& path, const std::string& host_json,
                    double seconds, const std::vector<SuiteWorkload>& suite,
                    const Contract& contract, std::string* error);

// Compare mode: one row per workload and end-to-end metric with both
// medians, quartiles, the bound and a verdict (better, within, worse, or
// unresolved when the spread exceeds the bound). Returns the exit code:
// 1 when any metric is worse, 2 on unreadable input, else 0.
int Compare(const std::string& base_path, const std::string& new_path,
            const Contract& contract);

}  // namespace e2e

#endif  // SGQ_E2EBENCH_REPORT_H_
