// e2e_driver: the layered end-to-end benchmark of the served system.
// Normally invoked through e2ebench/run.sh, which builds everything first.
// Every mode reads the metric contract from --benchmark-json (default
// BENCHMARK.json).
//
//   e2e_driver --workload NAME --seed N --seconds S --trace 0|1
//              --bin-dir DIR --work-dir DIR
//       One run. Human-readable lines, then as the last stdout line one
//       JSON object {"correct", "attempted", "failed", "metrics"}: the
//       end-to-end metrics, or with --trace 1 the per-layer ones.
//   e2e_driver --suite [--runs K] [--seed N] [--trace 0|1] [--seconds S]
//              [--out FILE] --bin-dir DIR --work-dir DIR [--git SHA]
//       K rounds over every workload, all with seed N, plus one traced
//       run each with --trace 1; writes the results file (default
//       WORK_DIR/BENCH_e2e.json) with the host record.
//   e2e_driver --compare BASE NEW
//   e2e_driver --smoke-test --bin-dir DIR --work-dir DIR
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fleet.h"
#include "report.h"
#include "run.h"
#include "workloads.h"

namespace {

using namespace e2e;

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR\n"
               "       e2e_driver --suite [--runs K] [--seed N] "
               "[--trace 0|1] [--seconds S] [--out FILE] --bin-dir DIR "
               "--work-dir DIR [--git SHA]\n"
               "       e2e_driver --compare BASE NEW\n"
               "       e2e_driver --smoke-test --bin-dir DIR --work-dir DIR\n"
               "every mode also takes --benchmark-json FILE "
               "(default BENCHMARK.json)\n");
  return 2;
}

// --flag value pairs plus bare switches.
struct Args {
  std::map<std::string, std::string> values;
  std::set<std::string> switches;
  std::vector<std::string> positional;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  static const std::set<std::string> kSwitches = {
      "--suite", "--smoke-test", "--compare"};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (kSwitches.count(a) > 0) {
      args->switches.insert(a);
    } else if (a.rfind("--", 0) == 0) {
      if (i + 1 >= argc) return false;
      args->values[a] = argv[++i];
    } else {
      args->positional.push_back(a);
    }
  }
  return true;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

// What every mode shares: the metric contract and the SGQ_* names removed
// from the environment.
struct Context {
  Contract contract;
  std::vector<std::string> env_removed;
};

void PrintRun(const RunResult& r, bool trace, const Context& ctx) {
  std::printf("workload %s seed %llu: inputs + oracle %.2f s (gen_s%s)\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.gen_s, r.oracle_cached ? ", oracle cached" : "");
  std::printf("load: %s\n", r.loadgen.c_str());
  if (!r.env_removed.empty()) {
    std::string names;
    for (const std::string& n : r.env_removed) names += " " + n;
    std::printf("removed from the fleet's environment:%s\n", names.c_str());
  }
  std::printf("%s", MetricTable(r, trace, ctx.contract).c_str());
  std::printf("correct %s, attempted %llu, failed %llu, generator %s\n",
              r.correct ? "yes" : "NO",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.valid ? "valid" : "INVALID (send lag p99 > 1 ms)");
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  }
  std::fflush(stdout);
}

// Empty when the run emitted exactly the metrics BENCHMARK.json declares
// for its mode.
std::string CheckNames(const RunResult& r, bool trace, const Context& ctx) {
  std::string mismatch = NameMismatch(r.metrics, ctx.contract.end_to_end);
  if (mismatch.empty() && trace) {
    mismatch = NameMismatch(r.layers, ctx.contract.per_layer);
  }
  return mismatch;
}

// Common run options; false on a malformed --seconds or --trace.
bool BaseOptions(const Args& args, RunOptions* o) {
  o->bin_dir = args.Get("--bin-dir", "build-bench/tools");
  o->work_dir = args.Get("--work-dir", "e2ebench/work");
  double trace = 0;
  if (!ParseNumber(args.Get("--seconds", "20"), &o->seconds) ||
      !ParseNumber(args.Get("--trace", "0"), &trace) || o->seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return false;
  }
  o->trace = trace == 1;
  return true;
}

bool ParseSeed(const Args& args, uint64_t* seed) {
  double value = 0;
  if (!ParseNumber(args.Get("--seed", "1"), &value) || value < 0) {
    return false;
  }
  *seed = static_cast<uint64_t>(value);
  return true;
}

int RunOne(const Args& args, const Context& ctx) {
  RunOptions o;
  if (!BaseOptions(args, &o) || !ParseSeed(args, &o.seed)) return Usage();
  o.workload = args.Get("--workload", "");
  RunResult r;
  std::string error;
  if (!RunWorkload(o, ctx.env_removed, &r, &error)) {
    std::fprintf(stderr, "e2e_driver: %s\n", error.c_str());
    return 1;
  }
  PrintRun(r, o.trace, ctx);
  const std::string mismatch = CheckNames(r, o.trace, ctx);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "e2e_driver: BENCHMARK.json mismatch: %s\n",
                 mismatch.c_str());
    return 1;
  }
  std::printf("%s\n", ResultLine(r, o.trace, ctx.contract).c_str());
  return 0;
}

// Rounds over every workload, so a slow stretch of the host falls on all
// workloads alike instead of on one workload's runs.
int RunSuite(const Args& args, const Context& ctx) {
  RunOptions o;
  double runs = 1;
  if (!BaseOptions(args, &o) || !ParseSeed(args, &o.seed) ||
      !ParseNumber(args.Get("--runs", "1"), &runs) || runs < 0) {
    return Usage();
  }
  const bool trace = o.trace;
  std::vector<SuiteWorkload> suite;
  for (const WorkloadSpec& spec : Workloads()) {
    suite.push_back(SuiteWorkload{spec.name, {}, {}});
  }
  bool all_good = true;
  for (int round = 0; round < static_cast<int>(runs) + (trace ? 1 : 0);
       ++round) {
    o.trace = round == static_cast<int>(runs);
    for (SuiteWorkload& s : suite) {
      o.workload = s.name;
      RunResult r;
      std::string error;
      if (!RunWorkload(o, ctx.env_removed, &r, &error)) {
        std::fprintf(stderr, "e2e_driver: %s: %s\n", s.name.c_str(),
                     error.c_str());
        return 1;
      }
      PrintRun(r, o.trace, ctx);
      const std::string mismatch = CheckNames(r, o.trace, ctx);
      if (!mismatch.empty()) {
        std::fprintf(stderr, "e2e_driver: BENCHMARK.json mismatch: %s\n",
                     mismatch.c_str());
        return 1;
      }
      all_good = all_good && r.correct && r.failed == 0;
      (o.trace ? s.traced : s.runs).push_back(std::move(r));
    }
  }
  std::string error;
  const std::string out = args.Get("--out", o.work_dir + "/BENCH_e2e.json");
  if (!WriteSuiteJson(out,
                      HostJson(args.Get("--git", "unknown"), ctx.env_removed),
                      o.seconds, suite, ctx.contract, &error)) {
    std::fprintf(stderr, "e2e_driver: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return all_good ? 0 : 1;
}

int SmokeTest(const Args& args, const Context& ctx) {
  std::vector<std::string> ours;
  for (const WorkloadSpec& spec : Workloads()) ours.push_back(spec.name);
  if (ours != ctx.contract.workloads) {
    std::fprintf(stderr, "smoke: BENCHMARK.json workloads differ from the "
                         "harness's\n");
    return 1;
  }
  RunOptions o;
  o.bin_dir = args.Get("--bin-dir", "build-bench/tools");
  o.work_dir = args.Get("--work-dir", "e2ebench/work");
  o.smoke = true;
  o.trace = true;
  o.seconds = 1;
  int failures = 0;
  for (const WorkloadSpec& spec : Workloads()) {
    o.workload = spec.name;
    RunResult r;
    std::string error;
    if (!RunWorkload(o, ctx.env_removed, &r, &error)) {
      std::fprintf(stderr, "smoke: %s: %s\n", spec.name.c_str(),
                   error.c_str());
      return 1;
    }
    PrintRun(r, true, ctx);
    const std::string mismatch = CheckNames(r, true, ctx);
    if (!r.correct || r.failed > 0 || !mismatch.empty()) {
      std::fprintf(stderr, "smoke: %s FAILED %s\n", spec.name.c_str(),
                   mismatch.c_str());
      ++failures;
    }
  }
  std::printf("smoke: %d of %zu workloads failed\n", failures,
              Workloads().size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  Context ctx;
  std::string error;
  if (!LoadContract(args.Get("--benchmark-json", "BENCHMARK.json"),
                    &ctx.contract, &error)) {
    std::fprintf(stderr, "e2e_driver: %s\n", error.c_str());
    return 1;
  }
  if (args.switches.count("--compare") > 0) {
    if (args.positional.size() != 2) return Usage();
    return Compare(args.positional[0], args.positional[1], ctx.contract);
  }
  // Before any library code reads an SGQ_* override: the harness and the
  // fleet it spawns both run on shipped defaults.
  ctx.env_removed = ScrubSgqEnvironment();
  InstallFleetCleanup();
  if (args.switches.count("--smoke-test") > 0) return SmokeTest(args, ctx);
  if (args.switches.count("--suite") > 0) return RunSuite(args, ctx);
  if (args.values.count("--workload") > 0) return RunOne(args, ctx);
  return Usage();
}
