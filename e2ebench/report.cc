#include "report.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "json.h"
#include "stats.h"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

bool LoadContract(const std::string& benchmark_json, Contract* contract,
                  std::string* error) {
  Json doc;
  if (!ReadJsonFile(benchmark_json, &doc, error)) return false;
  Contract c;
  for (const Json& w : doc["workloads"].array) {
    c.workloads.push_back(w["name"].string);
  }
  const auto read = [&](const char* key, std::vector<MetricDecl>* out) {
    for (const Json& m : doc[key].array) {
      MetricDecl d;
      d.name = m["name"].string;
      d.unit = m["unit"].string;
      d.higher_is_better = m["better"].string == "higher";
      d.bound = m.Num("bound");
      if (d.name.empty() || d.unit.empty() ||
          (m["better"].string != "lower" && !d.higher_is_better)) {
        *error = benchmark_json + ": malformed " + key + " entry";
        return false;
      }
      out->push_back(std::move(d));
    }
    return true;
  };
  if (!read("end_to_end", &c.end_to_end) ||
      !read("per_layer", &c.per_layer)) {
    return false;
  }
  if (c.workloads.empty() || c.end_to_end.empty()) {
    *error = benchmark_json + " declares no workloads or no metrics";
    return false;
  }
  *contract = std::move(c);
  return true;
}

std::string NameMismatch(const std::map<std::string, double>& values,
                         const std::vector<MetricDecl>& decls) {
  std::set<std::string> declared;
  for (const MetricDecl& d : decls) {
    declared.insert(d.name);
    if (values.count(d.name) == 0) {
      return "declared but not emitted: " + d.name;
    }
  }
  for (const auto& entry : values) {
    if (declared.count(entry.first) == 0) {
      return "emitted but not declared: " + entry.first;
    }
  }
  return "";
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string MetricsObject(const std::map<std::string, double>& values,
                          const std::vector<MetricDecl>& decls,
                          const std::map<std::string, uint64_t>* samples) {
  std::string out = "{";
  bool first = true;
  for (const MetricDecl& d : decls) {
    const auto it = values.find(d.name);
    if (it == values.end()) continue;
    out += first ? "" : ", ";
    first = false;
    out += Quote(d.name) + ": {\"value\": " + Number(it->second) +
           ", \"unit\": " + Quote(d.unit);
    if (samples != nullptr && samples->count(d.name) > 0) {
      out += ", \"n\": " + std::to_string(samples->at(d.name));
    }
    out += "}";
  }
  return out + "}";
}

std::string RunJson(const RunResult& r, const Contract& contract) {
  std::string out = "{\"seed\": " + std::to_string(r.seed) +
                    ", \"correct\": " + (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"valid\": " + (r.valid ? "true" : "false") +
                    ", \"gen_s\": " + Number(r.gen_s) +
                    ", \"loadgen\": " + Quote(r.loadgen) + ", \"metrics\": " +
                    MetricsObject(r.metrics, contract.end_to_end, &r.samples);
  if (!r.layers.empty()) {
    out += ", \"per_layer\": " +
           MetricsObject(r.layers, contract.per_layer, nullptr);
    out += ", \"trace_summary\": [";
    for (size_t i = 0; i < r.trace_summary.size(); ++i) {
      const Tracer::LayerSummary& s = r.trace_summary[i];
      out += std::string(i > 0 ? ",\n    " : "\n    ") + "{\"span\": " +
             Quote(s.name) + ", \"calls\": " + std::to_string(s.calls) +
             ", \"total_ms\": " + Number(s.total_ms) +
             ", \"self_ms\": " + Number(s.self_ms) +
             ", \"p50_us\": " + Number(s.p50_us) +
             ", \"p99_us\": " + Number(s.p99_us) + "}";
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace

std::string HostJson(const std::string& git,
                     const std::vector<std::string>& env_removed) {
  utsname u{};
  ::uname(&u);
  std::string removed = "[";
  for (size_t i = 0; i < env_removed.size(); ++i) {
    removed += (i > 0 ? ", " : "") + Quote(env_removed[i]);
  }
  removed += "]";
  return "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"threads_available\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + Quote(CpuModel()) +
         ", \"compiler\": " + Quote(E2E_COMPILER) +
         ", \"build_type\": " + Quote(E2E_BUILD_TYPE) +
         ", \"git\": " + Quote(git) +
         ", \"dirty\": " +
         (git.find("+dirty") != std::string::npos ? "true" : "false") +
         ", \"kernel\": " + Quote(std::string(u.sysname) + " " + u.release) +
         ", \"env_removed\": " + removed + "}";
}

std::string ResultLine(const RunResult& r, bool trace,
                       const Contract& contract) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": " +
         (trace ? MetricsObject(r.layers, contract.per_layer, nullptr)
                : MetricsObject(r.metrics, contract.end_to_end, nullptr)) +
         "}";
}

std::string MetricTable(const RunResult& r, bool trace,
                        const Contract& contract) {
  std::string out;
  char line[200];
  for (const MetricDecl& d : contract.end_to_end) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) continue;
    std::snprintf(line, sizeof(line), "  %-30s %14.4f %-6s n=%llu\n",
                  d.name.c_str(), it->second, d.unit.c_str(),
                  static_cast<unsigned long long>(r.samples.at(d.name)));
    out += line;
  }
  if (!trace) return out;
  for (const MetricDecl& d : contract.per_layer) {
    const auto it = r.layers.find(d.name);
    if (it == r.layers.end()) continue;
    std::snprintf(line, sizeof(line), "  %-30s %14.4f %s\n", d.name.c_str(),
                  it->second, d.unit.c_str());
    out += line;
  }
  return out;
}

bool WriteSuiteJson(const std::string& path, const std::string& host_json,
                    double seconds, const std::vector<SuiteWorkload>& suite,
                    const Contract& contract, std::string* error) {
  std::string out = "{\n  \"suite\": \"e2e\",\n  \"host\": " + host_json +
                    ",\n  \"seconds\": " + Number(seconds) +
                    ",\n  \"workloads\": {";
  for (size_t w = 0; w < suite.size(); ++w) {
    const SuiteWorkload& s = suite[w];
    out += std::string(w > 0 ? "," : "") + "\n    " + Quote(s.name) + ": {";
    // Medians and quartiles over the untraced runs.
    out += "\n      \"end_to_end\": {";
    bool first = true;
    for (const MetricDecl& d : contract.end_to_end) {
      std::vector<double> values;
      for (const RunResult& r : s.runs) values.push_back(r.metrics.at(d.name));
      if (values.empty()) continue;
      const Quartiles q = QuartilesOf(values);
      out += std::string(first ? "" : ",") + "\n        " + Quote(d.name) +
             ": {\"unit\": " + Quote(d.unit) +
             ", \"median\": " + Number(Median(values)) +
             ", \"q1\": " + Number(q.q1) + ", \"q3\": " + Number(q.q3) +
             ", \"runs\": " + std::to_string(values.size()) +
             ", \"values\": [";
      for (size_t i = 0; i < values.size(); ++i) {
        out += (i > 0 ? ", " : "") + Number(values[i]);
      }
      out += "]}";
      first = false;
    }
    out += "\n      },\n      \"runs\": [";
    for (size_t i = 0; i < s.runs.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + "\n        " + RunJson(s.runs[i], contract);
    }
    out += "],\n      \"traced\": [";
    for (size_t i = 0; i < s.traced.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + "\n        " +
             RunJson(s.traced[i], contract);
    }
    out += "]\n    }";
  }
  out += "\n  }\n}\n";
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream file(path);
  file << out;
  if (!file) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

int Compare(const std::string& base_path, const std::string& new_path,
            const Contract& contract) {
  Json base, fresh;
  std::string error;
  if (!ReadJsonFile(base_path, &base, &error) ||
      !ReadJsonFile(new_path, &fresh, &error)) {
    std::fprintf(stderr, "compare: %s\n", error.c_str());
    return 2;
  }
  int worse = 0;
  std::printf("%-13s %-12s %12s %23s %12s %23s %6s  %s\n", "workload",
              "metric", "base", "base q1..q3", "new", "new q1..q3", "bound",
              "verdict");
  for (const MetricDecl& m : contract.end_to_end) {
    const std::string& name = m.name;
    const double bound = m.bound;
    const bool higher = m.higher_is_better;
    for (const std::string& wl : contract.workloads) {
      const auto values = [&](const Json& doc) {
        std::vector<double> v;
        for (const Json& x :
             doc["workloads"][wl]["end_to_end"][name]["values"].array) {
          v.push_back(x.number);
        }
        return v;
      };
      const std::vector<double> b = values(base), n = values(fresh);
      if (b.empty() || n.empty()) {
        std::printf("%-13s %-12s %s\n", wl.c_str(), name.c_str(),
                    "missing in one file");
        continue;
      }
      const double mb = Median(b), mn = Median(n);
      const Quartiles qb = QuartilesOf(b), qn = QuartilesOf(n);
      // Positive change = worse, whichever the metric's direction.
      const double change = mb == 0 ? 0 : (higher ? mb - mn : mn - mb) / mb;
      const double spread = std::max(Spread(b), Spread(n));
      const bool all_better =
          higher ? *std::min_element(n.begin(), n.end()) >
                       *std::max_element(b.begin(), b.end())
                 : *std::max_element(n.begin(), n.end()) <
                       *std::min_element(b.begin(), b.end());
      const char* verdict = "within";
      if (spread > bound && !all_better) {
        verdict = "unresolved";
      } else if (change > bound) {
        verdict = "worse";
        ++worse;
      } else if (change < 0 && (all_better || -change > Spread(b))) {
        verdict = "better";
      }
      char qbs[48], qns[48];
      std::snprintf(qbs, sizeof(qbs), "%.4g..%.4g", qb.q1, qb.q3);
      std::snprintf(qns, sizeof(qns), "%.4g..%.4g", qn.q1, qn.q3);
      std::printf("%-13s %-12s %12.4g %23s %12.4g %23s %6.2f  %s\n",
                  wl.c_str(), name.c_str(), mb, qbs, mn, qns, bound, verdict);
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace e2e
